"""Acceptance criteria, one test per criterion.

Every check is an exact (tolerance-zero) identity; the stated wall-clock
budgets are asserted too.  Run with ``pytest -s tests/test_acceptance.py``
to see one pass line per criterion.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from cograss import conormal, detvar
from cograss.checks import (
    check_braid_embedding,
    check_bruhat_oracle,
    check_demazure_associativity,
    check_detvar_factorizations,
    check_form_invariance,
    check_iota_conjugation,
    check_main_predicate,
    check_min_rep_sets,
    check_nilpotent_sets,
    check_shift_bijection,
    check_shift_root_bijection,
    check_smoothness_criteria,
    check_translation_identity,
    check_type_d_length_agreement,
    check_wsontheta,
    cominuscule_pairs,
)
from cograss.cominuscule import build_context
from cograss.weyl import demazure, enumerate_min_reps, positive_roots_of

SRC = str(Path(__file__).resolve().parent.parent / "src")
RANK6 = list(cominuscule_pairs(6))
RANK5 = list(cominuscule_pairs(5))


def _stamp(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"criterion {number:2d} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_01_translation_identity():
    start = time.monotonic()
    assert [(s, n, d) for s, n, d in RANK6 if s == "A"] == \
        [("A", n, d) for n in range(1, 7) for d in range(1, n + 1)]
    for series, rank, d in RANK6:
        assert check_translation_identity(build_context(series, rank, d))
    _stamp(1, "translation element two ways", start, 60)


def test_criterion_02_levi_action_on_marked_roots():
    start = time.monotonic()
    for series, rank, d in RANK6:
        assert check_wsontheta(build_context(series, rank, d))
    _stamp(2, "w_levi sends marked roots to highest roots", start, 60)


def test_criterion_03_involution_preserves_forms():
    start = time.monotonic()
    for series, rank, d in RANK6:
        assert check_form_invariance(build_context(series, rank, d))
    _stamp(3, "involution preserves Cartan matrix, form, delta", start, 60)


def test_criterion_04_involution_conjugation():
    start = time.monotonic()
    for series, rank, d in RANK6:
        assert check_iota_conjugation(build_context(series, rank, d))
    _stamp(4, "twisted generators act by conjugation", start, 60)


def test_criterion_05_minimal_representative_sets():
    start = time.monotonic()
    for series, rank, d in RANK5:
        assert check_min_rep_sets(build_context(series, rank, d))
    _stamp(5, "quotient set equalities and length additivity", start, 120)


def test_criterion_06_smoothness_criteria_agree():
    start = time.monotonic()
    for series, rank, d in RANK5:
        assert check_smoothness_criteria(build_context(series, rank, d))
    _stamp(6, "four smoothness criteria agree", start, 120)


def test_criterion_07_shift_bijection_and_pointwise_identity():
    start = time.monotonic()
    for series, rank, d in RANK5:
        ctx = build_context(series, rank, d)
        assert check_shift_root_bijection(ctx)  # the pointwise identity, once per context
        assert check_shift_bijection(ctx)
    _stamp(7, "delta-shift bijection with pointwise identity", start, 120)


def test_criterion_08_closure_predicate_and_bookkeeping():
    start = time.monotonic()
    for series, rank, d in RANK5:
        ctx = build_context(series, rank, d)
        assert check_main_predicate(ctx)
        dim_gb = len(positive_roots_of(ctx.group, ctx.finite_nodes))
        for w in enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes):
            report = conormal.closure_is_schubert(ctx, w)
            chain = demazure(w, demazure(report.v.inverse(),
                                         demazure(report.v, ctx.w_levi)))
            assert chain.length() >= dim_gb
            assert (chain.length() == dim_gb) == report.closure_is_schubert
    _stamp(8, "Schubert closure predicate with length bookkeeping", start, 120)


def test_criterion_09_nilpotent_sets():
    start = time.monotonic()
    for series, rank, d in RANK5:
        assert check_nilpotent_sets(build_context(series, rank, d))
    _stamp(9, "nilpotent root sets: closure and sign witnesses", start, 120)


def test_criterion_10_chain_relations():
    start = time.monotonic()
    for n in range(4, 9):
        assert check_braid_embedding(n)
        assert detvar.check_relations(n).all_hold
        assert check_detvar_factorizations(n)
    _stamp(10, "signed permutation relations and factorizations", start, 60)


def test_criterion_11_intersection_and_fibre_theorem():
    start = time.monotonic()
    for n in (4, 5, 6, 7):
        nbar = detvar.even_rank(n)
        ctx = build_context("D", n, n)
        for r in range(0, nbar + 1, 2):
            assert detvar.intersect_identity(n, r)
            rank, witness = detvar.fibre_rank(n, r)
            assert rank == nbar - r
            assert witness == detvar.skew_rank_element(n, nbar - r)
            w = detvar.element_of(ctx, detvar.skew_rank_element(n, r))
            expected = ctx.iota_elem(detvar.element_of(ctx, witness))
            assert conormal.fibre_maximal(ctx, w) == frozenset({expected})
    _stamp(11, "determinantal conormal fibre theorem", start, 300)


def test_criterion_12_oracle_equivalence():
    start = time.monotonic()
    assert check_bruhat_oracle("A", 3)
    assert check_bruhat_oracle("B", 2)
    assert check_demazure_associativity("A", 3)
    assert check_type_d_length_agreement(4)
    _stamp(12, "independent oracles agree", start, 120)


CLI_INVOCATIONS = [
    ["roots", "--type", "D", "--rank", "4", "--json"],
    ["smooth", "--type", "D", "--rank", "4", "--comin", "4", "--u", "", "--json"],
    ["conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "2",
     "--fibre", "--json"],
    ["detvar", "--n", "4", "--r", "2", "--json"],
    ["verify", "--suite", "result-q", "--max-rank", "3", "--json"],
]


def _run_cli(args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cograss"] + args, capture_output=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": path})


def test_criterion_13_cli_contract():
    start = time.monotonic()
    for args in CLI_INVOCATIONS:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout, f"unstable output for {args}"
        json.loads(first.stdout)  # must be valid JSON
    full = _run_cli(["verify", "--suite", "all", "--max-rank", "4"])
    assert full.returncode == 0, full.stdout[-2000:]
    bad = _run_cli(["roots", "--type", "D", "--rank", "3"])
    assert bad.returncode == 2
    _stamp(13, "CLI byte-stable JSON and exit codes", start, 300)
