"""The verify runner: one guard per instance, timing that excludes set-up."""

import ast
import functools
import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from cograss import checks, cli, cominuscule, conormal, detvar, rootsys, weyl
from cograss.checks import run_suite
from cograss.rootsys import build_diagram
from cograss.weyl import WeylGroup, longest_element

REPO = Path(__file__).resolve().parent.parent


def test_failed_context_build_fails_only_its_records(monkeypatch):
    clean = run_suite("all", max_rank=3)
    real = checks.build_context

    def broken(series, rank, node):
        if (series, rank, node) == ("A", 2, 1):
            raise RuntimeError("no context today")
        return real(series, rank, node)

    monkeypatch.setattr(checks, "build_context", broken)
    report = run_suite("all", max_rank=3)
    assert len(report.checks) == len(clean.checks)
    hit = [c for c in report.checks if c.params == "A2 d=1"]
    assert hit and all(not c.passed and c.note == "RuntimeError: no context today"
                       for c in hit)

    def others(r):
        return [(c.check_id, c.params, c.passed, c.note)
                for c in r.checks if c.params != "A2 d=1"]

    assert others(report) == others(clean)


def test_timing_excludes_context_construction(monkeypatch):
    real = checks.build_context

    def slow(series, rank, node):
        time.sleep(0.2)
        return real(series, rank, node)

    monkeypatch.setattr(checks, "build_context", slow)
    report = run_suite("form-inv", max_rank=2)
    assert report.checks and report.all_pass
    assert all(c.elapsed is not None and c.elapsed < 0.2 for c in report.checks)


@pytest.mark.parametrize("suite, max_rank", [("fibre-det", 3), ("wsontheta", 0)])
def test_empty_sweep_is_an_error(suite, max_rank):
    with pytest.raises(ValueError, match=f"{suite}.*max_rank={max_rank}"):
        run_suite(suite, max_rank=max_rank)


def test_all_at_rank_zero_runs_the_oracles():
    report = run_suite("all", max_rank=0)
    assert len(report.checks) == 5 and report.all_pass


def test_benchmark_entry_points_resolve():
    """Every name the traced benchmark run wraps, and what its golden recorder
    imports, still exists in the library; the two memos whose hit counts the
    traced summary reads are still lru_caches."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for targets in tracing.ENTRY_POINTS.values():
        for target, attrs in targets.items():
            module_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            missing += [f"{target}.{attr}" for attr in attrs
                        if attr not in (vars(owner) if cls_name else dir(owner))]
    assert missing == []
    assert hasattr(weyl.demazure, "cache_info")
    assert hasattr(cominuscule.build_context, "cache_info")
    assert isinstance(checks.SUITES, dict) and "all" not in checks.SUITES
    assert callable(checks.cominuscule_pairs)


def test_traced_benchmark_run_ends_on_a_numeric_result_line():
    """The traced detvar-fibre run exits 0 and its result line, the last line on
    stdout, reports correct outputs and a number for every declared metric.  A
    change that took the last demazure call off that workload's path was once
    refused for this: the traced summary printed weyl.demazure.hit_ratio as null."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "detvar-fibre",
                          "--seed", "1", "--trace", "1"],
                         capture_output=True, text=True, cwd=REPO, env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]
    assert {name: m["value"] for name, m in result["metrics"].items()
            if type(m["value"]) not in (int, float)} == {}


@pytest.fixture
def fresh_contexts(monkeypatch):
    """A private build_context cache for the checks and detvar.  Each context
    owns its per-element memos, so fresh contexts bring fresh memos by
    construction, whatever ran before."""
    fresh = functools.lru_cache(maxsize=None)(cominuscule.build_context.__wrapped__)
    for module in (checks, detvar):
        monkeypatch.setattr(module, "build_context", fresh)
    return fresh


def test_dropped_contexts_are_freed_with_their_memos():
    """Lifetime gate: no module-level cache holds a context.  Each context to
    rank 6 is built outside build_context's cache, swept by every
    context-scoped check and dropped; afterwards none is alive.  Its memos
    hold exactly W^P and W_d^0, and an element the library rejects leaves
    no entry in them."""
    scoped = [check for entries in checks.SUITES.values()
              for _, scope, check in entries if scope is checks._contexts]
    refs = []
    for pair in checks.cominuscule_pairs(6):
        ctx = cominuscule.build_context.__wrapped__(*pair)
        for check in scoped:
            assert check(ctx), (check.__name__, pair)
        with pytest.raises(ValueError):
            conormal.conormal_roots(ctx, ctx.group.simple[0])
        with pytest.raises(ValueError):
            conormal.is_smooth(ctx, ctx.group.simple[ctx.cominuscule_node])
        assert set(ctx.element_reports) == ctx.min_reps
        assert set(ctx.smoothness_reports) == ctx.dual_min_reps
        refs.append(weakref.ref(ctx))
    del ctx
    gc.collect()
    assert len(refs) == 42
    assert sum(ref() is not None for ref in refs) == 0


def test_finite_type_is_decided_without_the_determinant(monkeypatch, fresh_contexts):
    """Op-count gate: a main-result sweep on fresh contexts consults
    finite_type_nodes but never runs the leading-minor test; Kac's lemma
    decides every node set."""
    touched, tested = [], []
    real_nodes, real_test = rootsys.finite_type_nodes, rootsys.is_finite_type

    def recording_nodes(diagram, nodes):
        chosen = real_nodes(diagram, nodes)
        touched.append((diagram, chosen))
        return chosen

    def counting_test(diagram, nodes=None):
        tested.append((diagram, tuple(nodes)))
        return real_test(diagram, nodes)

    monkeypatch.setattr(rootsys, "is_finite_type", counting_test)
    monkeypatch.setattr(rootsys, "finite_type_nodes", recording_nodes)
    monkeypatch.setattr(weyl, "finite_type_nodes", recording_nodes)
    assert run_suite("main-result", max_rank=4).all_pass
    assert touched and not tested


def test_coset_sets_are_enumerated_at_most_twice_per_context(monkeypatch):
    """Op-count gate: W^P and W_d^0 are grown once each, on contexts built
    fresh; check_min_rep_sets reads both off the context.  checks is patched
    too, though it does not import the grower, so a re-import is counted;
    the oracles suite's weyl_elements calls run on finite groups and are not.
    The grower is coset_masks, which enumerate_min_reps also calls."""
    real = weyl.coset_masks
    calls = []

    def counting(group, *args, **kwargs):
        calls.append(group.diagram.affine)
        return real(group, *args, **kwargs)

    for module in (weyl, cominuscule, checks):
        monkeypatch.setattr(module, "coset_masks", counting, raising=False)
    fresh = functools.lru_cache(maxsize=None)(cominuscule.build_context.__wrapped__)
    monkeypatch.setattr(checks, "build_context", fresh)
    assert run_suite("all", 5).all_pass
    contexts = len(list(checks.cominuscule_pairs(5)))
    assert fresh.cache_info().currsize == contexts
    assert 0 < calls.count(True) <= 2 * contexts


def test_coset_growth_makes_no_product(monkeypatch, capsys):
    """Op-count gate: growing W^P and W_d^0 on fresh C7, D7 and E7 contexts
    (d = 7) folds no word, makes no simple product and strips no word.  With
    the left product refused, the rank-5 sweep on fresh contexts,
    fibre_rank(n, r) for n <= 7 and a conormal --fibre query still run: the
    library no longer calls mul_simple_left."""
    contexts = [cominuscule.build_context.__wrapped__(series, 7, 7) for series in "CDE"]
    counts = Counter()
    for owner, name in ((weyl.WeylGroup, "_fold"),
                        (weyl.AffineWeylElement, "mul_simple_right"),
                        (weyl.AffineWeylElement, "mul_simple_left"),
                        (weyl.AffineWeylElement, "reduced_word")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    for ctx in contexts:
        assert ctx.min_reps and ctx.dual_min_reps
    assert not counts
    group = contexts[0].group
    group.identity.mul_simple_left(1).mul_simple_right(2) * group.simple[3]
    assert set(counts) == {"_fold", "mul_simple_right", "mul_simple_left", "reduced_word"}

    def refuse(self, node):
        raise AssertionError("no library path may make a left product")

    monkeypatch.setattr(weyl.AffineWeylElement, "mul_simple_left", refuse)
    monkeypatch.setattr(checks, "build_context",
                        functools.lru_cache(maxsize=None)(cominuscule.build_context.__wrapped__))
    assert run_suite("all", 5).all_pass
    for n in range(4, 8):
        nbar = detvar.even_rank(n)
        for r in range(0, nbar + 1, 2):
            assert detvar.fibre_rank(n, r)[0] == nbar - r
    assert cli.main(["conormal", "--type", "D", "--rank", "5", "--comin", "5", "--w", "",
                     "--fibre", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fibre_max"]


STRIPPED_LETTERS = """
import sys
from cograss import checks, weyl
real = weyl.AffineWeylElement.reduced_word
letters = []

def counting(self):
    fresh = self._word is None
    word = real(self)
    if fresh:
        letters.append(len(word))
    return word

weyl.AffineWeylElement.reduced_word = counting
assert checks.run_suite(sys.argv[1], 5).all_pass
print(sum(letters))
"""


BUILT_ELEMENTS = """
from cograss import detvar, weyl
real = weyl._element
built = []

def counting(*args):
    built.append(None)
    return real(*args)

weyl._element = counting
for n in range(4, 10):
    for r in range(0, detvar.even_rank(n) + 1, 2):
        detvar.fibre_rank(n, r)
print(len(built))
"""


def _fresh_count(script: str, *args: str) -> int:
    """The count a script prints in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                         text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr[-2000:]
    return int(run.stdout)


def stripped_letters(suite: str) -> int:
    """Letters of reduced words freshly stripped by run_suite(suite, 5) in a fresh
    interpreter."""
    return _fresh_count(STRIPPED_LETTERS, suite)


def test_fibre_rank_builds_at_most_800_elements():
    """Op-count gate: in a fresh interpreter, fibre_rank(n, r) for n = 4..9 and
    every even r builds at most 800 elements through weyl._element (531).
    min_rep and longest_element strip a copy of mu and build one element per
    answer; walking a chain of right products built 1,804."""
    assert 0 < _fresh_count(BUILT_ELEMENTS) <= 800


GROWN_ROOT_SETS = """
import contextlib, io, itertools
from cograss import cli, cominuscule, detvar, rootsys
queries = [("A", 4, 2), ("B", 4, 1), ("C", 4, 4), ("D", 5, 5), ("E", 6, 1)]
contexts = [cominuscule.build_context("D", n, n) for n in range(4, 10)]
contexts += [cominuscule.build_context(*query) for query in queries]
assert not any("affine_levi_roots" in vars(ctx) for ctx in contexts)
real = rootsys._grow_positive_roots
grown = []

def counting(diagram, nodes):
    grown.append(nodes)
    return real(diagram, nodes)

rootsys._grow_positive_roots = counting
for n in range(4, 10):
    for r in range(0, detvar.even_rank(n) + 1, 2):
        detvar.fibre_rank(n, r)
for (series, rank, d), word in itertools.product(queries, ("", "{d}")):
    with contextlib.redirect_stdout(io.StringIO()):  # e has a fibre, s_d is refused one
        assert cli.main(["conormal", "--type", series, "--rank", str(rank), "--comin", str(d),
                         "--w", word.format(d=d), "--fibre", "--json"]) == 0
count = len(grown)
rootsys.positive_roots(contexts[0].affine_diagram, (0, 2))  # the count is live
assert len(grown) == count + 1
print(count)
"""


def test_fibre_and_queries_grow_no_root_set():
    """Op-count gate: with the contexts built (and no root table filled by the
    build), fibre_rank(n, r) for n = 4..9 and every even r and two
    conormal --fibre --json queries per series (w = e and w = s_d) grow no
    positive-root set.  c5 reads Phi+_{Supp(u)} off the context's affine-Levi
    table; growing it per support made 24 growths on the fibre sweep and 28 in
    all."""
    assert _fresh_count(GROWN_ROOT_SETS) == 0


def test_main_result_strips_at_most_4000_letters():
    """Op-count gate: in a fresh interpreter, run_suite("main-result", 5) strips at
    most 4,000 letters of reduced words (3,775).  c3 and the length chain fold
    only words that u, v, v^-1 and w_levi already hold, and products carry their
    lengths; folding freshly built products stripped 9,940."""
    assert 0 < stripped_letters("main-result") <= 4000


def test_vinwsd_strips_each_dual_min_rep_once():
    """Op-count gate: run_suite("vinwsd", 5) strips at most 4,000 letters (3,775).
    vinwsd-support reads Supp(u) from the smoothness report of the twisted dual
    with equal mu, which vinwsd built; stripping every u in W_d^0 again took
    4,842."""
    assert 0 < stripped_letters("vinwsd") <= 4000


def test_oracles_call_demazure_at_most_twice_per_pair_of_elements(monkeypatch):
    """Op-count gate: demazure-assoc reads associativity off one table of the
    |W|^2 products and length-vee takes one product per pair, so the oracles
    suite calls demazure at most 2 |W(A3)|^2 = 2 * 24^2 times."""
    real = weyl.demazure
    calls = []

    def counting(u, w):
        calls.append(None)
        return real(u, w)

    for module in (weyl, checks):
        monkeypatch.setattr(module, "demazure", counting)
    assert run_suite("oracles", 0).all_pass
    assert 0 < len(calls) <= 2 * 24 ** 2


def test_min_reps_are_validated_once_per_context_and_element(monkeypatch, fresh_contexts):
    """Op-count gate: a full sweep on fresh contexts validates no element of a
    grown coset set, as membership in the grown set is the validation, and
    each other element (fibre-det's, before involution-bij grows W^P) once per
    side, however many checks read its conormal data.  Validating every
    element once took 268 + 268 calls."""
    real = cominuscule._require_min_rep
    validated = []

    def counting(ctx, u, dual):
        validated.append((id(ctx), u, dual))
        assert u not in vars(ctx).get("dual_min_rep_masks" if dual else "min_rep_masks", ())
        return real(ctx, u, dual)

    monkeypatch.setattr(cominuscule, "_require_min_rep", counting)
    report = run_suite("all", 5)
    assert report.all_pass
    contexts = [fresh_contexts(*pair) for pair in checks.cominuscule_pairs(5)]
    assert fresh_contexts.cache_info().currsize == len(contexts)
    assert len(validated) == len(set(validated))
    fibre_det = sum(c.check_id == "fibre-det" for c in report.checks)
    assert Counter(dual for _, _, dual in validated) == {False: fibre_det, True: fibre_det}


def test_sweep_reads_each_dual_by_sign_once(monkeypatch, fresh_contexts):
    """Op-count gate: a rank-5 sweep on fresh contexts of every suite but nilp
    (which reads its root sets by sign on two fixed elements per admissible
    root) makes at most one inversions call per W^P element, shift_check's
    read of v, and one inversion_mask read per element it validates.  R(w),
    c5 and the full fibre read the grown masks; reading them by sign made
    three inversions calls per W^P element (804)."""
    calls = Counter()
    for name in ("inversions", "inversion_mask"):
        def counting(self, roots, _real=getattr(weyl.AffineWeylElement, name), _name=name):
            calls[_name] += 1
            return _real(self, roots)

        monkeypatch.setattr(weyl.AffineWeylElement, name, counting)
    validated = []
    real = cominuscule._require_min_rep

    def recording(ctx, u, dual):
        validated.append(u)
        return real(ctx, u, dual)

    monkeypatch.setattr(cominuscule, "_require_min_rep", recording)
    for suite in sorted(checks.SUITES):
        if suite != "nilp":
            assert run_suite(suite, 5).all_pass, suite
    contexts = [fresh_contexts(*pair) for pair in checks.cominuscule_pairs(5)]
    assert fresh_contexts.cache_info().currsize == len(contexts)
    assert 0 < calls["inversions"] <= sum(len(ctx.min_reps) for ctx in contexts)
    assert calls["inversion_mask"] == len(validated) > 0


def test_inverses_are_built_once_per_dual_element(monkeypatch, fresh_contexts):
    """Op-count gate: the order algorithms and c4 build no inverse, so a
    rank-5 sweep of every suite but the oracles on fresh contexts inverts at
    most each u in W_d^0 (once, for c3; main-result's length chain reuses the
    inverse built on the report's v) and one element per intersectw record."""
    real = weyl.AffineWeylElement.inverse
    built = []

    def counting(self):
        if self._inv is None:
            built.append(self)
        return real(self)

    monkeypatch.setattr(weyl.AffineWeylElement, "inverse", counting)
    records = Counter()
    for suite in sorted(checks.SUITES):
        if suite != "oracles":
            report = run_suite(suite, 5)
            assert report.all_pass
            records[suite] = len(report.checks)
    contexts = [fresh_contexts(*pair) for pair in checks.cominuscule_pairs(5)]
    assert fresh_contexts.cache_info().currsize == len(contexts)
    assert len(built) <= sum(len(ctx.dual_min_reps) for ctx in contexts) + records["intersectw"]


def legacy_cominuscule_pairs(max_rank, include_e7=False):
    """Oracle: the series and rank bounds spelled out by hand."""
    for n in range(1, max_rank + 1):
        for d in cominuscule.cominuscule_nodes("A", n):
            yield ("A", n, d)
    for series in ("B", "C"):
        for n in range(2, max_rank + 1):
            for d in cominuscule.cominuscule_nodes(series, n):
                yield (series, n, d)
    for n in range(4, max_rank + 1):
        for d in cominuscule.cominuscule_nodes("D", n):
            yield ("D", n, d)
    if max_rank >= 6:
        for d in cominuscule.cominuscule_nodes("E", 6):
            yield ("E", 6, d)
    if include_e7 and max_rank >= 7:
        for d in cominuscule.cominuscule_nodes("E", 7):
            yield ("E", 7, d)


@pytest.mark.parametrize("max_rank, include_e7, count", [
    (0, False, 0), (3, True, 10), (6, False, 42), (7, False, 54), (7, True, 55),
    (8, True, 68), (9, False, 81)])
def test_cominuscule_pairs_follow_the_rank_bounds(max_rank, include_e7, count):
    pairs = list(checks.cominuscule_pairs(max_rank, include_e7))
    assert pairs == list(legacy_cominuscule_pairs(max_rank, include_e7))
    assert len(pairs) == count


def test_longest_element_is_built_once_per_node_set():
    group = WeylGroup(build_diagram("D", 4, affine=True))
    assert longest_element(group, (1, 2, 3)) is longest_element(group, [3, 1, 2, 1])


GOLDEN_SWEEP = json.loads((REPO / "perfbench" / "golden" / "verify-sweep.json").read_text())


def _golden_rank(params):
    """The rank in ``X<r> d=...`` or ``n=<r> ...``."""
    head = params.split()[0]
    return int(head[2:] if head.startswith("n=") else head[1:])


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_report_matches_golden_records(suite):
    """The rank-5 report of each suite is the golden rank-7 report cut at rank 5
    (the oracle records carry no rank and are all kept)."""
    expected = [tuple(rec) for rec in GOLDEN_SWEEP["suites"][suite]
                if suite == "oracles" or _golden_rank(rec[1]) <= 5]
    report = run_suite(suite, 5)
    assert [(c.check_id, c.params, c.passed) for c in report.checks] == expected


def _run_with_asserts_stripped(*args):
    """``python -O *args`` with this checkout's ``src/`` on the path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": path})


def test_sweep_with_asserts_stripped_matches_golden_records():
    """Under python -O the explicit comparisons in the checks are the only
    guard: the rank-4 sweep must still pass and give the golden records."""
    run = _run_with_asserts_stripped("-m", "cograss", "verify", "--suite", "all",
                                     "--max-rank", "4", "--json")
    assert run.returncode == 0, run.stderr[-2000:]
    expected = sorted(tuple(rec) for suite, records in GOLDEN_SWEEP["suites"].items()
                      for rec in records if suite == "oracles" or _golden_rank(rec[1]) <= 4)
    records = [(c["id"], c["params"], c["pass"]) for c in json.loads(run.stdout)["checks"]]
    assert len(records) == 224
    assert records == expected


FIBRE_STUCK_AT_IDENTITY = """
import json
from cograss import checks, conormal
conormal.fibre_maximal = lambda ctx, w: frozenset({ctx.group.identity})
print(json.dumps([c.params for c in checks.run_suite("fibre-det", 6).failed]))
"""


def test_fibre_det_fails_on_a_wrong_fibre_with_asserts_stripped():
    """fibre-det reads the rank off the fibre label, so under python -O a
    fibre maximum stuck at the identity fails every stratum below the top rank."""
    run = _run_with_asserts_stripped("-c", FIBRE_STUCK_AT_IDENTITY)
    assert run.returncode == 0, run.stderr[-2000:]
    expected = [f"n={n} r={r}" for n in range(4, 7) for r in range(0, detvar.even_rank(n), 2)]
    assert json.loads(run.stdout) == expected


IOTA_FIXING_NODES_0_AND_D = """
import json
from cograss import checks, cominuscule

def unswapped(self, vec):
    out = [0] * len(vec)
    for node, value in enumerate(vec):
        if value:
            out[node if node in (0, self.cominuscule_node) else self.involution[node]] = value
    return tuple(out)

cominuscule.CominusculeContext.iota_root = unswapped
print(json.dumps([[c.check_id, c.params] for c in checks.run_suite("involution-bij", 5).failed]))
"""


def test_shift_identity_fails_on_a_wrong_iota_with_asserts_stripped():
    """involution-bij-roots compares iota(w_levi(alpha)) with delta - alpha
    explicitly, so under python -O an iota that leaves nodes 0 and d in place
    fails that record on every context (the alpha_0 coefficient stays 0)."""
    run = _run_with_asserts_stripped("-c", IOTA_FIXING_NODES_0_AND_D)
    assert run.returncode == 0, run.stderr[-2000:]
    contexts = sorted(f"{series}{rank} d={d}" for series, rank, d in checks.cominuscule_pairs(5))
    expected = [["involution-bij-roots", params] for params in contexts]
    assert json.loads(run.stdout) == expected


def test_library_holds_no_assert():
    """Gate: every invariant is an explicit check that python -O keeps, so the
    package holds no assert statement and never names AssertionError."""
    paths = sorted((REPO / "src" / "cograss").glob("*.py"))
    assert len(paths) >= 9
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


def _names_bound(node):
    """The names a statement imports or defines."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name for alias in node.names}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    return set()


def test_root_layer_reads_instead_of_filtering_or_solving():
    """Gate: the library solves a linear system only inside fundamental_coweight,
    keeps no reflect-and-filter or solve helper (they live in tests/oracles.py),
    and weyl imports no solver."""
    oracles = {"reflect", "is_positive_vec", "is_negative_vec", "coroot_coordinates"}
    solvers = {"solve_exact", "coroot_coordinates", "fundamental_coweight", "fractions"}
    solve_sites, oracle_sites, weyl_imports = [], [], set()
    for path in sorted((REPO / "src" / "cograss").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "solve_exact":
                owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                solve_sites.append((path.name, owner))
            oracle_sites += [f"{path.name}:{node.lineno} {name}"
                             for name in _names_bound(node) & oracles]
            if path.name == "weyl.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                weyl_imports |= {getattr(node, "module", None)} | _names_bound(node)
    assert solve_sites == [("rootsys.py", ["fundamental_coweight"])]
    assert oracle_sites == []
    assert weyl_imports and not weyl_imports & solvers


def test_only_weyl_reads_the_element_matrix():
    """Gate: the storage format of an element has one owner.  No module but weyl
    reads an element's mu, matrix, carried length or memos, or calls the class
    (which takes no arguments: elements are born from mu inside weyl); the
    involution goes through relabel, the split through semidirect_pair, whose
    finite part is an element."""
    private = {"mu", "cols", "_len", "_word", "_inv", "_hash"}
    sites = []
    for path in sorted((REPO / "src" / "cograss").glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                sites.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "AffineWeylElement":
                sites.append(f"{path.name}:{node.lineno} AffineWeylElement()")
    assert sites == []


def test_workload_paths_derive_no_matrix(monkeypatch, fresh_contexts):
    """Gate: an element is its mu vector, and the workload paths never derive the
    matrix of an action.  With that derivation made to raise, on fresh contexts:
    the predicate with the full fibre on every W^P element of every context to
    rank 5, fibre_rank(n, r) for n <= 7, and every verify suite at rank 5.  No
    slot of an element holds a matrix."""
    def refuse(self):
        raise AssertionError("a workload path derived an element's matrix")

    monkeypatch.setattr(weyl.AffineWeylElement, "cols", property(refuse))
    elements = []
    for pair in checks.cominuscule_pairs(5):
        ctx = fresh_contexts(*pair)
        for w in ctx.min_reps:
            report = conormal.closure_is_schubert(ctx, w, full_fibre=True)
            elements += [w, report.v, report.wv, *(report.fibre_all or ())]
    for n in range(4, 8):
        for r in range(0, detvar.even_rank(n) + 1, 2):
            detvar.fibre_rank(n, r)
    report = run_suite("all", 5)
    assert report.all_pass, [(c.check_id, c.params) for c in report.failed]
    slots = weyl.AffineWeylElement.__slots__
    assert set(slots) == {"group", "mu", "_word", "_inv", "_len"}
    for x in elements:
        for name in slots:
            value = getattr(x, name)
            assert not (isinstance(value, tuple) and any(isinstance(v, tuple) for v in value))


RELABEL_THAT_MOVES_NOTHING = """
import json
from cograss import checks, weyl
weyl.AffineWeylElement.relabel = lambda self, perm: self
print(json.dumps([[c.params, c.note] for c in checks.run_suite("iota-conj", 5).failed]))
"""


def test_iota_conjugation_fails_on_a_wrong_relabel_with_asserts_stripped():
    """iota-conj compares iota(s_i) with s_iota(i) explicitly, so under python -O
    a relabel that returns the element unmoved (iota swaps nodes 0 and d, so
    s_0 must move) fails that record on every context, with no exception raised."""
    run = _run_with_asserts_stripped("-c", RELABEL_THAT_MOVES_NOTHING)
    assert run.returncode == 0, run.stderr[-2000:]
    contexts = sorted(f"{series}{rank} d={d}" for series, rank, d in checks.cominuscule_pairs(5))
    assert len(contexts) == 29
    assert json.loads(run.stdout) == [[params, ""] for params in contexts]


PLAIN_PRODUCT_CHAIN = """
import json
from cograss import checks
checks.demazure = lambda u, w: u * w
print(json.dumps([[c.params, c.note] for c in checks.run_suite("main-result", 5).failed]))
"""


def test_main_result_checks_the_length_chain_with_asserts_stripped():
    """main-result compares l(w * v^-1 * v * w_levi) with dim G/B explicitly, so
    under python -O a chain built from plain products (w w_levi, too short at
    w = e) fails that record on every context, with no exception raised."""
    run = _run_with_asserts_stripped("-c", PLAIN_PRODUCT_CHAIN)
    assert run.returncode == 0, run.stderr[-2000:]
    contexts = sorted(f"{series}{rank} d={d}" for series, rank, d in checks.cominuscule_pairs(5))
    assert json.loads(run.stdout) == [[params, ""] for params in contexts]


SPLIT_WITHOUT_THE_LAMBDA_0_TERM = """
import inspect, json, textwrap
from cograss import checks, weyl
source = textwrap.dedent(inspect.getsource(weyl.AffineWeylElement.semidirect_pair))
mutated = source.replace("(i == 0) + ", "")
if mutated == source:
    raise SystemExit("the [i = 0] term of the fold is not in semidirect_pair")
scope = {}
exec(mutated, vars(weyl), scope)
weyl.AffineWeylElement.semidirect_pair = scope["semidirect_pair"]
print(json.dumps([[c.params, c.note] for c in checks.run_suite("result-q", 5).failed]))
"""


def test_translation_identity_reads_q_back_with_asserts_stripped():
    """result-q compares tau's semidirect split with (1, q) explicitly, so under
    python -O a fold that drops the [i = 0] term (and reads q = 0) fails that
    record on every context, with no exception raised."""
    run = _run_with_asserts_stripped("-c", SPLIT_WITHOUT_THE_LAMBDA_0_TERM)
    assert run.returncode == 0, run.stderr[-2000:]
    contexts = sorted(f"{series}{rank} d={d}" for series, rank, d in checks.cominuscule_pairs(5))
    assert len(contexts) == 29
    assert json.loads(run.stdout) == [[params, ""] for params in contexts]


CARRIED_LENGTH_OFF_BY_ONE = """
from cograss import cli, weyl
real = weyl.WeylGroup.from_word

def off_by_one(self, letters):
    x = real(self, letters)
    if x is not self.identity:
        x._len += 1
    return x

weyl.WeylGroup.from_word = off_by_one
raise SystemExit(cli.main(["conormal", "--type", "A", "--rank", "3", "--comin", "2",
                           "--w", "2", "--json"]))
"""

S_N_WITHOUT_SWAP = """
from cograss import cli, detvar
real = detvar._mul_simple_right

def unswapped(values, i):
    n = len(values)
    if i < n:
        return real(values, i)
    values[n - 2], values[n - 1] = 2 * n + 1 - values[n - 2], 2 * n + 1 - values[n - 1]

detvar._mul_simple_right = unswapped
raise SystemExit(cli.main(["detvar", "--n", "6", "--r", "2", "--json"]))
"""

FLAT_SYMMETRIZER = """
from cograss import cli, rootsys
rootsys._minimal_symmetrizer = lambda cartan: (1,) * len(cartan)
raise SystemExit(cli.main(["roots", "--type", "B", "--rank", "3", "--json"]))
"""


@pytest.mark.parametrize("script, message", [
    (CARRIED_LENGTH_OFF_BY_ONE, "carried length is wrong"),
    (S_N_WITHOUT_SWAP, "closed one-line form of the chain element fails"),
    (FLAT_SYMMETRIZER, "symmetrizer failure"),
], ids=["weyl-reduced-word", "detvar-chain-perm", "rootsys-build-diagram"])
def test_broken_invariant_exits_1_with_asserts_stripped(script, message):
    """One sabotaged invariant per layer: under python -O the library still
    raises InvariantError, which the CLI turns into exit 1 with the message
    on stderr and nothing on stdout."""
    run = _run_with_asserts_stripped("-c", script)
    assert (run.returncode, run.stdout) == (1, ""), run.stderr[-2000:]
    assert run.stderr == f"invariant violated: {message}\n"


MUTATED_COSET_MASK = """
import sys
from cograss import cli, cominuscule
real = cominuscule.coset_masks
side = sys.argv[1]

def mutated(group, span, quotient):
    table = real(group, span, quotient)
    if (group.diagram.series, group.diagram.rank, tuple(quotient)) == ("A", 3, (1, 3)):
        top = max(table, key=lambda u: table[u][0])  # W^P's top: every root inverted
        inv, supp = table[top]
        table[top] = (inv & (inv - 1), supp)  # its lowest bit dropped
    if (group.diagram.series, group.diagram.rank, tuple(span)) == ("A", 3, (0, 1, 3)):
        inv, supp = table[group.identity]
        table[group.identity] = (inv ^ 1, supp)  # W_d^0's identity: bit 0 flipped
    return table

cominuscule.coset_masks = mutated
raise SystemExit(cli.main(["verify", "--suite", side, "--max-rank", "4", "--json"]))
"""


@pytest.mark.parametrize("suite", ["involution-bij", "sb-equiv"])
def test_a_wrong_coset_mask_fails_its_check_with_asserts_stripped(suite):
    """The grown masks are checked by the sweep.  Under python -O, with one bit
    of one A3 d=2 mask wrong, verify exits 1 and only one record fails: a bit
    dropped from W^P's top element adds a root to R(w), which the delta-shift
    no longer carries onto v's sign-read inversions (involution-bij); a bit
    flipped on W_d^0's identity breaks c5 against c3, c4 and c6 (sb-equiv)."""
    run = _run_with_asserts_stripped("-c", MUTATED_COSET_MASK, suite)
    assert run.returncode == 1, run.stderr[-2000:]
    failed = [[c["id"], c["params"]] for c in json.loads(run.stdout)["checks"] if not c["pass"]]
    assert failed == [[suite, "A3 d=2"]]


DUAL_TABLE_MISSING_ONE = """
import json
from cograss import checks, cominuscule
real = cominuscule.coset_masks

def short(group, span, quotient):
    table = real(group, span, quotient)
    if (group.diagram.series, group.diagram.rank, tuple(span)) == ("A", 3, (0, 1, 3)):
        del table[max(table, key=lambda u: table[u][0])]  # W_d^0's top element
    return table

cominuscule.coset_masks = short
print(json.dumps([[c.check_id, c.params, c.note] for c in checks.run_suite("vinwsd", 5).failed]))
"""


def test_a_dual_table_missing_an_element_fails_vinwsd_with_asserts_stripped():
    """Membership in W_d^0's table is no check of its own: a twisted dual missing
    from the table is validated and read by sign like any other element.  Under
    python -O, with W_d^0's top dropped from the A3 d=2 table, the vinwsd record
    of that context fails on the set comparison, with no exception raised, and
    vinwsd-support still passes."""
    run = _run_with_asserts_stripped("-c", DUAL_TABLE_MISSING_ONE)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout) == [["vinwsd", "A3 d=2", ""]]
