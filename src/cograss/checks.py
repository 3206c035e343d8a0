"""Named verification suites sweeping every identity at desk scale.

``SUITES`` is a table: each suite name maps to its ``(check id, scope,
check function)`` entries.  A scope enumerates the instances admissible
under a rank cap, each as a params string and a thunk that builds the
check's arguments: one per cominuscule context (the check gets the
context), one per type-D rank n >= 4 (gets n), one per (n, even r) (gets
n, r), or a fixed oracle instance.  One runner drives the table and puts
every instance through one guard, which records one exact pass/fail
entry.  The guard builds the arguments inside its ``try``, so a raised
exception, in a context build as much as in a check, is a failed check
with the message attached, never a crash and never a pass; its clock
runs around the check call only, so a cached context's construction is
charged to no check.  ``detvar.check_relations`` is the one check that
yields many records.  Aggregation is sorted by check id and parameters,
so reports are byte-stable for fixed inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from typing import Callable, Iterator, Optional

from . import conormal, detvar
from .cominuscule import CominusculeContext, build_context, cominuscule_nodes
from .rootsys import _E_RANKS, _RANK_BOUNDS, build_diagram, highest_root, inner_form, is_connected
from .weyl import (
    AffineWeylElement,
    WeylGroup,
    bruhat_leq,
    bruhat_interval_check,
    demazure,
    min_rep,
    positive_roots_of,
    weyl_elements,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: str
    passed: bool
    note: str = ""
    elapsed: Optional[float] = None


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    max_rank: int
    include_e7: bool
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def cominuscule_pairs(max_rank: int, include_e7: bool = False,
                      ) -> Iterator[tuple[str, int, int]]:
    """All cominuscule (series, rank, node) triples up to a rank cap (E7 opt-in)."""
    ranks = [(series, range(low, max_rank + 1)) for series, low in _RANK_BOUNDS.items()]
    ranks.append(("E", [n for n in _E_RANKS if n <= max_rank and (include_e7 or n != 7)]))
    for series, span in ranks:
        for n in span:
            for d in cominuscule_nodes(series, n):
                yield (series, n, d)


# -- per-context checks ----------------------------------------------------------


def check_wsontheta(ctx: CominusculeContext) -> bool:
    """w_levi(alpha_d) = theta_0 = delta - alpha_0 and w_levi(alpha_0) = theta_d =
    delta - alpha_d, the highest roots of the finite diagram and of the affine Levi,
    each found by search too."""
    theta0, thetad = ctx.highest_root_finite, ctx.highest_root_affine_levi
    return (theta0 == highest_root(ctx.affine_diagram, ctx.finite_nodes)
            and thetad == highest_root(ctx.affine_diagram, ctx.affine_levi_nodes)
            and ctx.w_levi.act(ctx.simple_root(ctx.cominuscule_node)) == theta0
            and ctx.w_levi.act(ctx.simple_root(0)) == thetad)


def check_form_invariance(ctx: CominusculeContext) -> bool:
    """(iota(a)|iota(b)) = (a|b) on every pair of simple roots; a = b gives d_iota(i) = d_i.
    iota(delta) = delta is required by every context build, so it is not compared."""
    affine = ctx.affine_diagram
    for i in affine.nodes:
        for j in affine.nodes:
            a, b = affine.simple_root(i), affine.simple_root(j)
            if inner_form(affine, ctx.iota_root(a), ctx.iota_root(b)) != \
                    inner_form(affine, a, b):
                return False
    return True


def check_iota_conjugation(ctx: CominusculeContext) -> bool:
    """iota(s_i) = s_iota(i) on every node, which pins the conjugation iota_elem on W."""
    group = ctx.group
    return all(ctx.iota_elem(group.simple[node]) == group.simple[ctx.involution[node]]
               for node in ctx.affine_diagram.nodes)


def check_translation_identity(ctx: CominusculeContext) -> bool:
    """tau_q equals the product of minimal representatives and of longest elements, has
    length 2 dim G/P and splits back as (1, q), with q read off tau^-1(Lambda_0), not
    off 2 rho_P.  tau(delta) = delta holds by construction, so it is not compared."""
    tau = ctx.translation_element
    via_words = (min_rep(ctx.w0, ctx.levi_nodes)
                 * min_rep(ctx.w_affine_levi, ctx.levi_nodes))
    via_longest = ctx.w0 * ctx.w_levi * ctx.w_affine_levi * ctx.w_levi
    finite, q = tau.semidirect_pair()
    return (tau == via_words == via_longest
            and ctx.group.embed_finite_matrix(finite) == ctx.group.identity
            and q == ctx.translation_coroot
            and tau.length() == 2 * ctx.dim_quotient)


def check_min_rep_sets(ctx: CominusculeContext) -> bool:
    """w -> v(w) is a bijection W^P -> W_d^0, with l(wv) = l(w) + l(v) = dim G/P.
    The support in v's smoothness report, read off W_d^0's table, is the set of
    letters of v's reduced word, which c3 has stripped."""
    duals = set()
    for w in ctx.min_reps:
        report = conormal.closure_is_schubert(ctx, w)  # raises unless v lies in W_d^0
        if not report.wv.length() == w.length() + report.v.length() == ctx.dim_quotient:
            return False
        if set(report.smooth.support) != report.v.support():
            return False
        duals.add(report.v)
    return len(duals) == len(ctx.min_reps) and duals == ctx.dual_min_reps


def check_connected_support(ctx: CominusculeContext) -> bool:
    """Every u in W_d^0 but the identity has connected support.  Supp(u) is read
    from u's smoothness report, which ``vinwsd`` has already built for the
    twisted dual of equal mu, so u's word is not stripped again."""
    for u in ctx.dual_min_reps:
        if not u.is_identity() and not is_connected(ctx.affine_diagram,
                                                    conormal.is_smooth(ctx, u).support):
            return False
    return True


def check_smoothness_criteria(ctx: CominusculeContext) -> bool:
    for u in ctx.dual_min_reps:
        report = conormal.is_smooth(ctx, u)
        if not (report.c3 == report.c4 == report.c5 == report.c6):
            return False
    return True


def check_shift_bijection(ctx: CominusculeContext) -> bool:
    """The delta-shift carries R(w) onto the affine-Levi inversions of v, and |R(w)| = l(v)."""
    for w in ctx.min_reps:
        report = conormal.closure_is_schubert(ctx, w)
        if not (conormal.shift_check(ctx, w) and report.root_bits.bit_count() == report.v.length()):
            return False
    return True


def check_main_predicate(ctx: CominusculeContext) -> bool:
    """Schubert-closure predicate vs criterion (6), with the length chain:
    l(w * v^-1 * v * w_levi) >= dim G/B, with equality iff the closure is Schubert.
    The chain is grouped from the left, so each fold reads the held word of
    v^-1, v or w_levi (* is associative).  iota(v) w_levi = w0 w holds by the
    construction of v, so it is not compared."""
    dim_flag = len(positive_roots_of(ctx.group, ctx.finite_nodes))
    for w in ctx.min_reps:
        report = conormal.closure_is_schubert(ctx, w)
        if report.closure_is_schubert != report.smooth.c6:
            return False
        v = report.v
        chain = demazure(demazure(demazure(w, v.inverse()), v), ctx.w_levi).length()
        if chain < dim_flag or (chain == dim_flag) != report.closure_is_schubert:
            return False
    return True


def check_nilpotent_sets(ctx: CominusculeContext) -> bool:
    if not conormal.pairwise_sums_not_roots(ctx):
        return False
    gammas = [ctx.simple_root(i) for i in ctx.finite_nodes]
    gammas += [tuple(-x for x in ctx.simple_root(i)) for i in ctx.levi_nodes]
    return all(conormal.nilpotent_set_check(ctx, g) for g in gammas)


def check_shift_root_bijection(ctx: CominusculeContext) -> bool:
    """alpha -> alpha - delta maps the cotangent roots, each with alpha_d coefficient 1,
    onto the shifted set, and iota(w_levi(alpha)) = delta - alpha on each: with
    v = iota(w0 w w_levi) that is the pointwise shift identity
    v(delta - alpha) = iota(w0(w(alpha))) for every w."""
    delta = ctx.delta()
    shift = {alpha: tuple(a - m for a, m in zip(alpha, delta)) for alpha in ctx.cotangent_roots}
    pointwise = all(ctx.iota_root(ctx.w_levi.act(alpha)) == tuple(-x for x in beta)
                    for alpha, beta in shift.items())
    d = ctx.cominuscule_node
    return (pointwise and set(shift.values()) == ctx.shifted_cotangent_roots
            and all(alpha[d] == 1 for alpha in ctx.cotangent_roots))


# -- oracle-level checks -----------------------------------------------------------


def _sorted_elements(series: str, rank: int) -> list[AffineWeylElement]:
    """Every element of a finite Weyl group, by length and then reduced word."""
    group = WeylGroup(build_diagram(series, rank))
    return sorted(weyl_elements(group, group.diagram.nodes),
                  key=lambda w: (w.length(), w.reduced_word()))


def check_bruhat_oracle(series: str, rank: int) -> bool:
    elements = _sorted_elements(series, rank)
    for u in elements:
        for w in elements:
            if bruhat_leq(u, w) != bruhat_interval_check(u, w):
                return False
    return True


def check_demazure_associativity(series: str, rank: int) -> bool:
    """(a * b) * c = a * (b * c), read off one table of the |W|^2 products,
    indexed by position so that the |W|^3 comparisons are of integers."""
    elements = _sorted_elements(series, rank)
    position = {x: k for k, x in enumerate(elements)}
    table = [[position[demazure(a, b)] for b in elements] for a in elements]
    for row in table:
        for b, ab in enumerate(row):
            after = table[ab]
            for c, bc in enumerate(table[b]):
                if after[c] != row[bc]:
                    return False
    return True


def check_length_vee(series: str, rank: int) -> bool:
    """l(vw) = l(v) + l(w) iff the Demazure product is the plain product."""
    elements = _sorted_elements(series, rank)
    for v in elements:
        for w in elements:
            additive = (v * w).length() == v.length() + w.length()
            if additive != (demazure(v, w) == v * w):
                return False
    return True


def type_d_elements(n: int) -> set[detvar.SignedPermutation]:
    """Every element of the finite D_n, by a breadth-first search over the
    generator images in S_{2n} (test-scale ranks only)."""
    gens = [detvar.generator_perm(n, i) for i in range(1, n + 1)]
    seen = {detvar.identity_perm(n)}
    frontier = [detvar.identity_perm(n)]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return seen


def check_type_d_length_agreement(n: int) -> bool:
    """Matrix-model length equals the signed-permutation inversion statistic."""
    group = WeylGroup(build_diagram("D", n))
    seen = type_d_elements(n)
    if len(seen) != 2 ** (n - 1) * factorial(n):
        return False
    for p in seen:
        word = detvar.perm_to_word(p)
        if detvar.word_to_perm(n, word) != p:
            return False
        if group.from_word(word).length() != p.length() or len(word) != p.length():
            return False
    return True


def check_braid_embedding(n: int) -> bool:
    """The S_{2n} generator images satisfy the Coxeter presentation of D_n:
    (g_i g_j)^m = e with m = 1, 2, 3 for Cartan entry 2, 0, -1."""
    diagram = build_diagram("D", n)
    gens = {i: detvar.generator_perm(n, i) for i in diagram.nodes}
    for i, j in combinations_with_replacement(diagram.nodes, 2):
        power = detvar.identity_perm(n)
        for _ in range({2: 1, 0: 2, -1: 3}[diagram.entry(i, j)]):
            power = power * gens[i] * gens[j]
        if not power.is_identity():
            return False
    return True


def check_detvar_factorizations(n: int) -> bool:
    return all(detvar.dual_stratum_holds(n, r)
               for r in range(0, detvar.even_rank(n) + 1, 2))


def check_fibre_rank(n: int, r: int) -> bool:
    """The conormal fibre over 0 of the rank-<= r skew locus has rank nbar - r."""
    return detvar.fibre_rank(n, r)[0] == detvar.even_rank(n) - r


# -- suite registry -----------------------------------------------------------------

Instances = Iterator[tuple[str, Callable[[], tuple]]]  # (params, arguments thunk)
Scope = Callable[[int, bool], Instances]                 # (max_rank, include_e7) -> instances


def _contexts(max_rank: int, include_e7: bool) -> Instances:
    for series, rank, d in cominuscule_pairs(max_rank, include_e7):
        yield (f"{series}{rank} d={d}",
               lambda series=series, rank=rank, d=d: (build_context(series, rank, d),))


def _type_d_ranks(max_rank: int, include_e7: bool) -> Instances:
    for n in range(4, max_rank + 1):
        yield f"n={n}", lambda n=n: (n,)


def _type_d_strata(max_rank: int, include_e7: bool) -> Instances:
    for n in range(4, max_rank + 1):
        for r in range(0, detvar.even_rank(n) + 1, 2):
            yield f"n={n} r={r}", lambda n=n, r=r: (n, r)


def _smallest_type_d_rank(max_rank: int, include_e7: bool) -> Instances:
    return _type_d_ranks(min(max_rank, 4), include_e7)


def _fixed(params: str, *args) -> Scope:
    """One oracle instance, whatever the rank cap."""
    def scope(max_rank: int, include_e7: bool) -> Instances:
        yield params, lambda: args
    return scope


# The detvar calls sit in lambdas so that they are looked up when they run:
# a patched or traced module attribute is then the one that runs.
SUITES: dict[str, tuple[tuple[str, Scope, Callable], ...]] = {
    "wsontheta": (("wsontheta", _contexts, check_wsontheta),),
    "form-inv": (("form-inv", _contexts, check_form_invariance),),
    "iota-conj": (("iota-conj", _contexts, check_iota_conjugation),),
    "result-q": (("result-q", _contexts, check_translation_identity),),
    "vinwsd": (("vinwsd", _contexts, check_min_rep_sets),
               ("vinwsd-support", _contexts, check_connected_support)),
    "sb-equiv": (("sb-equiv", _contexts, check_smoothness_criteria),),
    "involution-bij": (("involution-bij-roots", _contexts, check_shift_root_bijection),
                       ("involution-bij", _contexts, check_shift_bijection)),
    "main-result": (("main-result", _contexts, check_main_predicate),),
    "nilp": (("nilp", _contexts, check_nilpotent_sets),),
    "detvar-relations": (
        ("detvar-braid", _type_d_ranks, check_braid_embedding),
        ("detvar-length", _smallest_type_d_rank, check_type_d_length_agreement),
        ("detvar-relations", _type_d_ranks, lambda n: detvar.check_relations(n)),
        ("detvar-factor", _type_d_ranks, check_detvar_factorizations)),
    "intersectw": (("intersectw", _type_d_strata, lambda n, r: detvar.intersect_identity(n, r)),),
    "fibre-det": (("fibre-det", _type_d_strata, check_fibre_rank),),
    "oracles": (("bruhat-oracle", _fixed("A3", "A", 3), check_bruhat_oracle),
                ("bruhat-oracle", _fixed("B2", "B", 2), check_bruhat_oracle),
                ("demazure-assoc", _fixed("A3", "A", 3), check_demazure_associativity),
                ("length-vee", _fixed("A3", "A", 3), check_length_vee),
                ("typed-length", _fixed("D4", 4), check_type_d_length_agreement)),
}


def _guard(check_id: str, params: str, check: Callable,
           make_args: Callable[[], tuple]) -> list[CheckResult]:
    start = None
    try:
        args = make_args()
        start = time.perf_counter()
        outcome = check(*args)
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a raised invariant is a failed check, not a crash
        elapsed = None if start is None else time.perf_counter() - start
        return [CheckResult(check_id, params, False, f"{type(exc).__name__}: {exc}", elapsed)]
    if isinstance(outcome, detvar.RelationReport):  # one call, shared over its records
        share = elapsed / max(len(outcome.checks), 1)
        return [CheckResult(f"detvar-{cid}", p, ok, "", share) for cid, p, ok in outcome.checks]
    return [CheckResult(check_id, params, bool(outcome), "", elapsed)]


def run_suite(suite: str, max_rank: int = 5, include_e7: bool = False) -> VerificationReport:
    """Run one named suite (or 'all') and aggregate a sorted report.

    Raises ValueError for an unknown suite, and when the rank cap leaves
    the requested sweep without a single instance.
    """
    if suite == "all":
        names = sorted(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}: expected one of {', '.join(sorted(SUITES))} or all")
    checks: list[CheckResult] = []
    for name in names:
        for check_id, scope, check in SUITES[name]:
            for params, make_args in scope(max_rank, include_e7):
                checks.extend(_guard(check_id, params, check, make_args))
    if not checks:
        raise ValueError(f"suite {suite!r} has no instances at max_rank={max_rank}")
    checks.sort(key=lambda c: (c.check_id, c.params))
    return VerificationReport(suite=suite, max_rank=max_rank,
                              include_e7=include_e7, checks=tuple(checks))
