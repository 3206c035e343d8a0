"""Conormal root sets, smoothness criteria, closure predicate, fibres."""

import ast
import inspect
import itertools
import random
from collections import Counter

import pytest

from cograss import cominuscule, conormal, rootsys, weyl
from cograss.checks import (
    check_connected_support,
    check_main_predicate,
    check_min_rep_sets,
    check_nilpotent_sets,
    check_shift_bijection,
    check_smoothness_criteria,
    cominuscule_pairs,
)
from cograss.cominuscule import build_context
from cograss.weyl import (
    AffineWeylElement,
    bruhat_leq,
    enumerate_min_reps,
    longest_element,
    min_rep,
    positive_roots_of,
)

from oracles import (
    act_inversions,
    decode,
    dot_product_min_reps,
    grown_c5,
    is_positive_vec,
)

RANK4_PAIRS = list(cominuscule_pairs(4))


def _oracle_fibre(ctx, wv):
    """Slow oracle: enumerate the affine Levi's W^finite, filter below min_rep(wv)."""
    bound = min_rep(wv, ctx.finite_nodes)
    return frozenset(u for u in enumerate_min_reps(ctx.group, ctx.affine_levi_nodes,
                                                   ctx.finite_nodes)
                     if bruhat_leq(u, bound))


def _oracle_maxima(elements):
    return frozenset(u for u in elements
                     if not any(x != u and bruhat_leq(u, x) for x in elements))


@pytest.fixture(scope="module")
def a3ctx():
    return build_context("A", 3, 2)


def test_conormal_roots_identity(a3ctx):
    above = {alpha for alpha in positive_roots_of(a3ctx.group, a3ctx.finite_nodes)
             if alpha[a3ctx.cominuscule_node] >= 1}
    assert conormal.conormal_roots(a3ctx, a3ctx.group.identity) == above
    assert len(above) == a3ctx.dim_quotient


def test_conormal_roots_simple_reflection(a3ctx):
    picked = conormal.conormal_roots(a3ctx, a3ctx.group.simple[2])
    assert picked == {(0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1)}


def test_conormal_roots_top_element_empty(a3ctx):
    w_top = min_rep(a3ctx.w0, a3ctx.levi_nodes)
    # oracle: the top representative sends every root above the marked node negative
    for alpha in positive_roots_of(a3ctx.group, a3ctx.finite_nodes):
        if alpha[a3ctx.cominuscule_node] >= 1:
            assert not is_positive_vec(w_top.act(alpha))
    assert conormal.conormal_roots(a3ctx, w_top) == frozenset()


def test_conormal_roots_rejects_non_minimal(a3ctx):
    bad = a3ctx.group.simple[1]  # has a descent at the Levi node 1
    with pytest.raises(ValueError, match="descent at node 1"):
        conormal.conormal_roots(a3ctx, bad)
    with pytest.raises(ValueError, match="finite"):
        conormal.conormal_roots(a3ctx, a3ctx.group.simple[0])


def test_shift_check_examples(a3ctx):
    e = a3ctx.group.identity
    assert conormal.shift_check(a3ctx, e)
    v = conormal.twisted_dual(a3ctx, e)
    assert v == min_rep(a3ctx.w_affine_levi, a3ctx.levi_nodes)
    assert v.length() == a3ctx.dim_quotient
    w_top = min_rep(a3ctx.w0, a3ctx.levi_nodes)
    assert conormal.twisted_dual(a3ctx, w_top) == a3ctx.group.identity
    assert conormal.shift_check(a3ctx, w_top)


def test_shift_check_exhaustive_a3(a3ctx):
    reps = enumerate_min_reps(a3ctx.group, a3ctx.finite_nodes, a3ctx.levi_nodes)
    assert len(reps) == 6
    assert all(conormal.shift_check(a3ctx, w) for w in reps)


def test_dual_product_is_built_once_per_element(monkeypatch):
    """Op-count gate: twisted_dual, conormal_roots, shift_check and
    closure_is_schubert, with and without the fibre, build w * v once per w
    between them.  The context is fresh, so no earlier call has warmed a memo."""
    ctx = cominuscule.build_context.__wrapped__("A", 3, 2)
    duals = {w: ctx.iota_elem(ctx.w0 * w * ctx.w_levi) for w in ctx.min_reps}
    real_mul = AffineWeylElement.__mul__
    products = Counter()

    def counting_mul(self, other):
        products[self, other] += 1
        return real_mul(self, other)

    monkeypatch.setattr(AffineWeylElement, "__mul__", counting_mul)
    for w, v in duals.items():
        assert conormal.twisted_dual(ctx, w) == v
        roots = conormal.conormal_roots(ctx, w)
        assert conormal.shift_check(ctx, w)
        reports = [conormal.closure_is_schubert(ctx, w, **fibre) for fibre in
                   ({}, {"with_fibre": True}, {"full_fibre": True})]
        assert all(r.v == v and r.roots == roots and r.wv == real_mul(w, v)
                   for r in reports)
    assert [products[w, v] for w, v in duals.items()] == [1] * 6


def test_is_smooth_identity_and_top(a3ctx):
    report = conormal.is_smooth(a3ctx, a3ctx.group.identity)
    assert report.smooth and report.support == ()
    top = min_rep(a3ctx.w_affine_levi, a3ctx.levi_nodes)
    report = conormal.is_smooth(a3ctx, top)
    assert report.smooth
    assert set(report.support) == set(a3ctx.affine_levi_nodes)


def test_is_smooth_rejects_outsiders(a3ctx):
    with pytest.raises(ValueError, match="affine Levi"):
        conormal.is_smooth(a3ctx, a3ctx.group.simple[2])
    with pytest.raises(ValueError, match="descent"):
        conormal.is_smooth(a3ctx, a3ctx.group.simple[1])


def test_smoothness_criteria_agree_d4():
    ctx = build_context("D", 4, 4)
    reps = enumerate_min_reps(ctx.group, ctx.affine_levi_nodes, ctx.finite_nodes)
    assert len(reps) == 8
    for u in reps:
        report = conormal.is_smooth(ctx, u)
        assert report.c3 == report.c4 == report.c5 == report.c6


def test_closure_examples(a3ctx):
    assert conormal.closure_is_schubert(a3ctx, a3ctx.group.identity).closure_is_schubert
    w_top = min_rep(a3ctx.w0, a3ctx.levi_nodes)
    assert conormal.closure_is_schubert(a3ctx, w_top).closure_is_schubert
    # non-example: the dual of s_2 is not a parabolic longest-element form
    assert not conormal.closure_is_schubert(a3ctx, a3ctx.group.simple[2]).closure_is_schubert


def test_closure_d4_rank_stratum():
    from cograss.detvar import element_of, skew_rank_element
    ctx = build_context("D", 4, 4)
    w = element_of(ctx, skew_rank_element(4, 2))
    assert conormal.closure_is_schubert(ctx, w).closure_is_schubert


def test_fibre_examples(a3ctx):
    w_top = min_rep(a3ctx.w0, a3ctx.levi_nodes)
    assert conormal.fibre_maximal(a3ctx, w_top) == frozenset({a3ctx.group.identity})
    top_levi = min_rep(a3ctx.w_affine_levi, a3ctx.levi_nodes)
    assert conormal.fibre_maximal(a3ctx, a3ctx.group.identity) == frozenset({top_levi})
    # direct enumeration oracle: the full fibre of the identity is all of W_d^0
    report = conormal.closure_is_schubert(a3ctx, a3ctx.group.identity,
                                          with_fibre=True, full_fibre=True)
    assert report.fibre_all == enumerate_min_reps(
        a3ctx.group, a3ctx.affine_levi_nodes, a3ctx.finite_nodes)


def test_full_fibre_implies_fibre(a3ctx):
    e = a3ctx.group.identity
    both = conormal.closure_is_schubert(a3ctx, e, with_fibre=True, full_fibre=True)
    alone = conormal.closure_is_schubert(a3ctx, e, full_fibre=True)
    assert alone.fibre_max == both.fibre_max == conormal.fibre_maximal(a3ctx, e)
    assert alone.fibre_all == both.fibre_all and len(alone.fibre_all) == 6
    refused = conormal.closure_is_schubert(a3ctx, a3ctx.group.simple[2], full_fibre=True)
    assert refused.fibre_max is None and refused.fibre_all is None


def test_fibre_refused_when_not_schubert(a3ctx):
    with pytest.raises(ValueError, match="not a Schubert variety"):
        conormal.fibre_maximal(a3ctx, a3ctx.group.simple[2])


def test_fibre_d4_rank_stratum_is_involuted_corank():
    from cograss.detvar import element_of, skew_rank_element
    ctx = build_context("D", 4, 4)
    w = element_of(ctx, skew_rank_element(4, 2))
    expected = ctx.iota_elem(element_of(ctx, skew_rank_element(4, 2)))
    assert conormal.fibre_maximal(ctx, w) == frozenset({expected})


def test_nilpotent_set_examples(a3ctx):
    d = a3ctx.cominuscule_node
    assert conormal.nilpotent_set_check(a3ctx, a3ctx.simple_root(d))
    for j in a3ctx.levi_nodes:
        assert conormal.nilpotent_set_check(
            a3ctx, tuple(-x for x in a3ctx.simple_root(j)))
        assert conormal.nilpotent_set_check(a3ctx, a3ctx.simple_root(j))
    with pytest.raises(ValueError, match="gamma"):
        conormal.nilpotent_set_check(a3ctx, a3ctx.simple_root(0))
    with pytest.raises(ValueError, match="gamma"):
        conormal.nilpotent_set_check(a3ctx, tuple(-x for x in a3ctx.simple_root(d)))


def _nilpotent_oracle(ctx, psi, gamma):
    """All-pairs closure of psi + {gamma} under root addition, then the signs."""
    group, d = ctx.group, ctx.cominuscule_node
    node = next(i for i in ctx.finite_nodes + ctx.levi_nodes
                if gamma in (ctx.simple_root(i), tuple(-x for x in ctx.simple_root(i))))
    if gamma != ctx.simple_root(node):
        u_plus, u_minus = ctx.w_affine_levi, group.identity
    elif node == d:
        u_plus, u_minus = ctx.w_affine_levi, group.simple[d]
    else:
        u_plus, u_minus = ctx.w_affine_levi * group.simple[node], group.simple[node]
    members = set(psi) | {gamma}
    for x in members:
        for y in members:
            total = tuple(a + b for a, b in zip(x, y))
            if rootsys.is_root(ctx.affine_diagram, total) and total not in members:
                return False
    return all(is_positive_vec(u_plus.act(v)) and not is_positive_vec(u_minus.act(v))
               for v in members)


@pytest.mark.parametrize("pair", RANK4_PAIRS, ids=lambda p: "%s%d d=%d" % p)
def test_nilpotent_set_check_matches_all_pairs_oracle(pair):
    """The per-context psi + psi sums give the all-pairs answer, also on sets
    other than psi: random root sets, and sets where a psi + psi sum is gamma.
    The context is fresh, so overriding its psi touches no shared context."""
    ctx = cominuscule.build_context.__wrapped__(*pair)
    real_psi = ctx.shifted_cotangent_roots
    gammas = [ctx.simple_root(i) for i in ctx.finite_nodes]
    gammas += [tuple(-x for x in ctx.simple_root(i)) for i in ctx.levi_nodes]
    pool = sorted(set(real_psi) | set(gammas)
                  | set(positive_roots_of(ctx.group, ctx.finite_nodes)))
    rng = random.Random(repr(pair))
    candidates = [real_psi]
    candidates += [rng.sample(pool, rng.randrange(1, min(7, len(pool)))) for _ in range(30)]
    for j in ctx.finite_nodes:
        for k in ctx.finite_nodes:
            alpha_jk = tuple(a + b for a, b in zip(ctx.simple_root(j), ctx.simple_root(k)))
            if j != k and rootsys.is_root(ctx.affine_diagram, alpha_jk):
                candidates.append([*real_psi, alpha_jk, tuple(-x for x in ctx.simple_root(k))])
    outcomes = set()
    for psi in candidates:
        vars(ctx)["shifted_cotangent_roots"] = psi
        vars(ctx).pop("shifted_root_sums", None)
        sums = {tuple(a + b for a, b in zip(x, y)) for x in psi for y in psi}
        assert conormal.pairwise_sums_not_roots(ctx) == \
            (not any(rootsys.is_root(ctx.affine_diagram, s) for s in sums))
        for gamma in gammas:
            expected = _nilpotent_oracle(ctx, psi, gamma)
            assert conormal.nilpotent_set_check(ctx, gamma) == expected
            outcomes.add((expected, gamma in sums))
    if ctx.rank > 1:  # A1 has too few roots to make a set that fails
        assert {expected for expected, _ in outcomes} == {True, False}
        assert any(in_sums for _, in_sums in outcomes)


def test_inversion_partition(a3ctx):
    # |R(w)| + |R'(w)| partitions the roots above the marked node
    group = a3ctx.group
    above = {alpha for alpha in positive_roots_of(group, a3ctx.finite_nodes)
             if alpha[a3ctx.cominuscule_node] >= 1}
    for w in enumerate_min_reps(group, a3ctx.finite_nodes, a3ctx.levi_nodes):
        picked = conormal.conormal_roots(a3ctx, w)
        dropped = {a for a in above if not is_positive_vec(w.act(a))}
        assert picked | dropped == above and not picked & dropped
        assert len(picked) + len(dropped) == a3ctx.dim_quotient


ALPHA0_PAIRS = list(cominuscule_pairs(6)) + [p for p in cominuscule_pairs(7, True)
                                              if p[:2] == ("E", 7)]


@pytest.mark.parametrize("pair", ALPHA0_PAIRS, ids=lambda p: "%s%d d=%d" % p)
def test_alpha0_test_matches_support_definition(pair):
    """The cotangent roots, psi and the c5 set subtract Phi+_levi; the
    definitions ask whether the support of the root leaves the Levi."""
    ctx = build_context(*pair)
    levi = set(ctx.levi_nodes)

    def off_levi(roots):
        return {alpha for alpha in roots
                if not {i for i, c in zip(ctx.affine_diagram.nodes, alpha) if c} <= levi}

    cotangent = off_levi(positive_roots_of(ctx.group, ctx.finite_nodes))
    assert ctx.cotangent_roots == cotangent
    assert all(alpha[ctx.cominuscule_node] == 1 for alpha in ctx.cotangent_roots)
    assert len(ctx.cotangent_roots) == ctx.dim_quotient
    psi = ctx.shifted_cotangent_roots
    assert sorted(psi) == sorted(tuple(-x for x in beta) for beta in
                                 off_levi(positive_roots_of(ctx.group, ctx.affine_levi_nodes)))
    for u in enumerate_min_reps(ctx.group, ctx.affine_levi_nodes, ctx.finite_nodes):
        supp_roots = positive_roots_of(ctx.group, u.support())
        inversions = {alpha for alpha in supp_roots if not is_positive_vec(u.act(alpha))}
        assert conormal.is_smooth(ctx, u).c5 == (inversions == off_levi(supp_roots))


def test_c5_on_the_root_table_matches_c5_on_grown_sets():
    """is_smooth reads c5 off u's inversion mask over the dual cotangent roots,
    against the bits of the roots whose support lies in Supp(u); the oracle
    grows Phi+_{Supp(u)} and Phi+_levi.  They agree on all 1,194 elements of
    W_d^0 to rank 7 with E6 and E7, and c5 both holds and fails among them."""
    answers = Counter()
    for pair in cominuscule_pairs(7, True):
        ctx = build_context(*pair)
        for u in ctx.dual_min_reps:
            c5 = conormal.is_smooth(ctx, u).c5
            assert c5 == grown_c5(ctx, u), (pair, u.word_str())
            answers[c5] += 1
    assert sum(answers.values()) == 1194 and answers[True] and answers[False]


@pytest.mark.parametrize("pair", list(cominuscule_pairs(8, True)), ids=lambda p: "%s%d d=%d" % p)
def test_affine_levi_root_table_is_the_grown_root_set(pair):
    """The table is iota(Phi+) with support masks, and equals Phi+_{aff Levi}
    grown on its own; its roots involving alpha_0 are the dual cotangent roots,
    which are iota of the cotangent roots and Phi+_{aff Levi} minus Phi+_levi."""
    ctx = build_context(*pair)
    grown = rootsys.positive_roots(ctx.affine_diagram, ctx.affine_levi_nodes)
    table = ctx.affine_levi_roots
    assert table.keys() == grown
    for beta, mask in table.items():
        assert mask == sum(1 << i for i in ctx.affine_diagram.nodes if beta[i])
    levi = rootsys.positive_roots(ctx.affine_diagram, ctx.levi_nodes)
    duals = ctx.dual_cotangent_supports.keys()
    assert duals == grown - levi
    assert duals == {ctx.iota_root(alpha) for alpha in ctx.cotangent_roots}


@pytest.mark.parametrize("pair", list(cominuscule_pairs(8, True)), ids=lambda p: "%s%d d=%d" % p)
def test_coset_masks_match_the_sign_read(pair):
    """On both coset sets of every context to rank 8 with E6 and E7, the grown
    set is the dot-product cover test's, each inversion mask holds the roots of
    the context's root order that the element's action sends negative, and each
    support mask the letters of a reduced word.  Every report's R(w) is the
    set difference with the act-based inversions, and every full fibre the
    filter of W_d^0 by act-based inversions on the roots the maximum keeps
    positive."""
    ctx = build_context(*pair)
    for table, span, quotient, order in (
            (ctx.min_rep_masks, ctx.finite_nodes, ctx.levi_nodes, ctx.cotangent_order),
            (ctx.dual_min_rep_masks, ctx.affine_levi_nodes, ctx.finite_nodes,
             tuple(ctx.dual_cotangent_supports))):
        assert list(order) == sorted(order)
        assert table.keys() == dot_product_min_reps(ctx.group, span, quotient)
        for u, (inv, supp) in table.items():
            assert act_inversions(u, order) == decode(order, inv)
            assert u.support() == {i for i in ctx.affine_diagram.nodes if supp >> i & 1}
    duals = ctx.dual_cotangent_supports.keys()
    dual_inversions = {u: act_inversions(u, duals) for u in ctx.dual_min_reps}
    for w in ctx.min_reps:
        report = conormal.closure_is_schubert(ctx, w, full_fibre=True)
        assert report.roots == ctx.cotangent_roots - act_inversions(w, ctx.cotangent_roots)
        if report.closure_is_schubert:
            (top,) = report.fibre_max
            kept = duals - dual_inversions[top]
            assert report.fibre_all == {u for u, inv in dual_inversions.items() if not inv & kept}


@pytest.mark.parametrize("pair", RANK4_PAIRS + [("E", 6, 1), ("E", 7, 7)],
                         ids=lambda p: "%s%d d=%d" % p)
def test_untabled_elements_get_the_tabled_reports(pair):
    """An element read before its coset set is grown is validated and read by
    sign; it gets the same masks, and the same conormal and smoothness reports,
    as the same element read off the grown tables of a second context."""
    cold = cominuscule.build_context.__wrapped__(*pair)
    warm = cominuscule.build_context.__wrapped__(*pair)
    assert warm.min_reps and warm.dual_min_reps
    for w in enumerate_min_reps(cold.group, cold.finite_nodes, cold.levi_nodes):
        report = conormal._element_report(cold, w)
        assert "min_rep_masks" not in vars(cold) and "dual_min_rep_masks" not in vars(cold)
        tabled = conormal._element_report(warm, w)
        assert (report.root_bits, report.v, report.smooth) == \
            (tabled.root_bits, tabled.v, tabled.smooth)
    assert set(cold.element_reports) == warm.min_reps
    assert set(cold.smoothness_reports) == warm.dual_min_reps
    assert all(cold.masks(u, dual) == warm.masks(u, dual)
               for dual, coset in ((False, warm.min_reps), (True, warm.dual_min_reps))
               for u in coset)
    assert "min_rep_masks" not in vars(cold) and "dual_min_rep_masks" not in vars(cold)


def test_tables_refuse_an_element_of_another_group():
    """The coset tables are keyed by element, and equality compares the group:
    the identity of another affine group of the same size has the mu of this
    context's identity, and is refused before and after the tables are grown."""
    ctx = cominuscule.build_context.__wrapped__("A", 3, 2)
    foreign = weyl.WeylGroup(rootsys.build_diagram("B", 3, affine=True)).identity
    assert foreign.coroot_heights() == ctx.group.identity.coroot_heights()
    assert hash(foreign) == hash(ctx.group.identity)
    for grow in (False, True):
        if grow:
            assert foreign not in ctx.min_reps and foreign not in ctx.dual_min_reps
            assert ctx.group.identity in ctx.min_reps
        for query in (conormal.closure_is_schubert, conormal.is_smooth):
            with pytest.raises(ValueError, match="does not live in this context's Weyl group"):
                query(ctx, foreign)
    assert foreign not in ctx.element_reports and foreign not in ctx.smoothness_reports


@pytest.mark.parametrize("pair", ALPHA0_PAIRS, ids=lambda p: "%s%d d=%d" % p)
def test_pointwise_shift_identity_for_every_minimal_representative(pair):
    """Oracle for the per-context identity iota(w_levi(alpha)) = delta - alpha of
    check_shift_root_bijection: v(delta - alpha) = iota(w0(w(alpha))) for every
    w in W^P and every cotangent root alpha, with v = iota(w0 w w_levi) built here."""
    ctx = build_context(*pair)
    delta = ctx.delta()
    for w in ctx.min_reps:
        v = ctx.iota_elem(ctx.w0 * w * ctx.w_levi)
        for alpha in ctx.cotangent_roots:
            shifted = tuple(m - a for a, m in zip(alpha, delta))
            assert v.act(shifted) == ctx.iota_root(ctx.w0.act(w.act(alpha)))


@pytest.mark.parametrize("series,rank,d", RANK4_PAIRS)
def test_shift_check_acts_once_per_affine_levi_root(series, rank, d, monkeypatch):
    """Op-count gate: on a warm report, shift_check(ctx, w) reads the sign of
    v on each root of Phi+_{aff Levi} once, through ``inversion_mask``, and makes
    no act call."""
    ctx = build_context(series, rank, d)
    expected = len(positive_roots_of(ctx.group, ctx.affine_levi_nodes))
    for w in ctx.min_reps:
        conormal.closure_is_schubert(ctx, w)
    real_act, real_mask = AffineWeylElement.act, AffineWeylElement.inversion_mask
    acts, signs = [], []

    def counting_act(self, vec):
        acts.append(vec)
        return real_act(self, vec)

    def counting_mask(self, roots):
        roots = tuple(roots)
        signs.extend(roots)
        return real_mask(self, roots)

    monkeypatch.setattr(AffineWeylElement, "act", counting_act)
    monkeypatch.setattr(AffineWeylElement, "inversion_mask", counting_mask)
    for w in ctx.min_reps:
        signs.clear()
        assert conormal.shift_check(ctx, w)
        assert len(signs) == expected
    assert acts == []


def test_conormal_reads_signs_only_through_inversions(monkeypatch):
    """conormal.py calls no act and imports no Bruhat or vector-sign helper,
    and a full-fibre sweep runs with bruhat_leq refused."""
    tree = ast.parse(inspect.getsource(conormal))
    acts = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "act"]
    assert acts == []
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"bruhat_leq", "is_positive_vec", "is_negative_vec"}
    ctx = cominuscule.build_context.__wrapped__("D", 5, 5)

    def refuse(*args):
        raise AssertionError("the full fibre must not call bruhat_leq")

    monkeypatch.setattr(weyl, "bruhat_leq", refuse)
    fibres = [conormal.closure_is_schubert(ctx, w, full_fibre=True).fibre_all
              for w in ctx.min_reps]
    assert sum(fibre is not None for fibre in fibres) > 1


def test_cominuscule_bruhat_order_is_inversion_containment():
    """Oracle for the full fibre's filter (Proctor 1984; Stembridge 1996): on
    W^P over the cotangent roots and on W_d^0 over the dual cotangent roots,
    the inversion set read by ``inversion_mask`` is the act-based one, its size is
    the length, and bruhat_leq(x, y) iff Inv(x) is contained in Inv(y)."""
    contexts = list(cominuscule_pairs(6))
    assert ("E", 6, 1) in contexts
    pairs = 0
    for pair in contexts:
        ctx = build_context(*pair)
        for coset, roots in ((ctx.min_reps, ctx.cotangent_order),
                             (ctx.dual_min_reps, tuple(ctx.dual_cotangent_supports))):
            inv = {}
            for x in coset:
                inv[x] = decode(roots, x.inversion_mask(roots))
                assert inv[x] == act_inversions(x, roots)
                assert len(inv[x]) == x.length()
            for x in coset:
                for y in coset:
                    assert bruhat_leq(x, y) == (inv[x] <= inv[y]), (pair, x, y)
                    pairs += 1
    assert pairs == 29924


@pytest.mark.parametrize("series,rank,d", RANK4_PAIRS)
def test_pipeline_sweeps_rank4(series, rank, d):
    ctx = build_context(series, rank, d)
    assert check_min_rep_sets(ctx)
    assert check_connected_support(ctx)
    assert check_smoothness_criteria(ctx)
    assert check_shift_bijection(ctx)
    assert check_main_predicate(ctx)
    assert check_nilpotent_sets(ctx)


def test_connected_support_rank5():
    for series, rank, d in cominuscule_pairs(5):
        assert check_connected_support(build_context(series, rank, d))


def test_report_dict_shape(a3ctx):
    report = conormal.closure_is_schubert(a3ctx, a3ctx.group.identity, with_fibre=True)
    payload = conormal.report_to_dict(a3ctx, report)
    assert payload["type"] == "A" and payload["rank"] == 3 and payload["d"] == 2
    assert set(payload["smooth"]) == {"c3", "c4", "c5", "c6", "L"}
    assert payload["closure_is_schubert"] is True
    assert isinstance(payload["fibre_max"], list)
    assert len(payload["R"]) == a3ctx.dim_quotient


def test_fibre_closed_form_matches_enumeration_oracle():
    cases = 0
    for series, rank, d in cominuscule_pairs(6):
        ctx = build_context(series, rank, d)
        for w in enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes):
            report = conormal.closure_is_schubert(ctx, w, with_fibre=True,
                                                  full_fibre=True)
            if not report.closure_is_schubert:
                assert report.fibre_max is None and report.fibre_all is None
                continue
            fibre = _oracle_fibre(ctx, report.wv)
            assert report.fibre_max == _oracle_maxima(fibre), (series, rank, d, w)
            assert report.fibre_all == fibre, (series, rank, d, w)
            cases += 1
    assert cases == 284


def _marked_connected_spans(ctx):
    """The connected node sets J of the finite diagram that contain the marked node."""
    d = ctx.cominuscule_node
    for k in range(len(ctx.levi_nodes) + 1):
        for extra in itertools.combinations(ctx.levi_nodes, k):
            if rootsys.is_connected(ctx.finite_diagram, (d,) + extra):
                yield (d,) + extra


def _smooth_schubert_labels(ctx):
    """Oracle B (Brion-Polo 1999; Hong-Mok 2013): in a cominuscule G/P, X_P(x)
    is smooth iff x = e or x = min_rep(w0^J, levi) for a connected J of the
    finite diagram that contains the marked node."""
    return {ctx.group.identity} | {min_rep(longest_element(ctx.group, span), ctx.levi_nodes)
                                   for span in _marked_connected_spans(ctx)}


def test_closure_predicate_matches_smooth_schubert_classification():
    """The main theorem against geometry: the closure is Schubert iff
    X(w0 w) is smooth, decided by the classification, not by the twisted dual."""
    counts = {True: 0, False: 0}
    for pair in cominuscule_pairs(7, include_e7=True):
        ctx = build_context(*pair)
        labels = _smooth_schubert_labels(ctx)
        for w in ctx.min_reps:
            smooth = min_rep(ctx.w0 * w, ctx.levi_nodes) in labels
            assert smooth == conormal.closure_is_schubert(ctx, w).closure_is_schubert, \
                (pair, w)
            counts[smooth] += 1
    assert counts == {True: 434, False: 760}


def test_closure_predicate_against_rational_smoothness():
    """Oracle A (Carrell-Peterson): X_P(x) is rationally smooth iff its
    Poincare polynomial, sum of q^l(y) over y in W^P below x, is palindromic.
    In simply laced type that is smoothness, so it must match the predicate;
    in B/C smoothness only implies it.  x = min_rep(w0 w, levi)."""
    counts, extra = Counter(), Counter()
    for pair in cominuscule_pairs(6):
        ctx = build_context(*pair)
        for w in ctx.min_reps:
            x = min_rep(ctx.w0 * w, ctx.levi_nodes)
            poincare = [0] * (x.length() + 1)
            for y in ctx.min_reps:
                if bruhat_leq(y, x):
                    poincare[y.length()] += 1
            palindromic = poincare == poincare[::-1]
            schubert = conormal.closure_is_schubert(ctx, w).closure_is_schubert
            if ctx.series in "ADE":
                assert schubert == palindromic, (pair, w)
            else:
                assert palindromic or not schubert, (pair, w)
            counts[schubert, palindromic] += 1
            extra[pair] += palindromic and not schubert
    assert counts == {(True, True): 284, (False, False): 286, (False, True): 30}
    assert +extra == {**{("B", n, 1): n - 1 for n in range(2, 7)},
                      **{("C", n, n): n - 1 for n in range(2, 7)}}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    """num / den for integer coefficient lists, den monic; the remainder must vanish."""
    num, quot = list(num), [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = num[k + len(den) - 1]
        for j, y in enumerate(den):
            num[k + j] -= quot[k] * y
    assert not any(num), "division leaves a remainder"
    return quot


def _poincare_quotient(group, span, sub):
    """P_{W_span}(q) / P_{W_sub}(q), where P_W(q) is the product over the
    positive roots of [ht + 1]_q / [ht]_q (Kostant-Macdonald) and [n]_q is
    1 + q + ... + q^(n-1)."""
    num, den = [1], [1]
    for nodes, up in ((span, 1), (sub, 0)):
        for alpha in positive_roots_of(group, nodes):
            num = _poly_mul(num, [1] * (sum(alpha) + up))
            den = _poly_mul(den, [1] * (sum(alpha) + 1 - up))
    return _poly_div_exact(num, den)


def test_smooth_label_intervals_have_the_parabolic_poincare_polynomial():
    """Interval cross-check: below a smooth label x = min_rep(w0^J, levi) the
    elements of W^P are those of W_J^(J - d), so the sum of q^l(y) over y in
    W^P with y <= x is P_{W_J}(q) / P_{W_(J - d)}(q).  Tests bruhat_leq,
    min_rep and the coset enumeration against root heights alone."""
    checked = 0
    for pair in cominuscule_pairs(7, include_e7=True):
        ctx = build_context(*pair)
        for span in _marked_connected_spans(ctx):
            x = min_rep(longest_element(ctx.group, span), ctx.levi_nodes)
            below = [0] * (x.length() + 1)
            for y in ctx.min_reps:
                if bruhat_leq(y, x):
                    below[y.length()] += 1
            levi_part = tuple(i for i in span if i != ctx.cominuscule_node)
            assert below == _poincare_quotient(ctx.group, span, levi_part), (pair, span)
            checked += 1
    assert checked == 379
