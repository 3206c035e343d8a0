"""Cominuscule contexts: the involution, the translation element, root shifts."""

import random

import pytest

from cograss import rootsys
from cograss.checks import (
    check_form_invariance,
    check_iota_conjugation,
    check_shift_root_bijection,
    check_translation_identity,
    check_wsontheta,
    cominuscule_pairs,
)
from cograss.cominuscule import (
    _involution_from_levi,
    _validate_involution,
    build_context,
    cominuscule_nodes,
)
from cograss.rootsys import InvariantError, build_diagram, fundamental_coweight
from cograss.weyl import AffineWeylElement, WeylGroup, min_rep

from oracles import coroot_coordinates

RANK6_PAIRS = list(cominuscule_pairs(6))


def test_cominuscule_node_tables():
    assert cominuscule_nodes("A", 4) == (1, 2, 3, 4)
    assert cominuscule_nodes("B", 5) == (1,)
    assert cominuscule_nodes("C", 5) == (5,)
    assert cominuscule_nodes("D", 6) == (1, 5, 6)
    assert cominuscule_nodes("E", 6) == (1, 6)
    assert cominuscule_nodes("E", 7) == (7,)
    assert cominuscule_nodes("E", 8) == ()


def test_non_cominuscule_node_rejected_with_coefficient():
    with pytest.raises(ValueError, match="coefficient in delta is 2"):
        build_context("B", 3, 3)
    with pytest.raises(ValueError, match="not a node"):
        build_context("A", 3, 5)


def test_involution_a3_middle_node():
    ctx = build_context("A", 3, 2)
    assert ctx.involution == tuple((2 - i) % 4 for i in range(4))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_involution_type_d_closed_form(n):
    # the closed form iota(alpha_i) = alpha_{n-i} is a consequence, not an input
    ctx = build_context("D", n, n)
    assert ctx.involution == tuple(n - i for i in range(n + 1))


def test_iota_elem_fixed_points_and_swap():
    ctx = build_context("D", 4, 4)
    assert ctx.iota_elem(ctx.group.identity) == ctx.group.identity
    assert ctx.iota_elem(ctx.w_levi) == ctx.w_levi
    assert ctx.iota_elem(ctx.w_affine_levi) == ctx.w0
    assert ctx.iota_elem(ctx.w0) == ctx.w_affine_levi


def test_iota_preserves_length_and_bruhat():
    from cograss.weyl import bruhat_leq, enumerate_min_reps
    ctx = build_context("A", 3, 2)
    reps = enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes)
    for u in reps:
        assert ctx.iota_elem(u).length() == u.length()
        for w in reps:
            assert bruhat_leq(u, w) == bruhat_leq(ctx.iota_elem(u), ctx.iota_elem(w))


def test_iota_elem_is_an_involution():
    ctx = build_context("C", 3, 3)
    for raw in [(), (3,), (0, 1), (2, 3, 0, 1), (1, 2, 3, 2, 1, 0)]:
        w = ctx.group.from_word(raw)
        assert ctx.iota_elem(ctx.iota_elem(w)) == w


def relabelled(ctx, w):
    """Oracle: iota applied letter by letter to a reduced word."""
    return ctx.group.from_word(ctx.involution[i] for i in w.reduced_word())


def assert_iota_matches_relabelling(ctx, w):
    twisted = ctx.iota_elem(w)
    assert twisted == relabelled(ctx, w)
    assert twisted._len == w._len
    assert twisted.length() == w.length()


IOTA_PAIRS = RANK6_PAIRS + [p for p in cominuscule_pairs(7, True) if p[:2] == ("E", 7)]


@pytest.mark.parametrize("pair", IOTA_PAIRS, ids=lambda p: "%s%d d=%d" % p)
def test_iota_elem_matches_letterwise_relabelling(pair):
    ctx = build_context(*pair)
    for w in ctx.min_reps | ctx.dual_min_reps:
        assert_iota_matches_relabelling(ctx, w)
        assert_iota_matches_relabelling(ctx, w * ctx.group.identity)  # carries no length
    rng = random.Random("iota %s%d d=%d" % pair)
    nodes = ctx.affine_diagram.nodes
    for _ in range(50):
        assert_iota_matches_relabelling(
            ctx, ctx.group.from_word(rng.choice(nodes) for _ in range(rng.randrange(40))))


def test_iota_elem_builds_no_word(monkeypatch):
    ctx = build_context("E", 6, 1)
    words = [(), (0,), (1, 3, 4, 2, 0), (0, 2, 4, 3, 1, 6, 5, 4, 2, 0)]
    fresh = [ctx.group.from_word(word) * ctx.group.identity for word in words]
    expected = [relabelled(ctx, w * ctx.group.identity) for w in fresh]

    def refuse(*args, **kwargs):
        raise AssertionError("iota_elem must act on the matrix, not on a word")

    monkeypatch.setattr(WeylGroup, "from_word", refuse)
    monkeypatch.setattr(AffineWeylElement, "reduced_word", refuse)
    for w, oracle in zip(fresh, expected):
        assert w._word is None
        assert ctx.iota_elem(w) == oracle


@pytest.mark.parametrize("involution, message", [
    ((0, 0, 2, 3), "not a node permutation"),
    ((1, 2, 3, 0), "not an involution"),
    ((1, 0, 2, 3), "does not preserve the Cartan matrix"),
])
def test_validate_involution_refuses_a_bad_node_map(involution, message):
    """iota_elem relabels without checking, so the build must refuse a node map
    that is no diagram involution of A~3."""
    with pytest.raises(InvariantError, match=message):
        _validate_involution(build_diagram("A", 3, affine=True), involution)


def test_iota_fixes_delta_on_every_context():
    """The build does not check that iota fixes delta: a node permutation that
    preserves the affine Cartan matrix maps its one-dimensional kernel to itself,
    and so fixes the primitive positive kernel vector delta."""
    pairs = list(cominuscule_pairs(8, include_e7=True))
    assert ("E", 7, 7) in pairs
    for pair in pairs:
        ctx = build_context(*pair)
        delta = ctx.delta()
        assert ctx.iota_root(delta) == delta, pair
        assert [delta[ctx.involution[i]] for i in ctx.affine_diagram.nodes] == list(delta)


def test_involution_read_refuses_an_element_other_than_w_levi():
    """w_J s_1 = s_3 in A3 d=2 fixes alpha_1, so -w_J does not permute the Levi
    simple roots and no involution is read."""
    ctx = build_context("A", 3, 2)
    with pytest.raises(InvariantError, match="-w_J does not permute the Levi simple roots"):
        _involution_from_levi(ctx.affine_diagram, 2, ctx.levi_nodes,
                              ctx.w_levi.mul_simple_right(1))


def test_iota_swaps_the_two_quotients():
    from cograss.weyl import enumerate_min_reps
    for series, rank, d in [("A", 3, 2), ("D", 4, 4), ("B", 3, 1)]:
        ctx = build_context(series, rank, d)
        finite_side = enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes)
        levi_side = enumerate_min_reps(ctx.group, ctx.affine_levi_nodes,
                                       ctx.levi_nodes)
        assert {ctx.iota_elem(w) for w in finite_side} == levi_side


def test_translation_coweight_closed_forms():
    # q = w0(coweight) - coweight, spot-checked against hand computations
    assert build_context("A", 3, 2).translation_coroot == (-1, -2, -1)
    assert build_context("D", 4, 1).translation_coroot == (-2, -2, -1, -1)
    assert build_context("C", 3, 3).translation_coroot == (-1, -2, -3)
    # the coweight itself may leave the coroot lattice; only q is integral
    from fractions import Fraction
    from cograss.rootsys import build_diagram, fundamental_coweight
    assert fundamental_coweight(build_diagram("C", 3), 3) == \
        (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def test_translation_coroot_matches_the_two_solve_route():
    """Oracle: q = w0(omega_d^vee) - omega_d^vee with the coweight solved by
    fundamental_coweight and its image under w0 solved from its pairings."""
    for series, rank, d in cominuscule_pairs(9, include_e7=True):
        ctx = build_context(series, rank, d)
        finite = ctx.finite_diagram
        coweight = fundamental_coweight(finite, d)
        moved = coroot_coordinates(finite, [ctx.w0.cols[j][d] for j in finite.nodes])
        assert ctx.translation_coroot == tuple(m - c for m, c in zip(moved, coweight))


def test_closed_forms_match_the_solve_and_the_root_search():
    """Oracle for the context's closed forms on all 82 contexts to rank 9 with
    E7: q read off 2 rho_P equals the one solve on its pairings
    <alpha_j, q> = w0(alpha_j)_d - [j = d], and theta_0 = delta - alpha_0
    equals the highest root found by searching the finite roots."""
    pairs = list(cominuscule_pairs(9, include_e7=True))
    assert len(pairs) == 82
    for series, rank, d in pairs:
        ctx = build_context(series, rank, d)
        finite = ctx.finite_diagram
        solved = coroot_coordinates(
            finite, [ctx.w0.cols[j][d] - (j == d) for j in finite.nodes])
        assert ctx.translation_coroot == solved
        assert ctx.highest_root_finite == rootsys.highest_root(ctx.affine_diagram,
                                                               ctx.finite_nodes)


def test_coroots_take_no_exact_solve(monkeypatch):
    """Gate: an affine WeylGroup reads theta^vee off the symmetrizer, a context
    reads its translation coroot off 2 rho_P, and result-q solves nothing."""
    calls = []
    real = rootsys.solve_exact

    def counting(matrix, rhs):
        calls.append(len(rhs))
        return real(matrix, rhs)

    monkeypatch.setattr(rootsys, "solve_exact", counting)
    monkeypatch.setattr(WeylGroup, "_instances", {})  # groups built afresh, restored after
    for series, low in [("A", 1), ("B", 2), ("C", 2), ("D", 4), ("E", 6)]:
        for rank in range(low, 9):
            WeylGroup(build_diagram(series, rank, affine=True))
    assert calls == []
    pairs = list(cominuscule_pairs(7, include_e7=True))
    contexts = [build_context.__wrapped__(*pair) for pair in pairs]
    assert len(pairs) == 55
    assert calls == []
    assert all(check_translation_identity(ctx) for ctx in contexts)
    assert calls == []


def test_translation_element_examples():
    ctx = build_context("A", 1, 1)
    assert ctx.translation_coroot == (-1,)
    assert ctx.translation_element.reduced_word() == (1, 0)
    ctx = build_context("A", 3, 2)
    assert ctx.translation_element.length() == 2 * ctx.dim_quotient == 8
    delta = ctx.delta()
    assert ctx.translation_element.act(delta) == delta


def test_translation_element_two_routes_agree():
    for series, rank, d in RANK6_PAIRS:
        ctx = build_context(series, rank, d)
        assert check_translation_identity(ctx)
        tau = ctx.translation_element
        assert tau == (min_rep(ctx.w0, ctx.levi_nodes)
                       * min_rep(ctx.w_affine_levi, ctx.levi_nodes))


@pytest.mark.parametrize("series,rank,d", RANK6_PAIRS)
def test_wsontheta_rank6(series, rank, d):
    assert check_wsontheta(build_context(series, rank, d))


@pytest.mark.parametrize("series,rank,d", RANK6_PAIRS)
def test_form_invariance_rank6(series, rank, d):
    assert check_form_invariance(build_context(series, rank, d))


@pytest.mark.parametrize("series,rank,d", RANK6_PAIRS)
def test_iota_conjugation_rank6(series, rank, d):
    assert check_iota_conjugation(build_context(series, rank, d))


@pytest.mark.parametrize("series,rank,d", RANK6_PAIRS)
def test_shift_root_bijection_rank6(series, rank, d):
    assert check_shift_root_bijection(build_context(series, rank, d))


def test_theta_d_is_delta_minus_cominuscule_root():
    for series, rank, d in cominuscule_pairs(5):
        ctx = build_context(series, rank, d)
        delta = ctx.delta()
        alpha_d = ctx.simple_root(d)
        assert ctx.highest_root_affine_levi == \
            tuple(m - a for m, a in zip(delta, alpha_d))


def test_e7_context_opt_in():
    # gated out of default sweeps, but must build and validate on demand
    pairs = list(cominuscule_pairs(7, include_e7=True))
    assert ("E", 7, 7) in pairs and ("E", 7, 7) not in cominuscule_pairs(7)
    ctx = build_context("E", 7, 7)
    assert ctx.dim_quotient == 27
    assert check_translation_identity(ctx) and check_wsontheta(ctx)
