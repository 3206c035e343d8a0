"""Weyl group arithmetic: action, length, Bruhat order, Demazure product."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cograss import weyl
from cograss.checks import cominuscule_pairs
from cograss.cominuscule import build_context, cominuscule_nodes
from cograss.rootsys import (
    _RANK_BOUNDS,
    build_diagram,
    highest_root,
    inner_form,
    positive_roots,
)
from cograss.weyl import (
    AffineWeylElement,
    WeylGroup,
    _element,
    bruhat_interval_check,
    bruhat_leq,
    demazure,
    enumerate_min_reps,
    longest_element,
    min_rep,
    positive_roots_of,
    theta_coroot,
    weyl_elements,
    weyl_order,
)

from oracles import (
    ColumnMatrix,
    act_inversions,
    acts_as_translation,
    chain_longest_element,
    chain_min_rep,
    coroot_coordinates,
    decode,
    dot_product_min_reps,
    is_negative_vec,
    is_positive_vec,
    right_simple_product,
    solved_translation,
)


def group_of(series, rank, affine=False):
    return WeylGroup(build_diagram(series, rank, affine=affine))


# -- action -------------------------------------------------------------------


def test_simple_reflection_action_a2():
    g = group_of("A", 2)
    a1, a2 = g.diagram.simple_root(1), g.diagram.simple_root(2)
    assert g.simple[1].act(a1) == (-1, 0)
    assert g.simple[1].act(a2) == (1, 1)


def test_affine_generator_matches_semidirect_pair():
    # s_0 must equal s_theta composed with translation by -theta^vee
    g = group_of("A", 1, affine=True)
    a0 = g.diagram.simple_root(0)
    assert g.simple[0].act(a0) == (-1, 0)
    u, q = g.simple[0].semidirect_pair()
    assert q == tuple(-x for x in theta_coroot(g.finite_diagram))
    assert u == g.embed_finite_matrix(((-1,),)) == g.simple[1]  # s_theta = s_1 in rank one


def test_action_rejects_wrong_lattice():
    g = group_of("A", 2)
    with pytest.raises(ValueError):
        g.simple[1].act((1, 0, 0))
    h = group_of("A", 3)
    with pytest.raises(ValueError):
        g.simple[1] * h.simple[1]


def test_translation_fixes_delta_and_shifts_finite_roots():
    g = group_of("A", 2, affine=True)
    tau = g.from_translation((1, 0))
    delta = g.diagram.delta
    assert tau.act(delta) == delta
    a1 = g.diagram.simple_root(1)
    # tau_q(alpha) = alpha - <alpha, q> delta
    assert tau.act(a1) == tuple(x - 2 * m for x, m in zip(a1, delta))


def test_translation_rejects_coweights_off_the_coroot_lattice():
    """tau_q is in W only for q in the coroot lattice: on A~2 the coweight
    omega_2^vee = (1/3, 2/3) and a float q are refused, integer q is not."""
    g = group_of("A", 2, affine=True)
    for q in [(Fraction(1, 3), Fraction(2, 3)), (1.5, 0), (Fraction(1), 0)]:
        with pytest.raises(ValueError, match="coroot lattice"):
            g.from_translation(q)
    tau = g.from_translation((1, 0))
    assert all(isinstance(x, int) for col in tau.cols for x in col)
    assert acts_as_translation(tau) and finite_part_is_identity(tau)
    assert tau.semidirect_pair()[1] == (1, 0) and tau.length() == 4


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("D", 4)]),
       st.lists(st.integers(0, 8), max_size=10))
def test_semidirect_pair_roundtrip(pair, raw):
    series, rank = pair
    g = group_of(series, rank, affine=True)
    w = g.from_word(i % (rank + 1) for i in raw)
    u, q = w.semidirect_pair()
    assert u * g.from_translation(q) == w


AFFINE_TO_RANK_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
                    + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("series, rank", AFFINE_TO_RANK_8)
def test_semidirect_pair_reads_the_solved_translation(series, rank):
    """Oracle: on 30 seeded words, q folded on w^{-1}(Lambda_0) equals q solved from
    the alpha_0 row of the matrix, and u o tau_q rebuilds w."""
    g = group_of(series, rank, affine=True)
    rng = random.Random(f"{series}{rank}")
    for _ in range(30):
        w = g.from_word(rng.choice(g.diagram.nodes) for _ in range(rng.randrange(4 * rank + 8)))
        u, q = w.semidirect_pair()
        assert q == solved_translation(w)
        assert u * g.from_translation(q) == w


def test_word_str_parse_roundtrip():
    g = group_of("D", 4, affine=True)
    w = g.from_word((0, 2, 1, 3, 2, 0))
    assert g.from_word_str(w.word_str()) == w
    assert g.from_word_str("") == g.identity
    assert g.from_word_str("  ") == g.identity
    assert g.from_word_str("2 1 3 2") == g.from_word((2, 1, 3, 2))
    for text, token in (("1,2", "1,2"), ("0 x 2", "x"), ("2 1.5", "1.5")):
        with pytest.raises(ValueError) as refused:
            g.from_word_str(text)
        assert str(refused.value) == (
            f"word must look like '0 2 1' (node numbers separated by spaces), got {token!r}")


def test_group_law_on_semidirect_pairs():
    g = group_of("C", 2, affine=True)
    x = g.from_word((0, 1, 2, 1))
    y = g.from_word((2, 0, 1, 0))
    ux, qx = x.semidirect_pair()
    uy, qy = y.semidirect_pair()
    uz, qz = (x * y).semidirect_pair()
    # finite parts multiply; translation is u_y^{-1}(q_x) + q_y
    assert ux * uy == uz
    moved = _dual_action(g, uy.inverse(), qx)
    assert tuple(a + b for a, b in zip(moved, qy)) == qz


def _dual_action(group, elem, coroot):
    """<alpha_j, u(q)> = <u^{-1}(alpha_j), q>, solved back to coordinates."""
    from cograss.rootsys import pairing, solve_exact
    finite = group.finite_diagram
    n = finite.rank
    inv = elem.inverse()
    rhs = []
    for j in finite.nodes:
        pre = inv.act(group.diagram.simple_root(j))
        level = pre[0]
        fin = tuple(x - level * m for x, m in zip(pre, group.diagram.delta))[1:]
        rhs.append(pairing(finite, fin, coroot))
    transposed = [[finite.cartan[i][j] for i in range(n)] for j in range(n)]
    sol = solve_exact(transposed, rhs)
    assert all(x.denominator == 1 for x in sol)
    return tuple(int(x) for x in sol)


# -- coroot closed forms against their exact solves --------------------------------

THETA_COROOT_DIAGRAMS = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                         + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
                         + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("series, rank", THETA_COROOT_DIAGRAMS)
def test_theta_coroot_matches_the_solve_of_its_pairings(series, rank):
    """Oracle: theta^vee solved from <alpha_j, theta^vee> = 2(alpha_j|theta)/(theta|theta)."""
    finite = build_diagram(series, rank)
    theta = highest_root(finite)
    norm = inner_form(finite, theta, theta)
    pairings = [Fraction(2 * inner_form(finite, finite.simple_root(j), theta), norm)
                for j in finite.nodes]
    assert theta_coroot(finite) == coroot_coordinates(finite, pairings)


def finite_part_is_identity(x):
    """The finite part of the semidirect split is the identity."""
    return x.semidirect_pair()[0].is_identity()


def test_acts_as_translation_matches_semidirect_pair_on_every_context_tau():
    for series, rank, d in cominuscule_pairs(8, include_e7=True):
        tau = build_context(series, rank, d).translation_element
        assert acts_as_translation(tau) and finite_part_is_identity(tau)


@pytest.mark.parametrize("series, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_acts_as_translation_matches_semidirect_pair_on_affine_words(series, rank):
    g = group_of(series, rank, affine=True)
    rng = random.Random(f"translation {series}{rank}")
    nodes = g.diagram.nodes
    words = [g.simple[node] for node in nodes]
    words += [g.from_word(rng.choice(nodes) for _ in range(rng.randrange(31)))
              for _ in range(60)]
    words.append(g.from_translation(theta_coroot(g.finite_diagram)))
    answers = [acts_as_translation(x) for x in words]
    assert answers == [finite_part_is_identity(x) for x in words]
    assert set(answers) == {True, False}


@pytest.mark.parametrize("series, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_only_the_identity_of_a_finite_group_acts_as_translation(series, rank):
    g = group_of(series, rank)
    elements = weyl_elements(g, g.diagram.nodes)
    assert [x for x in elements if acts_as_translation(x)] == [g.identity]
    assert all(acts_as_translation(x) == finite_part_is_identity(x) for x in elements)


# -- length and reduced words -----------------------------------------------------


def test_length_examples():
    g = group_of("A", 2)
    assert g.identity.length() == 0
    assert (g.simple[1] * g.simple[2] * g.simple[1]).length() == 3
    at = group_of("A", 1, affine=True)
    tau = at.from_translation((-1,))
    assert tau.length() == 2
    assert tau == at.simple[1] * at.simple[0]


def test_length_is_bfs_distance():
    for series, rank in [("A", 2), ("B", 2), ("A", 3)]:
        g = group_of(series, rank)
        dist = {g.identity: 0}
        frontier = [g.identity]
        while frontier:
            fresh = []
            for w in frontier:
                for node in g.diagram.nodes:
                    x = w.mul_simple_right(node)
                    if x not in dist:
                        dist[x] = dist[w] + 1
                        fresh.append(x)
            frontier = fresh
        for w, d in dist.items():
            assert w.length() == d


def test_reduced_words():
    g = group_of("A", 2)
    assert g.identity.reduced_word() == ()
    w0 = longest_element(g, (1, 2))
    assert len(w0.reduced_word()) == 3
    assert g.from_word(w0.reduced_word()) == w0
    at = group_of("A", 1, affine=True)
    assert at.simple[0].reduced_word() == (0,)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("A", 4), ("B", 3), ("D", 4), ("A", 2), ("C", 3),
                        ("D", 5), ("A", 6), ("E", 6)]),
       st.lists(st.integers(0, 10), max_size=12))
def test_word_roundtrip_property(pair, raw):
    series, rank = pair
    g = group_of(series, rank, affine=True)
    word = tuple(i % (rank + 1) for i in raw)
    w = g.from_word(word)
    assert w.length() <= len(word)
    assert g.from_word(w.reduced_word()) == w
    if w.length() == len(word):
        # the word itself was reduced; evaluating the trace reproduces it
        assert len(w.reduced_word()) == len(word)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=10), st.data())
def test_action_preserves_inner_form(raw, data):
    g = group_of("D", 4, affine=True)
    w = g.from_word(i % 5 for i in raw)
    finite = sorted(positive_roots_of(g, (1, 2, 3, 4)))
    d = g.diagram

    def real_root():
        base = data.draw(st.sampled_from(finite))
        level = data.draw(st.integers(-2, 2))
        return tuple(x + level * m for x, m in zip(base, d.delta))

    a, b = real_root(), real_root()
    assert inner_form(d, w.act(a), w.act(b)) == inner_form(d, a, b)


# -- root signs read off column heights ----------------------------------------------

SIGN_READ_FINITE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                    ("C", 2), ("C", 3), ("C", 4), ("D", 4)]
SIGN_READ_AFFINE = [("A", 3), ("B", 3), ("C", 3), ("D", 4)]


@pytest.mark.parametrize("series, rank", SIGN_READ_FINITE)
def test_inversions_match_action_on_every_finite_element(series, rank):
    g = group_of(series, rank)
    positive = positive_roots(g.diagram, g.diagram.nodes)
    roots = sorted(positive | {tuple(-c for c in alpha) for alpha in positive})
    for x in weyl_elements(g, g.diagram.nodes):
        assert decode(roots, x.inversion_mask(roots)) == act_inversions(x, roots)
        assert x.inversion_mask(positive).bit_count() == x.length()


@pytest.mark.parametrize("series, rank", SIGN_READ_AFFINE)
def test_inversions_match_action_on_affine_real_roots(series, rank):
    """Real roots +-alpha + k delta for k in -3..3: the delta part adds k h to
    the height, with h = ht(delta) above every finite height."""
    g = group_of(series, rank, affine=True)
    delta = g.diagram.delta
    finite = positive_roots(g.diagram, g.finite_diagram.nodes)
    roots = sorted({tuple(sign * a + k * m for a, m in zip(alpha, delta))
                    for alpha in finite for sign in (1, -1) for k in range(-3, 4)})
    rng = random.Random(f"sign read {series}{rank}")
    nodes = g.diagram.nodes
    for _ in range(60):
        x = g.from_word(rng.choice(nodes) for _ in range(rng.randrange(31)))
        assert decode(roots, x.inversion_mask(roots)) == act_inversions(x, roots)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relabel_by_rotation_matches_letterwise_oracle(n):
    """The rotation i -> i + 1 mod (n + 1) of A~n is a diagram automorphism but not
    an involution: relabel gives sigma w sigma^-1 = the word of w with each letter
    moved by sigma, and keeps the carried length."""
    g = group_of("A", n, affine=True)
    sigma = tuple((i + 1) % (n + 1) for i in range(n + 1))
    rng = random.Random(f"relabel A~{n}")
    nodes = g.diagram.nodes
    for _ in range(40):
        w = g.from_word(rng.choice(nodes) for _ in range(rng.randrange(31)))
        twisted = w.relabel(sigma)
        assert twisted == g.from_word(sigma[i] for i in w.reduced_word())
        assert twisted._len == w._len == len(twisted.reduced_word())


def test_repr_marks_only_affine_groups():
    assert repr(group_of("A", 3).simple[1]) == "<A3 element 1>"
    assert repr(group_of("A", 3).identity) == "<A3 element e>"
    assert repr(group_of("A", 3, affine=True).simple[0]) == "<A~3 element 0>"


# -- Bruhat order ------------------------------------------------------------------


def test_bruhat_basics():
    g = group_of("A", 2)
    w = g.from_word((1, 2))
    assert bruhat_leq(g.identity, w)
    assert not bruhat_leq(w, g.simple[2])


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2)])
def test_bruhat_matches_subword_oracle(series, rank):
    g = group_of(series, rank)
    elements = sorted(weyl_elements(g, g.diagram.nodes),
                      key=lambda w: (w.length(), w.reduced_word()))
    for u in elements:
        for w in elements:
            assert bruhat_leq(u, w) == bruhat_interval_check(u, w)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=8), st.lists(st.integers(0, 2), max_size=8))
def test_affine_bruhat_matches_subword_oracle(raw_u, raw_w):
    # B~2 and C~2 have non-symmetric Cartan matrices, where a transposed descent shows
    for series in ("A", "B", "C"):
        g = group_of(series, 2, affine=True)
        u, w = g.from_word(raw_u), g.from_word(raw_w)
        assert bruhat_leq(u, w) == bruhat_interval_check(u, w)


def test_order_algorithms_build_no_inverse_and_no_left_product(monkeypatch):
    """bruhat_leq and demazure read right descents only: with inverse() and
    mul_simple_left refused, both still run on every pair of A3."""
    g = group_of("A", 3)
    elements = sorted(weyl_elements(g, g.diagram.nodes),
                      key=lambda w: (w.length(), w.reduced_word()))
    pairs = [(u, w) for u in elements for w in elements]
    expected = [(bruhat_interval_check(u, w), left_fold_demazure(u, w)) for u, w in pairs]

    def refuse(*args):
        raise AssertionError("the order algorithms must not build an inverse or left product")

    monkeypatch.setattr(AffineWeylElement, "inverse", refuse)
    monkeypatch.setattr(AffineWeylElement, "mul_simple_left", refuse)
    assert [(bruhat_leq(u, w), demazure.__wrapped__(u, w)) for u, w in pairs] == expected


# -- Demazure product ---------------------------------------------------------------


def left_fold_demazure(u, w):
    """Oracle: u's reduced word folded into w on the left, x and x^-1 tracked together."""
    x, xinv = w, w.inverse()
    for node in reversed(u.reduced_word()):
        if not xinv.has_right_descent(node):  # s_node x > x: absorb the letter
            x = x.mul_simple_left(node)
            xinv = xinv.mul_simple_right(node)
    return x


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_demazure_right_fold_matches_left_fold_finite(series, rank):
    g = group_of(series, rank)
    elements = sorted(weyl_elements(g, g.diagram.nodes),
                      key=lambda w: (w.length(), w.reduced_word()))
    for u in elements:
        for w in elements:
            assert demazure(u, w) == left_fold_demazure(u, w)


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_demazure_right_fold_matches_left_fold_affine(series, rank):
    g = group_of(series, rank, affine=True)
    rng = random.Random(f"demazure-{series}{rank}")
    nodes = g.diagram.nodes
    for _ in range(60):
        u = g.from_word(rng.choices(nodes, k=rng.randint(0, 10)))
        w = g.from_word(rng.choices(nodes, k=rng.randint(0, 10)))
        product = demazure(u, w)
        assert product == left_fold_demazure(u, w)
        assert product.length() == len(product.reduced_word())


def test_demazure_examples():
    a1 = group_of("A", 1)
    assert demazure(a1.simple[1], a1.simple[1]) == a1.simple[1]
    g = group_of("A", 2)
    w = g.from_word((2, 1))
    assert demazure(g.identity, w) == w
    assert demazure(g.from_word((1, 2)), w) == g.from_word((1, 2, 1))


def test_demazure_associative_and_length_vee_on_a3():
    g = group_of("A", 3)
    elements = sorted(weyl_elements(g, g.diagram.nodes),
                      key=lambda w: (w.length(), w.reduced_word()))
    for a in elements:
        for b in elements:
            ab = demazure(a, b)
            additive = (a * b).length() == a.length() + b.length()
            assert additive == (ab == a * b)
            for c in elements[::5]:
                assert demazure(ab, c) == demazure(a, demazure(b, c))


# -- the strip on mu against the chain walks ------------------------------------------

FINITE_TO_RANK_5 = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
                    + [("C", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6)])
AFFINE_PROPER = [("A", 3), ("C", 3), ("D", 4)]


def _node_subsets(nodes, proper):
    return [sub for k in range(len(nodes) + (not proper))
            for sub in itertools.combinations(nodes, k)]


def test_longest_element_and_min_rep_strip_without_a_chain(monkeypatch):
    """longest_element (every node subset of each finite diagram to rank 5 and
    of E6, every proper subset of the affine A3, C3 and D4) and min_rep (every
    element of W(A3), W(B3) and W(D4), with and without a carried length, over
    every proper node subset) equal the chain walks, with no right product or
    descent test and at most one element built per call; each carried length
    is a freshly stripped one, and a length-less w gives a length-less answer."""
    longest = []
    for series, rank, affine in ([(s, r, False) for s, r in FINITE_TO_RANK_5]
                                 + [(s, r, True) for s, r in AFFINE_PROPER]):
        g = group_of(series, rank, affine)
        g._longest.clear()
        for nodes in _node_subsets(g.diagram.nodes, affine):
            longest.append((g, nodes, chain_longest_element(g, nodes)))
    reps = []
    for series, rank in [("A", 3), ("B", 3), ("D", 4)]:
        g = group_of(series, rank)
        for w in weyl_elements(g, g.diagram.nodes):
            for v in (w, _element(g, w.mu)):
                for nodes in _node_subsets(g.diagram.nodes, True):
                    reps.append((v, nodes, chain_min_rep(v, nodes)))

    def refuse(*args):
        raise AssertionError("the strip must not walk a chain of elements")

    built = []

    def counting(*args, _real=weyl._element):
        built.append(None)
        return _real(*args)

    monkeypatch.setattr(AffineWeylElement, "mul_simple_right", refuse)
    monkeypatch.setattr(AffineWeylElement, "has_right_descent", refuse)
    monkeypatch.setattr(weyl, "_element", counting)
    assert len(longest) == 355 and len(reps) == 2 * 3384
    for g, nodes, expected in longest:
        built.clear()
        x = longest_element(g, nodes)
        assert len(built) <= 1 and x == expected and x._len == expected._len, nodes
        assert x._len == stripped_length(x)
    for w, nodes, expected in reps:
        built.clear()
        x = min_rep(w, nodes)
        assert len(built) <= 1 and x == expected and x._len == expected._len, (w, nodes)
        assert x._len is None or x._len == stripped_length(x)


# -- minimal representatives ---------------------------------------------------------


def test_min_rep_examples():
    g = group_of("A", 2)
    assert min_rep(g.identity, (2,)) == g.identity
    assert min_rep(g.from_word((1, 2)), (2,)) == g.simple[1]
    h = group_of("A", 3)
    for w in weyl_elements(h, (1, 2)):
        assert min_rep(w, (1, 2)) == h.identity


def test_min_rep_idempotent_and_length_additive():
    g = group_of("A", 3)
    for nodes in [(1,), (2,), (1, 3), (1, 2)]:
        for w in weyl_elements(g, g.diagram.nodes):
            rep = min_rep(w, nodes)
            assert min_rep(rep, nodes) == rep
            tail = rep.inverse() * w
            assert tail.support() <= set(nodes)
            assert w.length() == rep.length() + tail.length()


def test_min_rep_rejects_full_node_set():
    g = group_of("A", 2)
    with pytest.raises(ValueError, match="proper"):
        min_rep(g.simple[1], (1, 2))


# -- longest elements ----------------------------------------------------------------


def test_longest_element_examples():
    g = group_of("A", 2)
    assert longest_element(g, (1,)) == g.simple[1]
    w0 = longest_element(g, (1, 2))
    assert w0.length() == 3 and w0 == g.from_word((1, 2, 1))
    d4 = group_of("D", 4)
    assert longest_element(d4, d4.diagram.nodes).length() == 12


def test_longest_element_is_involution_and_flips_positives():
    for series, rank in [("A", 3), ("B", 3), ("D", 4)]:
        g = group_of(series, rank)
        w0 = longest_element(g, g.diagram.nodes)
        assert w0 * w0 == g.identity
        for alpha in positive_roots_of(g, g.diagram.nodes):
            assert not is_positive_vec(w0.act(alpha))


def test_longest_element_rejects_affine_full_set():
    g = group_of("A", 2, affine=True)
    with pytest.raises(ValueError):
        longest_element(g, (0, 1, 2))


@pytest.mark.parametrize("series,rank", [("A", 4), ("B", 3), ("C", 3),
                                         ("D", 4), ("D", 5), ("E", 6)])
def test_negated_longest_element_permutes_simple_roots(series, rank):
    g = group_of(series, rank)
    w0 = longest_element(g, g.diagram.nodes)
    simples = {g.diagram.simple_root(i) for i in g.diagram.nodes}
    image = {tuple(-x for x in w0.act(s)) for s in simples}
    assert image == simples


def test_demazure_associativity_b2_exhaustive():
    g = group_of("B", 2)
    elements = weyl_elements(g, g.diagram.nodes)
    for a in elements:
        for b in elements:
            for c in elements:
                assert demazure(demazure(a, b), c) == demazure(a, demazure(b, c))


# -- support --------------------------------------------------------------------------


def test_support_examples():
    g = group_of("A", 3)
    assert g.identity.support() == frozenset()
    assert g.from_word((1, 2, 1)).support() == {1, 2}
    at = group_of("A", 2, affine=True)
    tau = at.from_translation(tuple(-x for x in theta_coroot(at.finite_diagram)))
    assert tau.support() == {0, 1, 2}


@pytest.mark.parametrize("series,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_support_lemma_exhaustive(series, rank):
    g = group_of(series, rank)
    roots = positive_roots_of(g, g.diagram.nodes)
    for w in weyl_elements(g, g.diagram.nodes):
        supp = w.support()
        for alpha in roots:
            if not is_positive_vec(w.act(alpha)):
                assert {node for node, c in zip(g.diagram.nodes, alpha) if c} <= supp


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_min_reps_examples():
    g = group_of("A", 3)
    assert enumerate_min_reps(g, (1,), (1,)) == frozenset({g.identity})
    assert len(enumerate_min_reps(g, g.diagram.nodes, (1, 3))) == 6
    d4 = group_of("D", 4)
    assert len(enumerate_min_reps(d4, d4.diagram.nodes, (1, 2, 3))) == 8


CLASSICAL_ORDERS = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2 ** n * math.factorial(n),
    "C": lambda n: 2 ** n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
}


def test_weyl_order_matches_enumeration():
    """The height product against the classical orders and full enumeration."""
    for series, rank in [("A", 3), ("B", 3), ("C", 2), ("D", 4)]:
        g = group_of(series, rank)
        assert weyl_order(g.diagram, g.diagram.nodes) == \
            len(weyl_elements(g, g.diagram.nodes))
    for series, low in [("A", 1), ("B", 2), ("C", 2), ("D", 4)]:
        for rank in range(low, 9):
            d = build_diagram(series, rank)
            assert weyl_order(d, d.nodes) == CLASSICAL_ORDERS[series](rank)
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        g = group_of(series, rank, affine=True)
        nodes = g.diagram.nodes
        for k in range(len(nodes)):  # every proper subset is of finite type
            for sub in itertools.combinations(nodes, k):
                assert weyl_order(g.diagram, sub) == len(weyl_elements(g, sub)), sub
    d4t = group_of("D", 4, affine=True)
    assert weyl_order(d4t.diagram, (0, 1, 2, 3)) == 192  # D4-shaped subset
    assert weyl_order(d4t.diagram, (0, 2)) == 6


def test_weyl_order_exceptional_classification():
    e7 = build_diagram("E", 7)
    assert weyl_order(e7, e7.nodes) == 2903040
    assert weyl_order(e7, (1, 3, 4, 5, 6, 2)) == 51840  # E6 sub-shape
    assert weyl_order(e7, (2, 3, 4, 5)) == 192          # D4 fork at node 4
    e8 = build_diagram("E", 8)
    assert weyl_order(e8, e8.nodes) == 696729600


def test_e6_quotient_has_27_lines():
    g = group_of("E", 6, affine=True)
    reps = enumerate_min_reps(g, tuple(range(1, 7)), (2, 3, 4, 5, 6))
    assert len(reps) == 27


# -- carried length against the stripped length -----------------------------------------

FINITE_UP_TO_RANK_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                       ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4)]


def stripped_length(x):
    """Slow oracle: a fresh copy carries no length, so it strips a reduced word."""
    return _element(x.group, x.mu).length()


def assert_lengths_carried(x):
    assert x._len is not None
    assert x.length() == stripped_length(x)
    for node, col in zip(x.group.diagram.nodes, x.cols):
        assert x.has_right_descent(node) == (min(col) < 0) == is_negative_vec(col)


@pytest.mark.parametrize("series, rank", FINITE_UP_TO_RANK_4)
def test_carried_length_matches_stripped_length_finite(series, rank):
    g = group_of(series, rank)
    nodes = g.diagram.nodes
    levi = nodes[:-1]
    for x in weyl_elements(g, nodes):
        assert_lengths_carried(x)
        assert_lengths_carried(x.inverse())
        assert x.inverse().length() == x.length()
        for quotient in [levi] + [(i,) for i in nodes if len(nodes) > 1]:
            rep = min_rep(x, quotient)
            assert rep.length() == stripped_length(rep)
    for k in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, k):
            top = longest_element(g, subset)
            assert_lengths_carried(top)
            assert top.length() == len(positive_roots(g.diagram, subset))


@pytest.mark.parametrize("series, rank", AFFINE_TO_RANK_8)
def test_product_carries_the_stripped_length(series, rank):
    """u * w carries l(u) + l(w) - 2 (letters of w that meet a descent) when u
    carries a length.  On seeded affine words, with cancelling products among
    them (u times the inverse of a suffix of its word, and u u^-1), the carried
    length equals the one stripped from a fresh copy; a length-less left factor
    gives a length-less product."""
    g = group_of(series, rank, affine=True)
    nodes = g.diagram.nodes
    rng = random.Random(f"product length {series}{rank}")
    for _ in range(12):
        u, w = (g.from_word(rng.choice(nodes) for _ in range(rng.randrange(3 * rank + 6)))
                for _ in range(2))
        cut = rng.randrange(u.length() + 1)
        suffix_inverse = g.from_word(reversed(u.reduced_word()[cut:]))
        assert (u * suffix_inverse).length() == cut
        for x, y in ((u, w), (w, u), (u, suffix_inverse), (u, u.inverse()), (w * u, w)):
            product = x * y
            assert product._len is not None
            assert product.length() == stripped_length(product)
        assert (_element(g, u.mu) * w)._len is None


def test_inverting_an_identity_product_keeps_the_identity_self_inverse():
    """An element equal to the identity, built from mu without a carried length
    (a product now carries one); its inverse is the group's identity, which must
    stay its own inverse with length 0."""
    g = group_of("A", 2)
    e = _element(g, g.identity.mu)
    assert e == g.identity and e is not g.identity and e._len is None
    assert e.inverse() is g.identity
    assert g.identity.inverse() is g.identity and g.identity._len == 0


@pytest.mark.parametrize("series, rank", [("A", 3), ("C", 3), ("D", 4), ("E", 6)])
def test_carried_length_matches_stripped_length_affine(series, rank):
    g = group_of(series, rank, affine=True)
    nodes = g.diagram.nodes
    rng = random.Random(f"{series}{rank}")
    for _ in range(200):
        x = g.from_word(rng.choice(nodes) for _ in range(rng.randrange(25)))
        assert_lengths_carried(x)
        assert_lengths_carried(x.inverse())
        quotient = nodes[1:]
        rep = min_rep(x, quotient)
        assert rep.length() == stripped_length(rep)
    for k in range(len(nodes)):
        for subset in itertools.combinations(nodes, k):
            top = longest_element(g, subset)
            assert_lengths_carried(top)
            assert top.length() == len(positive_roots(g.diagram, subset))


@pytest.mark.parametrize("series, rank, affine, label", [
    ("A", 3, False, 0), ("A", 3, False, 4), ("A", 3, True, -1), ("C", 2, True, 3)])
def test_foreign_node_label_is_rejected(series, rank, affine, label):
    g = group_of(series, rank, affine)
    x = g.simple[rank]
    with pytest.raises(ValueError, match=f"{label} is not a node"):
        g.identity.mul_simple_right(label)
    with pytest.raises(ValueError, match=f"{label} is not a node"):
        x.has_right_descent(label)


# -- enumeration against the strip-per-edge and right-product oracles ---------------------


def min_rep_bfs(group, span, quotient):
    """Oracle: every left product stripped by ``min_rep``, kept when new."""
    reps, frontier = {group.identity}, [group.identity]
    while frontier:
        fresh = []
        for u in frontier:
            for node in span:
                x = min_rep(u.mul_simple_left(node), quotient)
                if x not in reps:
                    reps.add(x)
                    fresh.append(x)
        frontier = fresh
    return frozenset(reps)


def right_product_bfs(group, span):
    """Oracle: the closure of the identity under right products by span's letters."""
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        fresh = []
        for u in frontier:
            for node in span:
                x = u.mul_simple_right(node)
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        frontier = fresh
    return frozenset(seen)


@pytest.mark.parametrize("series, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_enumeration_matches_min_rep_and_right_product_oracles(series, rank):
    """Every proper node set is a finite-type span; every proper node set a quotient."""
    g = group_of(series, rank, affine=True)
    nodes = g.diagram.nodes
    subsets = [sub for k in range(len(nodes)) for sub in itertools.combinations(nodes, k)]
    for span in subsets:
        elements = weyl_elements(g, span)
        assert elements == right_product_bfs(g, span), span
        for x in elements:
            assert x._len is not None and x.length() == stripped_length(x)
        for quotient in subsets:
            reps = enumerate_min_reps(g, span, quotient)
            assert reps == min_rep_bfs(g, span, quotient), (span, quotient)
            for x in reps:
                assert x._len is not None and x.length() == stripped_length(x)
        assert enumerate_min_reps(g, span, nodes) == frozenset({g.identity})


FINITE_DIAGRAMS = [(series, rank) for series, low in _RANK_BOUNDS.items()
                   for rank in range(low, 6)] + [("E", 6)]


@pytest.mark.parametrize("series, rank", FINITE_DIAGRAMS)
def test_coset_masks_match_the_dot_product_grower_and_the_sign_read(series, rank):
    """On a finite diagram to rank 5 and E6, W^J grown with its pairings carried
    is the set the dot-product cover test grows, for every proper node subset J
    (of at least four nodes on E6, to keep the run short); each element's
    inversion mask is its sign read over sorted Lambda (which the sign-read
    tests hold to the action) and its support mask the letters of a reduced
    word."""
    g = group_of(series, rank)
    nodes = g.diagram.nodes
    for k in range(4 if series == "E" else 0, len(nodes)):
        for quotient in itertools.combinations(nodes, k):
            table = weyl.coset_masks(g, nodes, quotient)
            assert table.keys() == dot_product_min_reps(g, nodes, quotient), quotient
            order = sorted(positive_roots(g.diagram, nodes) - positive_roots(g.diagram, quotient))
            for u, (inv, supp) in table.items():
                assert inv == u.inversion_mask(order)
                assert u.support() == {node for j, node in enumerate(nodes) if supp >> j & 1}


# -- the contexts' coset sets against the left-product oracle ------------------------------


@pytest.mark.parametrize("pair", list(cominuscule_pairs(6)) + [("E", 7, 7)])
def test_cominuscule_grower_matches_the_left_product_search(pair):
    """ctx.min_reps (W^P) and ctx.dual_min_reps (W_d^0) equal min_rep_bfs' sets,
    and each carried length is the length a fresh copy strips: every context to
    rank 6 (E6 included) and E7."""
    ctx = build_context(*pair)
    for grown, span, quotient in ((ctx.min_reps, ctx.finite_nodes, ctx.levi_nodes),
                                  (ctx.dual_min_reps, ctx.affine_levi_nodes, ctx.finite_nodes)):
        assert grown == min_rep_bfs(ctx.group, span, quotient)
        assert all(x._len is not None and x._len == stripped_length(x) for x in grown)


# -- reduced words on the rho vector and sparse products against the column strip ---------

RHO_STRIP_FINITE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                    ("C", 2), ("C", 3), ("D", 4)]
RHO_STRIP_AFFINE = [("A", 1), ("B", 2), ("C", 2), ("A", 3), ("C", 3), ("B", 4), ("D", 5),
                    ("E", 6), ("E", 7), ("E", 8), ("B", 8), ("C", 8)]


def column_strip_word(x):
    """Oracle: strip ``first_right_descent`` by ``mul_simple_right`` until the identity."""
    trace = []
    while (node := x.first_right_descent()) is not None:
        x = x.mul_simple_right(node)
        trace.append(node)
    assert x.is_identity()
    return tuple(reversed(trace))


def rho_strip_cases(series, rank, affine):
    g = group_of(series, rank, affine)
    if not affine:
        return g, sorted(weyl_elements(g, g.diagram.nodes), key=lambda x: x.cols)
    nodes = g.diagram.nodes
    rng = random.Random(f"rho {series}{rank}")
    return g, [g.from_word(rng.choice(nodes) for _ in range(rng.randrange(61)))
               for _ in range(300)]


@pytest.mark.parametrize("series, rank, affine",
                         [(s, r, False) for s, r in RHO_STRIP_FINITE]
                         + [(s, r, True) for s, r in RHO_STRIP_AFFINE])
def test_rho_strip_and_sparse_products_match_column_oracle(series, rank, affine):
    g, elements = rho_strip_cases(series, rank, affine)
    for w in elements:
        fresh = _element(g, w.mu)
        assert fresh._word is None and fresh._len is None
        word = column_strip_word(fresh)
        assert fresh.reduced_word() == word
        assert w.length() == len(word)
        for s in g.diagram.nodes:
            right = w.mul_simple_right(s)
            assert right == w * g.simple[s]
            assert right.length() == len(column_strip_word(right * g.identity))
            assert w.mul_simple_left(s) == g.simple[s] * w


@pytest.mark.parametrize("series, rank", AFFINE_TO_RANK_8)
def test_translations_and_s_theta_from_mu_match_the_column_matrix(series, rank):
    """tau_q built from mu = rho - h^vee nu(q) has the matrix alpha_j -> alpha_j -
    <alpha_j, q> delta of the column model, for seven seeded q and -theta^vee; and
    s_theta embedded from its finite matrix times tau_{-theta^vee} is s_0, the
    convention each affine group checks with s_theta built from its mu."""
    g = group_of(series, rank, affine=True)
    diagram, finite = g.diagram, g.finite_diagram
    delta = diagram.delta
    rng = random.Random(f"translation {series}{rank}")
    theta_covec = theta_coroot(finite)
    qs = [tuple(rng.randrange(-3, 4) for _ in range(rank)) for _ in range(7)]
    for q in qs + [tuple(-x for x in theta_covec)]:
        shifts = [sum(diagram.entry(i, j) * qi for i, qi in enumerate(q, 1))
                  for j in finite.nodes]  # <alpha_j, q>
        shifts.insert(0, -sum(m * x for m, x in zip(delta[1:], shifts)))  # alpha_0 = delta - theta
        model = ColumnMatrix(diagram, [tuple(int(a == b) - s * m for a, m in enumerate(delta))
                                       for b, s in enumerate(shifts)])
        tau = g.from_translation(q)
        assert tau.cols == model.cols
        assert tau.semidirect_pair() == (g.identity, q)
    theta = delta[1:]
    s_theta = g.embed_finite_matrix(tuple(
        tuple((a == j) + diagram.cartan[0][j] * t for a, t in enumerate(theta, 1))
        for j in range(1, rank + 1)))
    assert s_theta * g.from_translation(tuple(-x for x in theta_covec)) == g.simple[0]


@pytest.mark.parametrize("series, rank, cols, message", [
    ("B", 2, ((0, 1), (1, 0)), "not integral"),
    ("A", 2, ((0, 1), (1, 0)), "not the action"),
    ("A", 2, ((1, 1), (0, 1)), "names no element"),
    ("A", 2, ((1,), (0, 1)), "2 columns of 2 entries"),
])
def test_constructor_refuses_a_matrix_outside_the_group(series, rank, cols, message):
    """embed_finite_matrix, the one constructor that reads a matrix, refuses a
    caller's matrix that is no element's action with ValueError: on B2 the swap
    of the two simple roots has a coroot height of 1/2; on A2 it reads back the
    identity's mu; the A2 shear reads the dominant mu (2, 1), not rho; and a
    ragged matrix has the wrong shape.  The class itself takes no matrix."""
    g = group_of(series, rank, affine=True)
    with pytest.raises(ValueError, match=message):
        g.embed_finite_matrix(cols)
    with pytest.raises(TypeError):
        AffineWeylElement(g, g.identity.cols)


@pytest.mark.parametrize("series, rank, affine", [
    ("A", 3, False), ("B", 3, True), ("D", 5, True), ("E", 6, True)])
def test_from_mu_reads_back_the_coroot_heights(series, rank, affine):
    """from_mu inverts coroot_heights on seeded words, and refuses (ValueError) a
    vector of the wrong length, one with a float entry and, in an affine group,
    one off the level of rho."""
    g = group_of(series, rank, affine=affine)
    rng = random.Random(f"from_mu {series}{rank}")
    for _ in range(20):
        w = g.from_word(rng.choice(g.diagram.nodes) for _ in range(rng.randrange(3 * rank)))
        assert g.from_mu(w.coroot_heights()) == w
        assert g.from_mu(w.coroot_heights()).reduced_word() == w.reduced_word()
    with pytest.raises(ValueError, match="entries"):
        g.from_mu((1,) * (len(g.diagram.nodes) + 1))
    with pytest.raises(ValueError, match="integers"):
        g.from_mu((1.0,) + (1,) * (len(g.diagram.nodes) - 1))
    if affine:
        with pytest.raises(ValueError, match="level of rho"):
            g.from_mu((-1,) * len(g.diagram.nodes))


@pytest.mark.parametrize("series, rank, affine, mu", [
    ("A", 1, True, (4, -2)), ("A", 2, False, (5, 1)),
    *(("D", n, True, (0,) + (1,) * (n - 1) + (2,)) for n in (4, 5, 8))])
def test_from_mu_refuses_a_mu_that_names_no_element(series, rank, affine, mu):
    """A mu of the right length and level that names no element is a caller's
    bad input: its strip ends on a dominant mu other than rho, so from_mu
    raises ValueError at once, not InvariantError at the first length().  On
    A~1, (4, -2) strips to (0, 2); on A2, (5, 1) is dominant; on D~n a zero
    coroot height (with mu_n - mu_{n-1} odd) is no element's."""
    g = group_of(series, rank, affine=affine)
    with pytest.raises(ValueError, match="names no element"):
        g.from_mu(mu)


def test_from_mu_keeps_the_word_and_length_it_stripped(monkeypatch):
    """from_mu strips a copy of mu once and keeps the word and length found, so
    neither length() nor reduced_word() strips again."""
    g = group_of("E", 6, affine=True)
    w = g.from_word((0, 2, 4, 3, 1, 5, 6, 4, 2, 0))
    expected = (w.length(), w.reduced_word())
    x = g.from_mu(w.coroot_heights())

    def refuse(*args):
        raise AssertionError("a word was stripped again")

    monkeypatch.setattr(WeylGroup, "_strip", refuse)
    assert (x.length(), x.reduced_word()) == expected


@pytest.mark.parametrize("series, rank", AFFINE_TO_RANK_8)
def test_simple_products_match_the_plain_reflection_oracle(series, rank):
    """Oracle: along 20 seeded words, each right product w s_i equals w applied to
    s_i(alpha_j) = alpha_j - C[i][j] alpha_i column by column, with the carried
    length, and every descent test reads the sign of w(alpha_i).  B/C (and A1)
    bring entries -2, every letter rewrites its own column."""
    g = group_of(series, rank, affine=True)
    diagram = g.diagram
    rng = random.Random(f"kernel {series}{rank}")
    for _ in range(20):
        w, cols, length = g.identity, g.identity.cols, 0
        for _ in range(rng.randrange(4 * rank + 8)):
            node = rng.choice(diagram.nodes)
            assert [w.has_right_descent(i) for i in diagram.nodes] == [
                is_negative_vec(col) for col in cols]
            w = w.mul_simple_right(node)
            cols, length = right_simple_product(diagram, cols, length, node)
            assert (w.cols, w._len) == (cols, length)


MATRIX_ORACLE_FINITE = ([("A", n) for n in range(1, 6)] + [("B", n) for n in (2, 3, 4)]
                        + [("C", n) for n in (3, 4)] + [("D", n) for n in (4, 5)]
                        + [("E", n) for n in (6, 7, 8)])


def oracle_roots(diagram, rng):
    """Sixty real roots: finite roots of either sign, shifted by -1, 0 or 1 delta
    in the affine case."""
    finite = [i for i in diagram.nodes if i != 0]
    shifts = (-1, 0, 1) if diagram.affine else (0,)
    delta = diagram.delta if diagram.affine else (0,) * len(diagram.nodes)
    roots = [tuple(sign * a + k * m for a, m in zip(alpha, delta))
             for alpha in positive_roots(diagram, finite) for sign in (1, -1) for k in shifts]
    return rng.sample(sorted(roots), min(60, len(roots)))


@pytest.mark.parametrize("series, rank, affine",
                         [(s, r, True) for s, r in AFFINE_TO_RANK_8]
                         + [(s, r, False) for s, r in MATRIX_ORACLE_FINITE])
def test_elements_match_the_column_matrix_oracle(series, rank, affine):
    """Oracle: on seeded words, every operation on mu agrees with the column-matrix
    model built from the same letters, which never reads an element: equality and
    hashes, descents, carried and stripped lengths, reduced words, inversion masks, the
    products *, mul_simple_right, mul_simple_left and relabel, act, cols and
    semidirect_pair.  It
    fails on each of these mutations: the sign of the mu update flipped, d_k dropped
    from the inversion rule, and a left product that subtracts alpha_i instead of
    w^{-1}(alpha_i)."""
    g = group_of(series, rank, affine)
    diagram = g.diagram
    nodes = diagram.nodes
    rng = random.Random(f"matrix oracle {series}{rank} {affine}")
    roots = oracle_roots(diagram, rng)
    perms = ([build_context(series, rank, d).involution for d in cominuscule_nodes(series, rank)]
             if affine else [])
    cases = []
    for _ in range(8):
        letters = [rng.choice(nodes) for _ in range(rng.randrange(2 * rank + 6))]
        twice = rng.choice(nodes)
        for word in (letters, letters + [twice, twice]):
            cases.append((g.from_word(word), ColumnMatrix.from_word(diagram, word)))
    for w, model in cases:
        for node in nodes:
            right = w.mul_simple_right(node)
            assert (right.cols, right._len) == right_simple_product(
                diagram, model.cols, model.length, node)
        assert w.cols == model.cols
        assert w.length() == model.length
        fresh = _element(g, w.mu)
        assert fresh == w and hash(fresh) == hash(w) and fresh._len is None
        assert fresh.length() == model.length
        assert w.reduced_word() == fresh.reduced_word() == model.reduced_word()
        assert [w.has_right_descent(i) for i in nodes] == model.descents()
        assert w.first_right_descent() == next(
            (i for i, flag in zip(nodes, model.descents()) if flag), None)
        assert decode(roots, w.inversion_mask(roots)) == model.inversions(roots)
        u, q = w.semidirect_pair()
        model_ucols, model_q = model.semidirect_pair()
        assert u == g.embed_finite_matrix(model_ucols) and q == model_q
        for node in nodes:
            assert w.mul_simple_left(node).cols == model.mul_simple_left(node).cols
        vec = tuple(rng.randrange(-3, 4) for _ in nodes)
        assert w.act(vec) == model.act(vec)
        for perm in perms:
            twisted = w.relabel(perm)
            assert twisted.cols == model.relabel(perm).cols and twisted.length() == model.length
    for (x, mx), (y, my) in itertools.product(cases, repeat=2):
        assert (x == y) == (mx.cols == my.cols)
        assert x != y or hash(x) == hash(y)
    for (x, mx), (y, my) in zip(cases, cases[1:]):
        assert (x * y).cols == (mx * my).cols


def test_stripping_builds_no_element(monkeypatch):
    ctx = build_context("E", 7, 7)
    reps = sorted(enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes),
                  key=lambda x: x.cols)
    products = [ctx.w0 * w * ctx.w_levi for w in reps]
    expected = [column_strip_word(x * ctx.group.identity) for x in products]

    def refuse(self, node):
        raise AssertionError("stripping must not build intermediate elements")

    monkeypatch.setattr(AffineWeylElement, "mul_simple_right", refuse)
    for w, word in zip(reps, expected):
        x = ctx.w0 * w * ctx.w_levi
        assert x.length() == len(word)
        assert x.reduced_word() == word
        assert x.support() == frozenset(word)
