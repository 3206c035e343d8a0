"""Diagram construction, root enumeration, and the bilinear form."""

import copy
import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cograss import rootsys
from cograss.rootsys import (
    build_diagram,
    finite_type_nodes,
    fundamental_coweight,
    highest_root,
    inner_form,
    is_finite_type,
    is_real_root,
    pairing,
    positive_roots,
)

from oracles import fraction_minors_positive, is_positive_vec, reflect, reflection_closure

ALL_FINITE = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 8)]
              + [("C", n) for n in range(2, 8)] + [("D", n) for n in range(4, 8)]
              + [("E", 6), ("E", 7)])

CLASSICAL_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
}


def test_affine_a1_is_the_infinity_bond():
    d = build_diagram("A", 1, affine=True)
    assert d.nodes == (0, 1)
    assert d.cartan == ((2, -2), (-2, 2))
    assert d.marks == (1, 1)


def test_d4_fork_labels():
    d = build_diagram("D", 4)
    assert d.entry(2, 3) == d.entry(2, 4) == -1
    assert d.entry(1, 2) == -1 and d.entry(1, 3) == 0 and d.entry(3, 4) == 0


def test_invalid_ranks_rejected():
    with pytest.raises(ValueError, match="rank >= 4"):
        build_diagram("D", 3)
    with pytest.raises(ValueError, match="rank >= 2"):
        build_diagram("B", 1)
    with pytest.raises(ValueError):
        build_diagram("E", 5)
    with pytest.raises(ValueError, match="series"):
        build_diagram("F", 4)


def test_bc_bond_orientation():
    b = build_diagram("B", 3)
    assert b.entry(2, 3) == -1 and b.entry(3, 2) == -2
    c = build_diagram("C", 3)
    assert c.entry(2, 3) == -2 and c.entry(3, 2) == -1
    assert b.symmetrizer == (2, 2, 1)
    assert c.symmetrizer == (1, 1, 2)


def test_positive_roots_a2_and_a1():
    a2 = build_diagram("A", 2)
    assert positive_roots(a2) == frozenset({(1, 0), (0, 1), (1, 1)})
    a1 = build_diagram("A", 1)
    assert positive_roots(a1) == frozenset({(1,)})


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_classical_positive_root_counts(series, rank):
    d = build_diagram(series, rank)
    assert len(positive_roots(d)) == CLASSICAL_POSITIVE_COUNTS[series](rank)


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_reflection_closure_fixed_point(series, rank):
    d = build_diagram(series, rank)
    pos = positive_roots(d)
    both = pos | {tuple(-x for x in v) for v in pos}
    for vec in both:
        for node in d.nodes:
            assert reflect(d, node, vec) in both


ROOT_ORACLE_DIAGRAMS = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)]
                        + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(4, 7)]
                        + [("E", 6)])


@pytest.mark.parametrize("series,rank", ROOT_ORACLE_DIAGRAMS)
def test_upward_growth_matches_the_reflection_closure(series, rank):
    """Oracle: Phi+_S grown upward equals the reflect-and-filter closure on every
    node subset of the finite diagram and every proper one of the affine diagram."""
    for affine in (False, True):
        d = build_diagram(series, rank, affine=affine)
        for size in range(1, len(d.nodes) + (not affine)):
            for nodes in itertools.combinations(d.nodes, size):
                assert positive_roots(d, nodes) == reflection_closure(d, nodes)


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_affine_marks_span_kernel(series, rank):
    d = build_diagram(series, rank, affine=True)
    n = len(d.nodes)
    for i in range(n):
        assert sum(d.cartan[i][j] * d.marks[j] for j in range(n)) == 0
    assert d.marks[0] == 1


def test_positive_roots_rejects_affine():
    with pytest.raises(ValueError, match="infinite"):
        positive_roots(build_diagram("A", 2, affine=True))


def test_highest_roots():
    assert highest_root(build_diagram("A", 2)) == (1, 1)
    assert highest_root(build_diagram("A", 1)) == (1,)
    assert highest_root(build_diagram("D", 4)) == (1, 2, 1, 1)
    assert highest_root(build_diagram("E", 7)) == (2, 2, 3, 4, 3, 2, 1)


def test_highest_root_needs_connected_nodes():
    d = build_diagram("A", 3)
    with pytest.raises(ValueError, match="disconnected"):
        highest_root(d, (1, 3))


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_highest_root_is_unique_maximum(series, rank):
    d = build_diagram(series, rank)
    top = highest_root(d)
    for alpha in positive_roots(d):
        assert all(a <= t for a, t in zip(alpha, top))


def test_highest_root_on_connected_subdiagrams():
    d = build_diagram("E", 6, affine=True)
    for nodes in [(0, 2, 4), (3, 4, 5), (1, 3, 4, 2)]:
        top = highest_root(d, nodes)
        assert all(a <= t for alpha in positive_roots(d, nodes) for a, t in zip(alpha, top))


def test_inner_form_examples():
    a1t = build_diagram("A", 1, affine=True)
    assert inner_form(a1t, a1t.delta, a1t.simple_root(1)) == 0
    for series, rank in ALL_FINITE:
        d = build_diagram(series, rank)
        for i in d.nodes:
            v = d.simple_root(i)
            assert inner_form(d, v, v) == 2 * d.symmetrizer[d.index(i)] > 0
    c2t = build_diagram("C", 2, affine=True)
    for i in c2t.nodes:
        for j in c2t.nodes:
            a, b = c2t.simple_root(i), c2t.simple_root(j)
            assert inner_form(c2t, a, b) == inner_form(c2t, b, a)


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_reflection_agrees_with_form(series, rank):
    # s_i(x) = x - 2(a_i|x)/(a_i|a_i) a_i must match the Cartan-matrix action
    d = build_diagram(series, rank)
    for node in d.nodes:
        simple = d.simple_root(node)
        norm = inner_form(d, simple, simple)
        for beta in positive_roots(d):
            coeff = 2 * inner_form(d, simple, beta)
            assert coeff % norm == 0
            expected = tuple(b - (coeff // norm) * a for a, b in zip(simple, beta))
            assert reflect(d, node, beta) == expected


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_pairing_bilinearity(a, lam, mu):
    d = build_diagram("B", 3)
    total = [x + y for x, y in zip(lam, mu)]
    assert pairing(d, tuple(a), tuple(total)) == \
        pairing(d, tuple(a), tuple(lam)) + pairing(d, tuple(a), tuple(mu))


@given(st.sampled_from(ALL_FINITE), st.data())
def test_delta_orthogonal_to_everything(pair, data):
    series, rank = pair
    d = build_diagram(series, rank, affine=True)
    vec = tuple(data.draw(st.integers(-4, 4)) for _ in d.nodes)
    assert inner_form(d, d.delta, vec) == 0


def test_fundamental_coweight_duality():
    for series, rank in [("A", 3), ("B", 3), ("C", 4), ("D", 5), ("E", 6)]:
        d = build_diagram(series, rank)
        for node in d.nodes:
            cw = fundamental_coweight(d, node)
            for j in d.nodes:
                expected = Fraction(1) if j == node else Fraction(0)
                assert pairing(d, d.simple_root(j), cw) == expected


def test_finite_type_detection():
    a2t = build_diagram("A", 2, affine=True)
    assert not is_finite_type(a2t)
    assert is_finite_type(a2t, (0, 1))
    d4t = build_diagram("D", 4, affine=True)
    assert is_finite_type(d4t, (0, 1, 2, 3))
    assert not is_finite_type(d4t, (0, 1, 2, 3, 4))


def test_finite_type_nodes_matches_leading_minor_oracle():
    """Kac's lemma against the determinant test: every node subset, the empty
    one included, of A1-A8, B2-B8, C2-C8, D4-D8 and E6-E8, finite and affine."""
    series = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
              + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
              + [("E", n) for n in (6, 7, 8)])
    checked = 0
    for (name, rank), affine in itertools.product(series, (False, True)):
        d = build_diagram(name, rank, affine)
        for k in range(len(d.nodes) + 1):
            for nodes in itertools.combinations(d.nodes, k):
                try:
                    accepted = finite_type_nodes(d, nodes) == nodes
                except ValueError:
                    accepted = False
                assert accepted == is_finite_type(d, nodes), (name, rank, affine, nodes)
                checked += 1
    assert checked == 7410


def test_hand_built_diagram_is_refused():
    """Kac's lemma covers build_diagram's diagrams only: an indefinite Cartan
    matrix on the affine A3 nodes raises instead of enumerating forever."""
    a3t = build_diagram("A", 3, affine=True)
    cartan = [list(row) for row in a3t.cartan]
    cartan[0][1] = cartan[1][0] = -3
    bad = dataclasses.replace(a3t, cartan=tuple(tuple(row) for row in cartan))
    assert not is_finite_type(bad, (0, 1))
    with pytest.raises(ValueError, match="build_diagram"):
        positive_roots(bad, (0, 1))


def test_integer_minor_test_matches_the_fraction_oracle():
    """Bareiss elimination against elimination in Fractions: both accept the
    symmetrized Cartan matrix of every finite diagram to rank 12, and both
    refuse every affine one (its determinant is 0), with the nodes in order
    and reversed."""
    from cograss.rootsys import _leading_minors_positive, _symmetrized
    series = ([("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 13)]
              + [("C", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
              + [("E", n) for n in (6, 7, 8)])
    for (name, rank), affine in itertools.product(series, (False, True)):
        sym = _symmetrized(build_diagram(name, rank, affine))
        flipped = [row[::-1] for row in reversed(sym)]
        for matrix in (sym, flipped):
            assert _leading_minors_positive(matrix) == fraction_minors_positive(matrix) \
                == (not affine), (name, rank, affine)


def test_hand_built_diagram_is_refused_by_the_real_root_test():
    """is_real_root keeps positive_roots' refusal of a diagram build_diagram did
    not make, on every call, and accepts the built one."""
    a3 = build_diagram("A", 3)
    bad = dataclasses.replace(a3)
    for _ in range(2):
        with pytest.raises(ValueError, match="build_diagram"):
            is_real_root(bad, (1, 1, 0))
    assert is_real_root(a3, (1, 1, 0)) and is_real_root(a3, (0, -1, -1))
    assert not is_real_root(a3, (1, 0, 1))


def test_positive_roots_validate_each_node_set_once_per_diagram(monkeypatch):
    """Op-count gate: finite_type_nodes checks a node set once per diagram, and
    later calls, in any order or container, return the stored roots.  A set
    that fails validation raises every time and is never stored, and a copy of a
    built diagram is refused although it reaches the stored roots."""
    d = build_diagram("E", 7, affine=True)
    key = (2, 3, 4)
    d._positive_roots.pop(key, None)
    checked = []
    real = rootsys.finite_type_nodes

    def counting(diagram, nodes):
        checked.append(tuple(sorted(nodes)))
        return real(diagram, nodes)

    monkeypatch.setattr(rootsys, "finite_type_nodes", counting)
    first = positive_roots(d, (4, 2, 3))
    for spelling in ([2, 3, 4], {3, 4, 2}, iter((3, 2, 4)), frozenset((4, 3, 2))):
        assert positive_roots(d, spelling) is first
    assert checked == [(2, 3, 4)] and d._positive_roots[key] is first
    for bad, message in [(d.nodes, "infinite"), ((2, 9), "not nodes")]:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                positive_roots(d, bad)
        assert tuple(sorted(bad)) not in d._positive_roots
    twin = copy.copy(d)
    assert twin == d and twin._positive_roots is d._positive_roots
    with pytest.raises(ValueError, match="build_diagram"):
        positive_roots(twin, (2, 3, 4))


@pytest.mark.parametrize("series,rank", [("A", 1), ("C", 3), ("D", 4), ("E", 7)])
def test_one_diagram_object_per_series_rank_and_form(series, rank):
    """However the call is spelled, and whether it comes from the affine build
    or from a Weyl group, (series, rank, affine) names one diagram object."""
    from cograss.cominuscule import build_context, cominuscule_nodes
    from cograss.weyl import WeylGroup
    finite = build_diagram(series, rank)
    assert build_diagram(series, rank, False) is finite
    assert build_diagram(series, rank, affine=False) is finite
    affine = build_diagram(series, rank, affine=True)
    assert build_diagram(series, rank, True) is affine
    assert WeylGroup(affine).finite_diagram is finite
    ctx = build_context(series, rank, cominuscule_nodes(series, rank)[-1])
    assert ctx.finite_diagram is finite and ctx.affine_diagram is affine


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 3), ("B", 3), ("D", 4)])
def test_affine_positivity_characterization(series, rank):
    # all-coefficients-nonnegative must agree with: level > 0, or level 0
    # and the finite part positive
    affine = build_diagram(series, rank, affine=True)
    finite = build_diagram(series, rank)
    from cograss.rootsys import is_real_root
    for base in positive_roots(finite):
        for sign in (1, -1):
            fin = tuple(sign * x for x in base)
            for level in range(-3, 4):
                vec = tuple(level * m for m in affine.delta)
                vec = (vec[0],) + tuple(v + f for v, f in zip(vec[1:], fin))
                assert is_real_root(affine, vec)
                by_rule = level > 0 or (level == 0 and sign == 1)
                assert is_positive_vec(vec) == by_rule


def test_e8_buildable_but_not_cominuscule():
    from cograss.cominuscule import cominuscule_nodes
    d = build_diagram("E", 8)
    assert len(positive_roots(d)) == 120
    assert cominuscule_nodes("E", 8) == ()
