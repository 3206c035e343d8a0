"""Cominuscule contexts: a finite diagram with a chosen cominuscule node.

A simple root is cominuscule when its coefficient in delta (equivalently
in the highest root) is 1.  Fixing such a node d determines the whole
setup used downstream: the Levi node set J (finite nodes minus d), the
affine Levi node set (all affine nodes minus d), the diagram involution
swapping node 0 with node d, the longest elements of the three parabolic
subgroups, the distinguished translation element of the affine Weyl
group, the cotangent roots Phi+ minus Phi+_levi (the roots of T_eP(G/P)),
and, built on first use, the coset sets W^P (indexing X(w) in G/P) and
W_d^0 (holding the twisted duals), the affine-Levi roots Phi+_{aff Levi} =
iota(Phi+) with their support masks (relabelled from the roots the build
grew), the dual cotangent roots Phi+_{aff Levi} minus Phi+_levi (those of
them involving alpha_0, iota of the cotangent roots) and their negation
psi.  Both coset sets are cominuscule quotients, ordered by containment
of inversion sets: W^P on the cotangent roots and W_d^0 on the dual ones
(Proctor, Europ. J. Combin. 5, 1984; Stembridge, J. Algebraic Combin. 5,
1996), and ``weyl.enumerate_min_reps`` grows both with no product, each
cover subtracting one of those roots from mu.  The context owns
``conormal``'s per-element memos, so they die with it.

The build reads its data and solves nothing: the involution comes off w_levi(alpha_j)
= -alpha_iota(j) on the Levi nodes, never from case tables (the type-D closed form is a
test downstream), the highest roots are delta - alpha_0 and delta - alpha_d, and
the translation element is tau_q, q = w0(omega_d^vee) - omega_d^vee read off 2 rho_P.
The ``result-q`` check compares tau_q with the product of two minimal
representatives and with w0 w_levi w_aff_levi w_levi, and ``wsontheta`` compares
the highest roots with the root searches and with w_levi(alpha_d), w_levi(alpha_0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import mul

from .rootsys import DynkinDiagram, Vector, build_diagram, is_root, require
from .weyl import (
    AffineWeylElement,
    WeylGroup,
    enumerate_min_reps,
    longest_element,
    positive_roots_of,
)


@dataclass(frozen=True, eq=False)
class CominusculeContext:
    """Validated bundle of data attached to one cominuscule pair, with its memos."""

    series: str
    rank: int
    cominuscule_node: int
    finite_diagram: DynkinDiagram
    affine_diagram: DynkinDiagram
    group: WeylGroup
    finite_nodes: tuple[int, ...]
    levi_nodes: tuple[int, ...]          # finite nodes minus the cominuscule node
    affine_levi_nodes: tuple[int, ...]   # affine nodes minus the cominuscule node
    involution: tuple[int, ...]          # node permutation, position = node
    w0: AffineWeylElement                # longest element of the finite Weyl group
    w_levi: AffineWeylElement            # longest element on levi_nodes
    w_affine_levi: AffineWeylElement     # longest element on affine_levi_nodes
    highest_root_finite: Vector          # theta_0, affine coordinates
    highest_root_affine_levi: Vector     # delta - alpha_d, affine coordinates
    translation_coroot: Vector
    translation_element: AffineWeylElement
    dim_quotient: int
    cotangent_roots: frozenset[Vector] = field(repr=False)  # Phi+ minus Phi+_levi: T_eP(G/P)
    # conormal's per-element memos, filled on first use: w -> report, u -> smoothness
    element_reports: dict = field(default_factory=dict, init=False, repr=False)
    smoothness_reports: dict = field(default_factory=dict, init=False, repr=False)

    def iota_root(self, vec: Vector) -> Vector:
        """Apply the diagram involution to a lattice vector."""
        out = [0] * len(vec)
        for node, value in enumerate(vec):
            if value:
                out[self.involution[node]] = value
        return tuple(out)

    def iota_elem(self, w: AffineWeylElement) -> AffineWeylElement:
        """Conjugation by the involution, w -> iota w iota, through ``weyl``'s
        ``relabel``; the build validated iota as a diagram automorphism."""
        if w.group is not self.group:
            raise ValueError("element does not live in this context's Weyl group")
        return w.relabel(self.involution)

    @functools.cached_property
    def min_reps(self) -> frozenset[AffineWeylElement]:
        """W^P: minimal representatives of the finite Weyl group over the Levi,
        grown one cotangent root per cover."""
        return enumerate_min_reps(self.group, self.finite_nodes, self.levi_nodes)

    @functools.cached_property
    def dual_min_reps(self) -> frozenset[AffineWeylElement]:
        """W_d^0: minimal representatives of the affine Levi over the finite nodes,
        grown one dual cotangent root per cover."""
        return enumerate_min_reps(self.group, self.affine_levi_nodes, self.finite_nodes)

    @functools.cached_property
    def affine_levi_roots(self) -> dict[Vector, int]:
        """Phi+_{aff Levi} as iota(Phi+), each root mapped to the bit mask of its
        support.  iota carries the finite nodes onto the affine-Levi nodes, so this
        relabels the roots the build grew and grows none; iota is an involution,
        so (iota alpha)_k = alpha_iota(k)."""
        image = (tuple(alpha[j] for j in self.involution)
                 for alpha in positive_roots_of(self.group, self.finite_nodes))
        return {beta: sum(1 << i for i, c in enumerate(beta) if c) for beta in image}

    @functools.cached_property
    def dual_cotangent_roots(self) -> frozenset[Vector]:
        """Phi+_{aff Levi} minus Phi+_levi, which is iota of the cotangent roots:
        the affine-Levi roots involving alpha_0, on which the elements of W_d^0
        are read as inversion sets."""
        return frozenset(beta for beta in self.affine_levi_roots if beta[0])

    @functools.cached_property
    def shifted_cotangent_roots(self) -> frozenset[Vector]:
        """psi: the negated dual cotangent roots."""
        return frozenset(tuple(-x for x in beta) for beta in self.dual_cotangent_roots)

    @functools.cached_property
    def shifted_root_sums(self) -> frozenset[Vector]:
        """The sums x + y over x, y in psi that are roots, one test per unordered pair."""
        pairs = combinations_with_replacement(self.shifted_cotangent_roots, 2)
        sums = (tuple(a + b for a, b in zip(x, y)) for x, y in pairs)
        return frozenset(total for total in sums if is_root(self.affine_diagram, total))

    def delta(self) -> Vector:
        return self.affine_diagram.delta

    def simple_root(self, node: int) -> Vector:
        return self.affine_diagram.simple_root(node)


def cominuscule_nodes(series: str, rank: int) -> tuple[int, ...]:
    """Nodes whose mark in delta equals 1 (empty for E8)."""
    diagram = build_diagram(series, rank, affine=True)
    return tuple(node for node in range(1, rank + 1) if diagram.delta[node] == 1)


@functools.lru_cache(maxsize=None)
def build_context(series: str, rank: int, node: int) -> CominusculeContext:
    """Build and validate the full cominuscule context for (series, rank, node)."""
    finite = build_diagram(series, rank, affine=False)
    affine = build_diagram(series, rank, affine=True)
    if node not in finite.nodes:
        raise ValueError(f"{node} is not a node of {series}_{rank}")
    mark = affine.delta[node]
    if mark != 1:
        raise ValueError(
            f"node {node} of {series}_{rank} is not cominuscule: "
            f"its coefficient in delta is {mark}")

    group = WeylGroup(affine)
    finite_nodes = finite.nodes
    levi = tuple(i for i in finite_nodes if i != node)
    affine_levi = tuple(i for i in affine.nodes if i != node)

    w_levi = longest_element(group, levi)
    w0 = longest_element(group, finite_nodes)
    w_affine_levi = longest_element(group, affine_levi)

    involution = _involution_from_levi(affine, node, levi, w_levi)
    _validate_involution(affine, involution)

    # the marks are (1,) + theta, so theta_0 = delta - alpha_0 and theta_d = delta - alpha_d
    theta0, thetad = (tuple(m - (i == k) for i, m in enumerate(affine.delta))
                      for k in (0, node))

    cotangent = positive_roots_of(group, finite_nodes) - positive_roots_of(group, levi)
    coroot = _integral_shift(affine, w0, node, cotangent)
    tau = group.from_translation(coroot)

    return CominusculeContext(
        series=series, rank=rank, cominuscule_node=node,
        finite_diagram=finite, affine_diagram=affine, group=group,
        finite_nodes=finite_nodes, levi_nodes=levi, affine_levi_nodes=affine_levi,
        involution=involution,
        w0=w0, w_levi=w_levi, w_affine_levi=w_affine_levi,
        highest_root_finite=theta0, highest_root_affine_levi=thetad,
        translation_coroot=coroot, translation_element=tau,
        dim_quotient=len(cotangent), cotangent_roots=cotangent,
    )


def _involution_from_levi(affine: DynkinDiagram, node: int, levi: tuple[int, ...],
                          w_levi: AffineWeylElement) -> tuple[int, ...]:
    """iota swaps node 0 with node d and is -w_J on the Levi: w_J sends each simple root
    of J to minus one, w_J(alpha_j) = -alpha_iota(j), so iota(j) is read off w_J(alpha_j)."""
    mapping = {0: node, node: 0}
    for j in levi:
        image = w_levi.act(affine.simple_root(j))
        mapping[j] = target = image.index(min(image))
        require(target in levi and image == tuple(-x for x in affine.simple_root(target)),
                "-w_J does not permute the Levi simple roots")
    return tuple(mapping[i] for i in affine.nodes)


def _validate_involution(affine: DynkinDiagram, involution: tuple[int, ...]) -> None:
    """iota is a node involution that preserves the Cartan matrix.  That it fixes delta
    needs no check: such a permutation maps the one-dimensional kernel of the affine
    Cartan matrix to itself, and so fixes its primitive positive vector delta."""
    nodes = affine.nodes
    require(sorted(involution) == list(nodes), "involution is not a node permutation")
    for i in nodes:
        require(involution[involution[i]] == i, "node map is not an involution")
        for j in nodes:
            require(affine.entry(involution[i], involution[j]) == affine.entry(i, j),
                    "involution does not preserve the Cartan matrix")


def _integral_shift(affine: DynkinDiagram, w0: AffineWeylElement, node: int,
                    cotangent: frozenset[Vector]) -> Vector:
    """q = w0(omega_d^vee) - omega_d^vee in the coroot basis, required to be integral.

    Levi reflections permute the cotangent roots, so their sum 2 rho_P pairs to 0
    with every Levi coroot: 2 rho_P = c omega_d, c = <2 rho_P, alpha_d^vee>.  The
    form carries alpha_j^vee to alpha_j/d_j, as (alpha_j|alpha_j) = 2 d_j for the
    symmetrizer d, so omega_d^vee to omega_d/d_d: q_j = d_j ((w0 - 1) 2 rho_P)_j / (c d_d).
    """
    rho2 = tuple(map(sum, zip(*cotangent)))
    den = sum(map(mul, affine.cartan[node], rho2)) * affine.symmetrizer[node]
    nums = [dj * (moved - x) for dj, moved, x in zip(affine.symmetrizer, w0.act(rho2), rho2)][1:]
    require(all(num % den == 0 for num in nums),
            "w0(coweight) - coweight left the coroot lattice")
    return tuple(num // den for num in nums)
