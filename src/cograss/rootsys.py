"""Dynkin diagrams and root systems over exact integer arithmetic.

Supported series are A (n >= 1), B (n >= 2), C (n >= 2), D (n >= 4) and
E (n in {6, 7, 8}), each in its finite form and in its untwisted affine
extension.  Node labels follow the classical tables: finite nodes are
1..n (D_n forks at n-2, E-series hang node 2 off node 4), and the affine
node is 0.

Roots, coweights and the imaginary root delta are plain integer (or
Fraction) tuples indexed by the diagram's nodes; no floating point is
used anywhere.  The affine Cartan matrix is not tabulated: it is derived
from the finite highest root theta and the invariant bilinear form, and
the resulting mark vector is checked to span the kernel of the affine
Cartan matrix.  A broken invariant, here or in any later layer, raises
``InvariantError``, which ``python -O`` does not strip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 2, "D": 4}
_E_RANKS = (6, 7, 8)


class InvariantError(Exception):
    """An internal invariant of cograss is broken: a bug, not a usage error."""


def require(cond: bool, msg: str) -> None:
    """Raise ``InvariantError(msg)`` unless ``cond`` holds."""
    if not cond:
        raise InvariantError(msg)


@dataclass(frozen=True)
class DynkinDiagram:
    """A validated finite or untwisted-affine Dynkin diagram.

    ``cartan[i][j]`` is the pairing <alpha_j, alpha_i^vee>, so the simple
    reflection acts by s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i.
    ``marks`` (affine only) are the coefficients of delta in the simple
    root basis; ``symmetrizer`` is the minimal positive integer vector d
    with d_i C[i][j] symmetric.  ``_positive_roots`` holds Phi+ by sorted node
    tuple for each node set that ``positive_roots`` has validated on this very
    object; it takes no part in equality, hashing or ``dataclasses.replace``,
    and neither does the cached +-Phi set ``_finite_real_roots``.
    """

    series: str
    rank: int
    affine: bool
    nodes: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    marks: Optional[tuple[int, ...]] = None
    _positive_roots: dict[tuple[int, ...], frozenset[Vector]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def index(self, node: int) -> int:
        """Position of ``node`` in ``nodes``; ValueError for a foreign label."""
        i = node - self.nodes[0]
        if 0 <= i < len(self.nodes):
            return i
        raise ValueError(f"{node} is not a node of the diagram")

    def entry(self, i: int, j: int) -> int:
        """Cartan entry <alpha_j, alpha_i^vee> by node labels."""
        return self.cartan[self.index(i)][self.index(j)]

    @property
    def delta(self) -> Vector:
        if not self.affine:
            raise ValueError("delta exists only for affine diagrams")
        return self.marks

    def simple_root(self, node: int) -> Vector:
        vec = [0] * len(self.nodes)
        vec[self.index(node)] = 1
        return tuple(vec)

    @functools.cached_property
    def _finite_real_roots(self) -> frozenset[Vector]:
        """+-Phi of the finite diagram, or of the finite part of an affine one, for
        ``is_real_root``: kept once ``positive_roots`` has accepted it, so a
        refusal is raised again on every call."""
        finite = _finite_diagram(self.series, self.rank) if self.affine else self
        pos = positive_roots(finite)
        return pos | frozenset(tuple(-x for x in alpha) for alpha in pos)


def _edges(series: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Bonds as (i, j, C[i][j], C[j][i]) over finite node labels."""
    if series in ("A", "B", "C"):
        edges = [(i, i + 1, -1, -1) for i in range(1, rank - 1)]
        if series == "A":
            if rank >= 2:
                edges.append((rank - 1, rank, -1, -1))
        elif series == "B":
            # alpha_n is the short root: <a_{n-1}, a_n^vee> = -2
            edges.append((rank - 1, rank, -1, -2))
        else:
            # C_n: alpha_n is the long root
            edges.append((rank - 1, rank, -2, -1))
        return edges
    if series == "D":
        edges = [(i, i + 1, -1, -1) for i in range(1, rank - 2)]
        edges.append((rank - 2, rank - 1, -1, -1))
        edges.append((rank - 2, rank, -1, -1))
        return edges
    spine = [(1, 3), (3, 4), (4, 5), (5, 6)]  # series E, validated by the caller
    spine += [(6, 7)] if rank >= 7 else []
    spine += [(7, 8)] if rank == 8 else []
    spine.append((2, 4))
    return [(a, b, -1, -1) for a, b in spine]


def _minimal_symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i C[i][j] = d_j C[j][i]."""
    n = len(cartan)
    d: list[Optional[Fraction]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    denom = lcm(*(x.denominator for x in d))  # type: ignore[union-attr]
    ints = [int(x * denom) for x in d]  # type: ignore[operator]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def solve_exact(matrix: Sequence[Sequence[Fraction | int]],
                rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Solve a small square linear system exactly by Gaussian elimination."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def _leading_minors_positive(sym: Sequence[Sequence[int]]) -> bool:
    """Whether every leading principal minor is positive, by fraction-free
    (Bareiss) elimination: after step k the pivot is the (k+1)-th leading minor,
    and each update divides exactly by the previous pivot (Sylvester's identity)."""
    work = [list(row) for row in sym]
    prev = 1
    for k, top in enumerate(work):
        pivot = top[k]
        if pivot <= 0:
            return False
        for r in range(k + 1, len(work)):
            row = work[r]
            factor = row[k]
            work[r] = [(pivot * x - factor * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return True


def is_finite_type(diagram: DynkinDiagram, nodes: Optional[Iterable[int]] = None) -> bool:
    """Whether the sub-diagram on ``nodes`` has positive definite form."""
    chosen = sorted(nodes) if nodes is not None else list(diagram.nodes)
    sym = [[diagram.symmetrizer[diagram.index(i)] * diagram.entry(i, j)
            for j in chosen] for i in chosen]
    return _leading_minors_positive(sym)


def is_connected(diagram: DynkinDiagram, nodes: Iterable[int]) -> bool:
    chosen = set(nodes)
    if not chosen:
        return False
    seen = {next(iter(sorted(chosen)))}
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in chosen - seen:
            if diagram.entry(i, j) != 0:
                seen.add(j)
                stack.append(j)
    return seen == chosen


def build_diagram(series: str, rank: int, affine: bool = False) -> DynkinDiagram:
    """Construct and validate a Dynkin diagram, one object per (series, rank, affine).

    Raises ValueError for invalid (series, rank) pairs, naming the
    violated constraint.
    """
    return _affine_diagram(series, rank) if affine else _finite_diagram(series, rank)


@functools.lru_cache(maxsize=None)
def _finite_diagram(series: str, rank: int) -> DynkinDiagram:
    if series not in ("A", "B", "C", "D", "E"):
        raise ValueError(f"unknown series {series!r}: expected one of A, B, C, D, E")
    if series == "E":
        if rank not in _E_RANKS:
            raise ValueError(f"series E requires rank in {_E_RANKS}, got {rank}")
    elif rank < _RANK_BOUNDS[series]:
        raise ValueError(
            f"series {series} requires rank >= {_RANK_BOUNDS[series]}, got {rank}")

    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _edges(series, rank):
        cartan[i - 1][j - 1] = cij
        cartan[j - 1][i - 1] = cji
    finite = DynkinDiagram(
        series=series, rank=rank, affine=False,
        nodes=tuple(range(1, rank + 1)),
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=_minimal_symmetrizer(cartan),
    )
    _validate_cartan(finite)
    require(_leading_minors_positive(_symmetrized(finite)),
            "finite Cartan matrix is not positive definite")
    return finite


@functools.lru_cache(maxsize=None)
def _affine_diagram(series: str, rank: int) -> DynkinDiagram:
    finite = _finite_diagram(series, rank)
    theta = highest_root(finite)
    d = finite.symmetrizer
    theta_norm = _sym_form(finite, theta, theta)
    aff = [[0] * (rank + 1) for _ in range(rank + 1)]
    aff[0][0] = 2
    for j in range(1, rank + 1):
        pair = _sym_form(finite, theta, finite.simple_root(j))
        c0j = Fraction(-2 * pair, theta_norm)
        cj0 = Fraction(-pair, d[j - 1])
        require(c0j.denominator == 1 and cj0.denominator == 1,
                "affine Cartan entries are not integral")
        aff[0][j] = int(c0j)
        aff[j][0] = int(cj0)
        for k in range(1, rank + 1):
            aff[j][k] = finite.cartan[j - 1][k - 1]
    marks = (1,) + theta
    require(theta_norm % 2 == 0, "(theta|theta) is odd")
    diagram = DynkinDiagram(
        series=series, rank=rank, affine=True,
        nodes=tuple(range(rank + 1)),
        cartan=tuple(tuple(row) for row in aff),
        symmetrizer=(theta_norm // 2,) + d,
        marks=marks,
    )
    _validate_cartan(diagram)
    require(all(sum(c * m for c, m in zip(row, marks)) == 0 for row in diagram.cartan),
            "marks are not in the kernel of the affine Cartan matrix")
    require(gcd(*marks) == 1 and marks[0] == 1, "marks are not primitive with mark 1 at node 0")
    return diagram


def _validate_cartan(diagram: DynkinDiagram) -> None:
    c = diagram.cartan
    n = len(c)
    d = diagram.symmetrizer
    for i in range(n):
        require(c[i][i] == 2, "Cartan diagonal entry is not 2")
        for j in range(n):
            if i != j:
                require(c[i][j] <= 0, "off-diagonal Cartan entry is positive")
                require((c[i][j] == 0) == (c[j][i] == 0), "Cartan zero pattern is not symmetric")
            require(d[i] * c[i][j] == d[j] * c[j][i], "symmetrizer failure")


def _symmetrized(diagram: DynkinDiagram) -> list[list[int]]:
    d = diagram.symmetrizer
    return [[d[i] * x for x in row] for i, row in enumerate(diagram.cartan)]


def _sym_form(diagram: DynkinDiagram, a: Sequence[int], b: Sequence[int]) -> int:
    d = diagram.symmetrizer
    c = diagram.cartan
    total = 0
    for i, ai in enumerate(a):
        if ai:
            total += ai * d[i] * sum(cij * bj for cij, bj in zip(c[i], b) if bj)
    return total


def inner_form(diagram: DynkinDiagram, a: Sequence[int], b: Sequence[int]) -> int:
    """Invariant symmetric bilinear form (a|b), with (a_i|a_j) = d_i C[i][j].

    On an affine diagram (delta | x) = 0 for every x.
    """
    if len(a) != len(diagram.nodes) or len(b) != len(diagram.nodes):
        raise ValueError("vector length does not match the diagram")
    return _sym_form(diagram, a, b)


def pairing(diagram: DynkinDiagram, root: Sequence[int],
            coroot: Sequence[Fraction | int]):
    """<root, coroot> with the coroot in the alpha_i^vee basis."""
    c = diagram.cartan
    return sum(qi * sum(cij * aj for cij, aj in zip(c[i], root) if aj)
               for i, qi in enumerate(coroot) if qi)


def _grow_positive_roots(diagram: DynkinDiagram,
                         nodes: tuple[int, ...]) -> frozenset[Vector]:
    """Phi+_nodes grown upward from the simple roots.

    For a root beta and a node i with c = <beta, alpha_i^vee> < 0, s_i(beta) =
    beta - c alpha_i is a higher positive root, and every non-simple positive
    root arises so from a lower one (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.2), so no image needs a sign test.
    """
    rows = [(k, [(j, c) for j, c in enumerate(diagram.cartan[k]) if c])
            for k in map(diagram.index, nodes)]
    frontier = [diagram.simple_root(i) for i in nodes]
    pos = set(frontier)
    while frontier:
        fresh = []
        for beta in frontier:
            for i, row in rows:
                c = sum(cij * beta[j] for j, cij in row)
                if c < 0:
                    img = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                    if img not in pos:
                        pos.add(img)
                        fresh.append(img)
        frontier = fresh
    return frozenset(pos)


def _require_built(diagram: DynkinDiagram) -> None:
    """ValueError unless ``diagram`` is the very object ``build_diagram`` returns."""
    if diagram is not build_diagram(diagram.series, diagram.rank, diagram.affine):
        raise ValueError("diagram was not made by build_diagram")


def finite_type_nodes(diagram: DynkinDiagram, nodes: Iterable[int]) -> tuple[int, ...]:
    """``nodes`` as a sorted tuple; ValueError unless they span a finite type.

    Only diagrams made by ``build_diagram`` are accepted.  On those the
    answer needs no computation: a finite diagram is of finite type, and
    every proper node subset of a connected untwisted affine diagram is of
    finite type (Kac, Infinite-dimensional Lie algebras, Lemma 4.5), so
    the full affine node set is the one rejected.
    """
    _require_built(diagram)
    chosen = tuple(sorted(set(nodes)))
    if not set(chosen) <= set(diagram.nodes):
        raise ValueError(f"nodes {chosen} are not nodes of the diagram")
    if diagram.affine and len(chosen) == len(diagram.nodes):
        raise ValueError("the full affine node set is infinite: it has infinitely "
                         "many roots and generates an infinite Weyl group")
    return chosen


def positive_roots(diagram: DynkinDiagram,
                   nodes: Optional[Iterable[int]] = None) -> frozenset[Vector]:
    """All positive roots of the (sub-)diagram, as coefficient vectors.

    Without ``nodes`` the diagram must be finite; with ``nodes`` the
    chosen subset must be of finite type (affine root systems are
    infinite and are rejected).  Every call checks that the diagram is
    ``build_diagram``'s own object; each node set is then validated by
    ``finite_type_nodes`` and grown once per diagram, and later calls read
    its roots off the diagram, keyed by the sorted node tuple (a few dozen
    bytes, where a frozenset of five or more nodes takes 728).  A set that
    fails validation raises every time and is never stored.
    """
    key = diagram.nodes if nodes is None else tuple(sorted(nodes))
    roots = diagram._positive_roots.get(key)
    if roots is None:  # finite_type_nodes checks the diagram as well as the set
        roots = _grow_positive_roots(diagram, finite_type_nodes(diagram, key))
        diagram._positive_roots[key] = roots
    else:
        _require_built(diagram)
    return roots


def highest_root(diagram: DynkinDiagram,
                 nodes: Optional[Iterable[int]] = None) -> Vector:
    """The componentwise maximum of the positive roots on a connected set."""
    chosen = tuple(sorted(nodes)) if nodes is not None else diagram.nodes
    if not is_connected(diagram, chosen):
        raise ValueError(f"node set {tuple(chosen)} is disconnected: no highest root")
    roots = positive_roots(diagram, chosen)
    top = tuple(max(r[k] for r in roots) for k in range(len(diagram.nodes)))
    require(top in roots, "componentwise maximum is not a root")
    return top


def fundamental_coweight(diagram: DynkinDiagram, node: int) -> tuple[Fraction, ...]:
    """Coordinates of the fundamental coweight dual to ``node``.

    Expressed in the coroot basis; exact rationals (the coweight need not
    lie in the coroot lattice).  <alpha_j, sum_i q_i alpha_i^vee> = sum_i q_i C[i][j],
    so this solves C^T q = e_node.
    """
    if diagram.affine:
        raise ValueError("fundamental coweights are taken in the finite diagram")
    n = len(diagram.nodes)
    rhs = [0] * n
    rhs[diagram.index(node)] = 1
    return solve_exact([[diagram.cartan[i][j] for i in range(n)] for j in range(n)], rhs)


def is_real_root(diagram: DynkinDiagram, vec: Vector) -> bool:
    """Whether a lattice vector is +-alpha for a positive root alpha, plus n*delta
    in the affine case: the affine vector is reduced to its finite part first,
    and read against the one +-Phi set kept on the diagram."""
    if diagram.affine:
        level = vec[0]
        vec = tuple(x - level * m for x, m in zip(vec, diagram.marks))[1:]
    return vec in diagram._finite_real_roots


def is_root(diagram: DynkinDiagram, vec: Vector) -> bool:
    """Real or imaginary root test (imaginary = nonzero multiple of delta)."""
    if not any(vec):
        return False
    if diagram.affine:
        level = vec[0]
        if level and vec == tuple(level * m for m in diagram.delta):
            return True
    return is_real_root(diagram, vec)
