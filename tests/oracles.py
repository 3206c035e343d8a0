"""Slow independent routes that the tests hold the library's closed forms to.

Each oracle filters or solves where the library reads: positive roots by
reflect-and-filter closure, leading minors by elimination in Fractions,
root signs by coefficient signs, coroot coordinates and translation parts
by an exact Gaussian elimination,
"is w a translation?" by a test on the columns of its matrix, and the
right product w s_i by applying w to each reflected simple root.
``chain_longest_element`` and ``chain_min_rep`` walk a chain of elements,
one right product per descent test, where the library strips a copy of mu.
``grown_c5`` tests the c5 smoothness criterion on root sets grown for each
support, where ``conormal.is_smooth`` reads them off one table by support mask.
``ColumnMatrix`` models a whole element as the matrix of its action, built
from letters the test chooses, so it never reads the element it checks.
"""

from fractions import Fraction
from typing import Sequence

from cograss.rootsys import DynkinDiagram, Vector, build_diagram, positive_roots, solve_exact


def reflect(diagram: DynkinDiagram, node: int, vec: Vector) -> Vector:
    """Simple reflection s_node applied to a lattice vector."""
    i = diagram.index(node)
    coeff = sum(cij * vj for cij, vj in zip(diagram.cartan[i], vec) if vj)
    if not coeff:
        return tuple(vec)
    out = list(vec)
    out[i] -= coeff
    return tuple(out)


def right_simple_product(diagram: DynkinDiagram, cols: Sequence[Vector], length: int,
                         node: int) -> tuple[tuple[Vector, ...], int]:
    """(columns, length) of w s_node from those of w, with plain lists.

    Column j is w(s_node(alpha_j)), where s_node(alpha_j) = alpha_j -
    C[node][j] alpha_node comes from ``reflect`` and w acts as the matrix
    whose columns are ``cols``.  The length drops by one exactly when
    w(alpha_node) is a negative root (Bjorner-Brenti 4.4), read off its
    coefficient signs.
    """
    n = len(cols)
    out = []
    for j in range(n):
        image = reflect(diagram, node, diagram.simple_root(diagram.nodes[j]))
        col = [0] * n
        for k in range(n):
            for a in range(n):
                col[a] += image[k] * cols[k][a]
        out.append(tuple(col))
    descent = is_negative_vec(cols[diagram.index(node)])
    return tuple(out), length - 1 if descent else length + 1


def chain_longest_element(group, nodes):
    """w_J from the identity: multiply on the right by the first node of J that
    is not a right descent until every node of J is one."""
    chosen = sorted(set(nodes))
    x = group.identity
    while True:
        for node in chosen:
            if not x.has_right_descent(node):
                x = x.mul_simple_right(node)
                break
        else:
            return x


def chain_min_rep(w, nodes):
    """The minimal representative of w W_J: multiply on the right by the first
    node of J that is a right descent until none is."""
    chosen = sorted(set(nodes))
    x = w
    while True:
        for node in chosen:
            if x.has_right_descent(node):
                x = x.mul_simple_right(node)
                break
        else:
            return x


def grown_c5(ctx, u) -> bool:
    """c5 for u in W_d^0 on grown sets: the inversions of u among Phi+_{Supp(u)}
    are Phi+_{Supp(u)} minus Phi+_levi, each set grown for its own node set."""
    grown = positive_roots(ctx.affine_diagram, u.support())
    return u.inversions(grown) == grown - positive_roots(ctx.affine_diagram, ctx.levi_nodes)


def is_positive_vec(vec: Sequence[int]) -> bool:
    return any(vec) and all(x >= 0 for x in vec)


def is_negative_vec(vec: Sequence[int]) -> bool:
    return any(vec) and all(x <= 0 for x in vec)


def reflection_closure(diagram: DynkinDiagram, nodes: Sequence[int]) -> frozenset[Vector]:
    """Phi+_nodes as the closure of the simple roots under every simple
    reflection, keeping only the positive images."""
    simples = [diagram.simple_root(i) for i in nodes]
    pos = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for vec in frontier:
            for i in nodes:
                img = reflect(diagram, i, vec)
                if img not in pos and is_positive_vec(img):
                    pos.add(img)
                    fresh.append(img)
        frontier = fresh
    return frozenset(pos)


def fraction_minors_positive(sym: Sequence[Sequence[int]]) -> bool:
    """Whether every leading principal minor is positive, by Gaussian elimination
    in Fractions: the k-th pivot is the ratio of the k-th and (k-1)-th minors."""
    work = [[Fraction(x) for x in row] for row in sym]
    for k in range(len(work)):
        if work[k][k] <= 0:
            return False
        for r in range(k + 1, len(work)):
            factor = work[r][k] / work[k][k]
            work[r] = [x - factor * y for x, y in zip(work[r], work[k])]
    return True


def coroot_coordinates(diagram: DynkinDiagram,
                       pairings: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """The q in the coroot basis with <alpha_j, q> = pairings[j] for every node j.

    <alpha_j, sum_i q_i alpha_i^vee> = sum_i q_i C[i][j], so this solves
    C^T q = pairings exactly.
    """
    n = len(diagram.nodes)
    transposed = [[diagram.cartan[i][j] for i in range(n)] for j in range(n)]
    return solve_exact(transposed, pairings)


def solved_translation(w) -> tuple[Fraction, ...]:
    """q of w = u o tau_q solved from the matrix: the alpha_0 coordinate of
    w(alpha_j) is -<alpha_j, q> for every finite node j."""
    group = w.group
    return coroot_coordinates(group.finite_diagram,
                              [-w.cols[j][0] for j in group.finite_diagram.nodes])


def acts_as_translation(w) -> bool:
    """Whether w(alpha_j) - alpha_j is a multiple of delta for every finite node j.

    For w = u o tau_q that holds iff u = 1, as w(alpha_j) = u(alpha_j) -
    <alpha_j, q> delta and u(alpha_j) has no alpha_0 term.  In a finite
    group only the identity is a translation."""
    diagram = w.group.diagram
    if not diagram.affine:
        return w.is_identity()
    return all(col[k] - (k == j) == col[0] * m
               for j, col in enumerate(w.cols[1:], 1)
               for k, m in enumerate(diagram.delta))


class ColumnMatrix:
    """Oracle model of a Weyl group element: the matrix of its action on the root
    lattice, column k the image of alpha_k, with the length carried along the
    letters it was built from.  Products are matrix products, the left product
    reflects every column, descents and inversions read coefficient signs, and
    the reduced word strips the smallest descent by right products."""

    def __init__(self, diagram: DynkinDiagram, cols: Sequence[Vector],
                 length: int | None = None):
        self.diagram = diagram
        self.cols = tuple(tuple(col) for col in cols)
        self.length = length

    @classmethod
    def from_word(cls, diagram: DynkinDiagram, letters: Sequence[int]) -> "ColumnMatrix":
        n = len(diagram.nodes)
        cols = tuple(tuple(int(a == b) for a in range(n)) for b in range(n))
        length = 0
        for node in letters:
            cols, length = right_simple_product(diagram, cols, length, node)
        return cls(diagram, cols, length)

    def act(self, vec: Sequence[int]) -> Vector:
        out = [0] * len(self.cols)
        for c, col in zip(vec, self.cols):
            for a, x in enumerate(col):
                out[a] += c * x
        return tuple(out)

    def __mul__(self, other: "ColumnMatrix") -> "ColumnMatrix":
        return ColumnMatrix(self.diagram, [self.act(col) for col in other.cols])

    def mul_simple_left(self, node: int) -> "ColumnMatrix":
        return ColumnMatrix(self.diagram, [reflect(self.diagram, node, col) for col in self.cols])

    def relabel(self, perm: Sequence[int]) -> "ColumnMatrix":
        """sigma w sigma^-1 for a node map sigma (position = node): column sigma(k) is
        column k with entry j moved to sigma(j)."""
        n = len(self.cols)
        cols = [None] * n
        for k, col in enumerate(self.cols):
            image = [0] * n
            for j, x in enumerate(col):
                image[perm[j]] = x
            cols[perm[k]] = tuple(image)
        return ColumnMatrix(self.diagram, cols, self.length)

    def descents(self) -> list[bool]:
        return [is_negative_vec(col) for col in self.cols]

    def reduced_word(self) -> tuple[int, ...]:
        cols, trace = self.cols, []
        while True:
            flags = [is_negative_vec(col) for col in cols]
            if not any(flags):
                return tuple(reversed(trace))
            node = self.diagram.nodes[flags.index(True)]
            cols, _ = right_simple_product(self.diagram, cols, 0, node)
            trace.append(node)

    def inversions(self, roots) -> frozenset[Vector]:
        return frozenset(alpha for alpha in roots if is_negative_vec(self.act(alpha)))

    def semidirect_pair(self):
        """(finite-part columns, q) for w = u o tau_q: u(alpha_j) is w(alpha_j) less
        its delta multiple, and q is solved from the alpha_0 row."""
        diagram = self.diagram
        if not diagram.affine:
            return self.cols, (0,) * len(self.cols)
        delta = diagram.delta
        ucols = tuple(tuple(x - col[0] * m for x, m in zip(col[1:], delta[1:]))
                      for col in self.cols[1:])
        finite = build_diagram(diagram.series, diagram.rank)
        return ucols, coroot_coordinates(finite, [-col[0] for col in self.cols[1:]])


def dot_product_min_reps(group, span, quotient) -> frozenset:
    """W_span intersect W^quotient by the cover test on every root at every element:
    the covers of u are mu(u) - beta for each beta in Lambda = Phi+_span minus
    Phi+_{span & quotient} with sum_k beta_k d_k mu_k = (beta|beta)/2, each pairing
    a dot product of its own."""
    diagram = group.diagram
    d, cartan = diagram.symmetrizer, diagram.cartan
    both = [node for node in span if node in set(quotient)]
    steps = []
    for beta in sorted(positive_roots(diagram, span) - positive_roots(diagram, both)):
        weight = tuple(sum(c * b for c, b in zip(row, beta)) for row in cartan)
        scaled = tuple(b * dk for b, dk in zip(beta, d))
        steps.append((weight, scaled, sum(s * x for s, x in zip(scaled, weight)) // 2))
    rho = (1,) * len(diagram.nodes)
    seen, frontier = {rho}, [rho]
    while frontier:
        fresh = []
        for mu in frontier:
            for weight, scaled, half in steps:
                if sum(s * m for s, m in zip(scaled, mu)) == half:
                    cover = tuple(m - x for m, x in zip(mu, weight))
                    if cover not in seen:
                        seen.add(cover)
                        fresh.append(cover)
        frontier = fresh
    return frozenset(group.from_mu(mu) for mu in seen)
