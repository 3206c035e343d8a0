"""Slow independent routes that the tests hold the library's closed forms to.

Each oracle filters or solves where the library reads: positive roots by
reflect-and-filter closure, root signs by coefficient signs, coroot
coordinates and translation parts by an exact Gaussian elimination,
"is w a translation?" by a test on the columns of its matrix, and the
right product w s_i by applying w to each reflected simple root.
"""

from fractions import Fraction
from typing import Sequence

from cograss.rootsys import DynkinDiagram, Vector, solve_exact


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
