"""Exact arithmetic in finite and affine Weyl groups.

An element w is stored as one integer vector, mu = w^{-1}(rho), where rho
is the sum of the fundamental weights Lambda_i (of positive level in the
affine case).  Its coordinates are mu_i = <w^{-1}(rho), alpha_i^vee>, one
per node.  The group acts simply transitively on the chambers around the
regular dominant weight rho (Kac, Infinite-dimensional Lie algebras,
Prop. 3.12), so mu fixes w, and equality and hashing compare mu in O(rank).
mu_i = <rho, w(alpha_i^vee)> is the height of the coroot w(alpha_i^vee), so
its sign is that of w(alpha_i), and w s_i < w iff w(alpha_i) < 0
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 1.6 and 4.4): the right
descents are the negative entries of mu.  Each WeylGroup keeps the nonzero
Cartan entries per node and a node -> position table.

Products are word folds.  mu(w s_i) = s_i(mu), and s_i moves only the
entries of i's Cartan neighbours: mu_k -= mu_i C[k][i].  So the right
product by s_i is one such update, and u * w folds a reduced word of w
into mu(u), letter by letter in word order.  The left product reads
mu(s_i w) = w^{-1}(rho - alpha_i) = mu - w^{-1}(alpha_i), where
w^{-1}(alpha_i) is alpha_i in weight coordinates (Cartan column i) folded
the same way along w's reduced word.  The action ``act`` on a root-lattice
vector folds the reversed word, with s_i changing coordinate i alone by
<v, alpha_i^vee>.  The matrix of the action, ``cols`` (column k the image
of alpha_k), is derived from the word on each read and never stored; only
the semidirect split, the constructor and the tests read it.  A matrix
given to the constructor (as ``embed_finite_matrix`` does) is read into mu
once, with no length: mu_i is the height of the coroot w(alpha_i^vee),
which is sum_k cols[i][k] d_k / d_i for the symmetrizer d.  The constructor refuses
what is not the action of an element: in the affine case a mu whose level
sum_i a_i^vee mu_i is not that of rho, h^vee (every element fixes the level,
and a mu of positive level strips in finitely many steps, Kac Prop. 3.12),
and then a matrix other than the ``cols`` its mu derives.  ``WeylGroup.from_mu``
takes mu itself, under the same level check, and ``coroot_heights`` reads it.

The semidirect description W = W_0 x| (coroot lattice) is available as
a derived view: ``semidirect_pair`` splits an element into its finite
part and translation coweight, and ``from_translation`` builds a pure
translation from its mu, tau_q^{-1}(rho) = rho - h^vee nu(q) mod delta
(Kac, (6.5.2)).  Each affine WeylGroup checks at construction that its
affine generator equals s_theta composed with translation by -theta^vee,
which pins the composition convention (u, q) = u o tau_q with group law
(u, q)(u', q') = (u u', u'^{-1}(q) + q').  The split solves nothing: u
fixes Lambda_0, so w^{-1}(Lambda_0) = tau_{-q}(Lambda_0) = Lambda_0 - nu(q)
+ c delta (Kac, Infinite-dimensional Lie algebras, (6.5.2)), with
nu(alpha_j^vee) = d_0 alpha_j / d_j: Kac normalises (theta|theta) = 2, and
(theta|theta) = 2 d_0 for the symmetrizer d.  Folding a word of w in word order on
x = w^{-1}(Lambda_0) - Lambda_0, letter i does x_i -= [i = 0] + <x, alpha_i^vee>,
and then q_j = d_j (x_0 delta_j - x_j) / d_0.

Reduced words strip right descents, smallest node index first, so
reduced words, minimal representatives and traces are deterministic.
One strip, ``WeylGroup._strip``, runs on a copy of mu, not on a chain of
elements: it applies s_i at the first listed position with mu_i < 0 until
there is none, each step one length down.  Over every position it ends on
mu = rho (every entry 1), and its trace, reversed, is the reduced word; over
J's it ends on the mu of ``min_rep``, w's minimal representative mod W_J.
s_j ascends exactly where mu_j > 0, so ``longest_element`` strips -rho over
J, ending on -mu(w_J) after l(w_J) steps.

Lengths are carried rather than recomputed.  The identity has length 0,
and ``mul_simple_right`` gives w s_i the length l(w) - 1 when
mu_i < 0 and l(w) + 1 otherwise, so everything built by
``from_word`` or ``inverse`` arrives with its length, and so does a
product u * w whose left factor carries one: each letter of w's word moves
the length by one, down exactly when it meets a negative coordinate, so
l(u * w) = l(u) + l(w) - 2 down.  Any other element (a translation, a
product of a length-less factor) strips a reduced word on its first
``length()`` and keeps the result; ``reduced_word`` checks a carried
length against the stripped one.

Root signs are read off mu.  ``inversions`` returns the given real roots
that w sends negative.  For a real root alpha, w(alpha) has the sign of
<rho, w(alpha)^vee> = <mu, alpha^vee>, and <mu, alpha^vee> has the sign of
(mu|alpha) = sum_k alpha_k d_k mu_k, as (alpha_k|alpha_k) = 2 d_k; so alpha
is inverted iff that sum is negative.  One pass over mu per call.

A diagram automorphism sigma permutes the simple roots and fixes rho, so
conjugation w -> sigma w sigma^-1 sends mu to sigma(mu) and keeps lengths;
``relabel`` owns it, so no caller reads the element to apply the cominuscule
involution.

``demazure`` and ``bruhat_leq`` read right descents only and build no inverse:
u * w folds a reduced word of w into u on the right, and for a right descent
s of w, u <= w iff min(u, us) <= ws (Bjorner-Brenti Prop. 2.2.7, Cor. 2.2.5).

Coset sets W_S intersect W^J grow from the identity one length at a time,
from mu alone.  Let Lambda = Phi+_S minus Phi+_{S & J}.  <mu(u), beta^vee> is
the height of the coroot u(beta^vee), so it is 1 exactly when u(beta) is a
simple root alpha_i; then s_i u = u s_beta is one length up, stays in W_S,
and stays in W^J because beta is not in Phi_J (Deodhar's lemma, Invent. Math.
39, 1977), and mu(s_i u) = u^{-1}(rho - alpha_i) = mu(u) - beta, a
subtraction of beta in weight coordinates.  Conversely, a left descent s_i
of v in W_S intersect W^J gives u = s_i v in the set and beta = u^{-1}(alpha_i)
in Lambda, so the covers of u are the mu(u) - beta with <mu(u), beta^vee> = 1,
and no product is made.  The pairings (beta|mu(u)) = sum_k beta_k d_k mu_k
over Lambda ride along the frontier: a cover by beta' subtracts the row
((beta|beta'))_beta, read once, so no element pairs mu with every root.  The
cover also hands each element its masks (``coset_masks``).  N(s_i u) =
N(u) + {beta}, and N(u) lies in Lambda for u in W^J, so the inversion mask over
sorted Lambda gains beta's bit; beta = u^{-1}(alpha_i) is alpha_i plus roots
of Supp(u), so Supp(s_i u) = Supp(u) + {i} = Supp(u) | supp(beta), and Supp(u)
is the union of the supports of N(u).
"""

from __future__ import annotations

import functools
from itertools import compress
from operator import eq, mul, sub
from typing import Iterable, Optional, Sequence

from .rootsys import (
    DynkinDiagram,
    InvariantError,
    Vector,
    build_diagram,
    finite_type_nodes,
    highest_root,
    inner_form,
    positive_roots,
    require,
)


class AffineWeylElement:
    """An element of a finite or affine Weyl group, stored as mu = w^{-1}(rho).

    The constructor takes the matrix of the action on the root lattice
    (column k the image of alpha_k), reads mu off it once and refuses a
    matrix that is not an element's action; the group's own products build
    elements from mu directly.
    """

    __slots__ = ("group", "mu", "_word", "_inv", "_len")

    def __init__(self, group: "WeylGroup", cols: Sequence[Vector]):
        d = group.diagram.symmetrizer
        mu = []
        for col, di in zip(cols, d):
            height, rem = divmod(sum(map(mul, col, d)), di)
            if rem:
                raise InvariantError("coroot height is not integral")
            mu.append(height)
        self.group = group
        self.mu = tuple(mu)
        self._word: Optional[tuple[int, ...]] = None
        self._inv: Optional["AffineWeylElement"] = None
        self._len: Optional[int] = None
        group._require_level(self.mu)
        if self.cols != tuple(map(tuple, cols)):
            raise InvariantError("matrix is not the action of the element its mu names")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AffineWeylElement)
                and self.mu == other.mu and self.group is other.group)

    def __hash__(self) -> int:
        return hash(self.mu)

    def __repr__(self) -> str:
        diagram = self.group.diagram
        tilde = "~" if diagram.affine else ""
        return f"<{diagram.series}{tilde}{diagram.rank} element {self.word_str() or 'e'}>"

    # -- action and products -------------------------------------------------

    @property
    def cols(self) -> tuple[Vector, ...]:
        """The matrix of the action, column k = w(alpha_k): derived on each read."""
        diagram = self.group.diagram
        return tuple(self.act(diagram.simple_root(node)) for node in diagram.nodes)

    def act(self, vec: Sequence[int]) -> Vector:
        """Apply the element to a root-lattice vector: the reversed word, letter by letter."""
        group = self.group
        if len(vec) != len(self.mu):
            raise ValueError("vector does not belong to this group's lattice")
        out = list(vec)
        cartan_row, first = group._cartan_row, group._first
        for node in reversed(self.reduced_word()):
            j = node - first
            coeff = 0
            for k, c in cartan_row[j]:
                coeff += c * out[k]
            out[j] -= coeff
        return tuple(out)

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        if self.group is not other.group:
            raise ValueError("elements belong to different Weyl groups")
        word = other.reduced_word()
        mu = list(self.mu)
        down = self.group._fold(mu, word)
        length = self._len
        if length is not None:
            length += len(word) - 2 * down
        return _element(self.group, tuple(mu), length)

    def mul_simple_right(self, node: int) -> "AffineWeylElement":
        """self * s_node: s_node applied to mu moves only the node's Cartan neighbours.

        Carries a known length, -1 when mu_node < 0 and +1 otherwise.
        """
        group = self.group
        j = group._node_index[node]
        mu = list(self.mu)
        m = mu[j]
        for k, c in group._cartan_col[j]:
            mu[k] -= m * c
        length = self._len
        if length is not None:
            length += -1 if m < 0 else 1
        return _element(group, tuple(mu), length)

    def mul_simple_left(self, node: int) -> "AffineWeylElement":
        """s_node * self: mu less w^{-1}(alpha_node), folded along the reduced word."""
        group = self.group
        root = list(group._simple_weights[group._node_index[node]])
        group._fold(root, self.reduced_word())
        return _element(group, tuple(map(sub, self.mu, root)))

    def relabel(self, perm: Sequence[int]) -> "AffineWeylElement":
        """sigma w sigma^-1 for an automorphism sigma of an affine diagram, given as a node
        map (position = node) that the caller validates: sigma fixes rho, so entry
        sigma(k) of the new mu is entry k of mu.  The carried length is kept."""
        mu = [0] * len(perm)
        for k, m in enumerate(self.mu):
            mu[perm[k]] = m
        return _element(self.group, tuple(mu), self._len)

    def inverse(self) -> "AffineWeylElement":
        if self._inv is None:
            inv = self.group.from_word(reversed(self.reduced_word()))
            self._inv = inv
            if inv._inv is None:  # the empty word gives the shared identity, its own inverse
                inv._inv = self
        return self._inv

    # -- length, words, descents ----------------------------------------------

    def coroot_heights(self) -> Vector:
        """mu_i = <w^{-1}(rho), alpha_i^vee>, one per node: the height of the coroot
        w(alpha_i^vee), which ``WeylGroup.from_mu`` reads back."""
        return self.mu

    def is_identity(self) -> bool:
        return self.mu == self.group.identity.mu

    def has_right_descent(self, node: int) -> bool:
        """w s_node < w  iff  w(alpha_node) < 0  iff  mu_node < 0."""
        return self.mu[self.group._node_index[node]] < 0

    def inversions(self, roots: Iterable[Vector]) -> frozenset[Vector]:
        """The given real roots that the element sends negative.

        Read off mu, as the module docstring explains; every vector passed
        must be a real root of this group's lattice.
        """
        weights = tuple(map(mul, self.group.diagram.symmetrizer, self.mu))
        return frozenset(alpha for alpha in roots if sum(map(mul, alpha, weights)) < 0)

    def inversion_mask(self, roots: Iterable[Vector]) -> int:
        """The same sign read over an ordered list of roots, as one int: bit k is
        set iff the k-th root is sent negative."""
        weights = tuple(map(mul, self.group.diagram.symmetrizer, self.mu))
        return sum(1 << k for k, alpha in enumerate(roots) if sum(map(mul, alpha, weights)) < 0)

    def first_right_descent(self) -> Optional[int]:
        for node, m in zip(self.group.diagram.nodes, self.mu):
            if m < 0:
                return node
        return None

    def reduced_word(self) -> tuple[int, ...]:
        """Deterministic reduced word (smallest descent stripped first).

        Stripped on a copy of mu, as the module docstring explains.
        """
        if self._word is None:
            group = self.group
            mu = list(self.mu)
            trace = group._strip(mu, range(len(mu)))
            if any(m != 1 for m in mu):
                raise InvariantError("strip does not end on rho")
            if self._len is not None and self._len != len(trace):
                raise InvariantError("carried length is wrong")
            first = group._first
            self._word = tuple(first + j for j in reversed(trace))
        return self._word

    def length(self) -> int:
        """The carried length, or that of a reduced word stripped once."""
        if self._len is None:
            self._len = len(self.reduced_word())
        return self._len

    def support(self) -> frozenset[int]:
        """Letters of any reduced word (well defined)."""
        return frozenset(self.reduced_word())

    def word_str(self) -> str:
        return " ".join(str(i) for i in self.reduced_word())

    # -- semidirect product view ----------------------------------------------

    def semidirect_pair(self) -> tuple[tuple[Vector, ...], Vector]:
        """Split into (finite-part matrix, translation coweight).

        The element equals u o tau_q; the finite matrix is column-major
        over the finite nodes, q is integral in the coroot basis.  q is
        read off w^{-1}(Lambda_0), as the module docstring explains.  w is
        a translation iff u is the identity; in a finite group, iff w is.
        """
        group = self.group
        diagram = group.diagram
        if not diagram.affine:
            return self.cols, (0,) * len(diagram.nodes)
        x = [0] * len(diagram.nodes)  # w^{-1}(Lambda_0) - Lambda_0, one letter at a time
        for i in self.reduced_word():
            x[i] -= (i == 0) + sum(x[j] * c for j, c in group._cartan_row[i])
        d, delta = diagram.symmetrizer, diagram.delta
        nums = [dj * (x[0] * m - xj) for dj, m, xj in zip(d, delta, x)][1:]
        require(all(num % d[0] == 0 for num in nums), "translation part is not integral")
        ucols = []
        for col in self.cols[1:]:
            level = col[0]
            ucols.append(tuple(c - level * m for c, m in zip(col[1:], delta[1:])))
        return tuple(ucols), tuple(num // d[0] for num in nums)


def _element(group: "WeylGroup", mu: Vector, length: Optional[int] = None) -> AffineWeylElement:
    """The element with the given mu, built without reading a matrix."""
    x = object.__new__(AffineWeylElement)
    x.group = group
    x.mu = mu
    x._word = None
    x._inv = None
    x._len = length
    return x


class _NodeIndex(dict):
    """Node label -> position; a foreign label raises what ``DynkinDiagram.index`` raises."""

    def __missing__(self, node):
        raise ValueError(f"{node} is not a node of the diagram")


class WeylGroup:
    """Weyl group of a Dynkin diagram, with shared caches per diagram.

    ``_cartan_row[i]`` and ``_cartan_col[j]`` list the nonzero Cartan
    entries of a row and of a column as (index, entry) pairs, for the action
    on root coordinates and on weight coordinates; ``_simple_weights[j]`` is
    alpha_j in weight coordinates (Cartan column j); ``_node_index`` maps a
    node label to its position, built once, and ``_first`` is the first label
    (nodes are consecutive); ``_longest``, the group's one cache, holds the
    parabolic longest elements by sorted node tuple.  An affine group also
    keeps the comarks a_i^vee (``_comarks``) and their sum h^vee, the level
    of rho (``_dual_coxeter``).
    """

    _instances: dict[DynkinDiagram, "WeylGroup"] = {}

    def __new__(cls, diagram: DynkinDiagram) -> "WeylGroup":
        existing = cls._instances.get(diagram)
        if existing is not None:
            return existing
        group = super().__new__(cls)
        group._setup(diagram)
        cls._instances[diagram] = group
        return group

    def _setup(self, diagram: DynkinDiagram) -> None:
        self.diagram = diagram
        n = len(diagram.nodes)
        cartan = diagram.cartan
        self._cartan_row = tuple(tuple((j, c) for j, c in enumerate(row) if c)
                                 for row in cartan)
        self._cartan_col = tuple(tuple((i, row[j]) for i, row in enumerate(cartan) if row[j])
                                 for j in range(n))
        self._simple_weights = tuple(tuple(row[j] for row in cartan) for j in range(n))
        self._node_index = _NodeIndex((node, i) for i, node in enumerate(diagram.nodes))
        self._first = diagram.nodes[0]
        self.identity = _element(self, (1,) * n, 0)
        self.identity._word = ()
        self.identity._inv = self.identity
        self.simple = {node: self.identity.mul_simple_right(node)
                       for node in diagram.nodes}
        self._longest: dict[tuple[int, ...], AffineWeylElement] = {}
        if diagram.affine:
            self.finite_diagram = build_diagram(diagram.series, diagram.rank)
            d = diagram.symmetrizer  # a_i^vee = a_i d_i / d_0
            self._comarks = tuple(a * di // d[0] for a, di in zip(diagram.delta, d))
            self._dual_coxeter = sum(self._comarks)
            self._check_loop_conventions()
        else:
            self.finite_diagram = diagram

    def _require_level(self, mu: Vector) -> None:
        """InvariantError unless an affine mu has the level of rho, sum_i a_i^vee mu_i = h^vee."""
        if self.diagram.affine and sum(map(mul, self._comarks, mu)) != self._dual_coxeter:
            raise InvariantError("mu does not have the level of rho")

    def _fold(self, vec: list[int], letters: Iterable[int]) -> int:
        """Apply s_i to weight coordinates in place for each letter in turn (word
        order); return how many letters met a negative coordinate."""
        cartan_col, first = self._cartan_col, self._first
        down = 0
        for node in letters:
            j = node - first
            m = vec[j]
            if m:
                down += m < 0
                for k, c in cartan_col[j]:
                    vec[k] -= m * c
        return down

    def _strip(self, mu: list[int], positions: Sequence[int]) -> list[int]:
        """Apply s_j to mu in place at the first listed position j with mu_j < 0
        until there is none; return the positions stripped, in order."""
        cartan_col = self._cartan_col
        trace = []
        while True:
            for j in positions:
                m = mu[j]
                if m < 0:
                    break
            else:
                return trace
            for i, c in cartan_col[j]:
                mu[i] -= m * c
            trace.append(j)

    # -- constructors -----------------------------------------------------------

    def from_word(self, letters: Iterable[int]) -> AffineWeylElement:
        """The product of the letters, folded on rho with its length carried."""
        letters = tuple(letters)
        for node in letters:
            if node not in self.simple:
                raise ValueError(f"letter {node} is not a node of the diagram")
        if not letters:
            return self.identity
        mu = [1] * len(self.diagram.nodes)
        down = self._fold(mu, letters)
        return _element(self, tuple(mu), len(letters) - 2 * down)

    def from_mu(self, mu: Sequence[int]) -> AffineWeylElement:
        """The element w with w^{-1}(rho) = mu, given by its coroot heights (one per node).

        Refuses a vector of the wrong length and, in an affine group, one whose
        level is not that of rho, as the matrix constructor does.  The length is
        not carried; the first ``length()`` strips it.
        """
        mu = tuple(mu)
        if len(mu) != len(self.diagram.nodes):
            raise ValueError(f"mu needs {len(self.diagram.nodes)} entries, got {len(mu)}")
        self._require_level(mu)
        return _element(self, mu)

    def from_word_str(self, text: str) -> AffineWeylElement:
        """Parse the canonical space-separated word form ('' = identity)."""
        text = text.strip()
        return self.from_word(int(tok) for tok in text.split()) if text else self.identity

    def from_translation(self, coroot: Sequence[int]) -> AffineWeylElement:
        """The translation tau_q, q in the coroot lattice: alpha -> alpha - <alpha, q> delta.

        Built from mu = tau_q^{-1}(rho) = rho - h^vee nu(q) mod delta (Kac, (6.5.2);
        rho has level h^vee, and delta pairs to 0 with every coroot), with
        nu(q) = sum_j q_j (d_0/d_j) alpha_j as in the module docstring.
        """
        diagram = self.diagram
        if not diagram.affine:
            raise ValueError("translations exist only in affine Weyl groups")
        if len(coroot) != diagram.rank:
            raise ValueError("coweight length does not match the finite rank")
        if not all(isinstance(x, int) for x in coroot):
            raise ValueError("coweight is off the coroot lattice: entries must be integers")
        d = diagram.symmetrizer
        nu = (0,) + tuple(d[0] // dj * qj for dj, qj in zip(d[1:], coroot))
        return _element(self, tuple(1 - self._dual_coxeter * sum(c * nu[k] for k, c in row)
                                    for row in self._cartan_row))

    def embed_finite_matrix(self, ucols: Sequence[Vector]) -> AffineWeylElement:
        """Extend a finite Weyl matrix to the affine lattice (delta fixed)."""
        diagram = self.diagram
        if not diagram.affine:
            return AffineWeylElement(self, tuple(tuple(c) for c in ucols))
        n = diagram.rank
        delta = diagram.delta
        cols = [None] * (n + 1)
        for j in range(1, n + 1):
            cols[j] = (0,) + tuple(ucols[j - 1])
        theta_img = [0] * n
        theta = delta[1:]
        for j in range(n):
            if theta[j]:
                for a in range(n):
                    theta_img[a] += theta[j] * ucols[j][a]
        # alpha_0 = delta - theta, so u(alpha_0) = alpha_0 + theta - u(theta)
        cols[0] = (1,) + tuple(t - ti for t, ti in zip(theta, theta_img))
        return AffineWeylElement(self, tuple(cols))

    # -- convention validation ----------------------------------------------------

    def _check_loop_conventions(self) -> None:
        """Pin the semidirect conventions via s_0 = (s_theta, -theta^vee).

        s_theta is built from mu = s_theta(rho) = rho - <rho, theta^vee> theta, where
        <rho, theta^vee> is the height of theta^vee and theta = delta - alpha_0."""
        theta = (0,) + self.diagram.delta[1:]
        theta_covec = theta_coroot(self.finite_diagram)
        height = sum(theta_covec)
        s_theta = _element(self, tuple(1 - height * sum(c * theta[k] for k, c in row)
                                       for row in self._cartan_row))
        candidate = s_theta * self.from_translation(tuple(-x for x in theta_covec))
        require(candidate == self.simple[0],
                "semidirect convention mismatch: s_0 != (s_theta, -theta^vee)")


def theta_coroot(finite: DynkinDiagram) -> Vector:
    """theta^vee = 2 theta/(theta|theta) in the coroot basis, read off the symmetrizer:
    (alpha_j|alpha_j) = 2 d_j makes alpha_j^vee = alpha_j/d_j, so coordinate j is
    2 d_j theta_j/(theta|theta) (Humphreys, Introduction to Lie Algebras and
    Representation Theory).  Each must be an integer."""
    theta = highest_root(finite)
    norm = inner_form(finite, theta, theta)
    coords = [2 * dj * tj for dj, tj in zip(finite.symmetrizer, theta)]
    require(all(c % norm == 0 for c in coords), "theta^vee left the coroot lattice")
    return tuple(c // norm for c in coords)


# -- order, Bruhat order, Demazure product -------------------------------------


def longest_element(group: WeylGroup, nodes: Iterable[int]) -> AffineWeylElement:
    """The longest element w_J of the parabolic W_nodes (finite type required):
    -rho stripped over the nodes, one letter per step of l(w_J) (module
    docstring).  Built once per node set and kept in ``group._longest``.
    """
    chosen = finite_type_nodes(group.diagram, nodes)
    cached = group._longest.get(chosen)
    if cached is not None:
        return cached
    nu = [-1] * len(group.diagram.nodes)
    trace = group._strip(nu, [group._node_index[node] for node in chosen])
    x = group._longest[chosen] = _element(group, tuple(-m for m in nu), len(trace))
    return x


def min_rep(w: AffineWeylElement, nodes: Iterable[int]) -> AffineWeylElement:
    """Minimal representative of the coset w W_nodes: a copy of mu stripped over
    the nodes, carrying l(w) less the letters stripped; w itself if none is."""
    chosen = tuple(sorted(set(nodes)))
    group = w.group
    diagram = group.diagram
    if not set(chosen) <= set(diagram.nodes) or len(chosen) >= len(diagram.nodes):
        raise ValueError(f"nodes {chosen} must form a proper subset of the diagram")
    mu = list(w.mu)
    trace = group._strip(mu, [group._node_index[node] for node in chosen])
    if not trace:
        return w
    return _element(group, tuple(mu), None if w._len is None else w._len - len(trace))


def bruhat_leq(u: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat order by lifting on a right descent of w (BB Prop. 2.2.7), in l(w) steps at most."""
    if u.group is not w.group:
        raise ValueError("elements belong to different Weyl groups")
    while True:
        lu, lw = u.length(), w.length()
        if lu == 0:
            return True
        if lu >= lw:
            return lu == lw and u == w
        node = w.first_right_descent()
        if u.has_right_descent(node):
            u = u.mul_simple_right(node)
        w = w.mul_simple_right(node)


def demazure_fold(x: AffineWeylElement, letters: Iterable[int]) -> AffineWeylElement:
    """The 0-Hecke product x * s_i over the letters: a right descent is absorbed.

    Folded on a copy of mu: a letter with mu_i > 0 applies s_i and adds one
    to the length; with no such letter the product is x itself.
    """
    group = x.group
    index, cartan_col = group._node_index, group._cartan_col
    mu = list(x.mu)
    up = 0
    for node in letters:
        j = index[node]
        m = mu[j]
        if m > 0:
            up += 1
            for k, c in cartan_col[j]:
                mu[k] -= m * c
    if not up:
        return x
    return _element(group, tuple(mu), None if x._len is None else x._len + up)


@functools.lru_cache(maxsize=None)
def demazure(u: AffineWeylElement, w: AffineWeylElement) -> AffineWeylElement:
    """Demazure (0-Hecke) product u * w: a reduced word of w folded into u on
    the right, reading right descents only (BB Prop. 2.2.7)."""
    if u.group is not w.group:
        raise ValueError("elements belong to different Weyl groups")
    return demazure_fold(u, w.reduced_word())


def coset_masks(group: WeylGroup, span_nodes: Iterable[int],
                quotient_nodes: Iterable[int]) -> dict[AffineWeylElement, tuple[int, int]]:
    """W_span intersect W^quotient, grown one length at a time from mu alone, each
    element u mapped to (inversion mask, support mask).

    Bit k of the inversion mask is the k-th root of sorted Lambda = Phi+_span
    minus Phi+_{span & quotient}, set iff u inverts it; bit j of the support mask
    is position j of the diagram, set iff s_j is a letter of u.  A cover by beta
    adds beta to both (module docstring).  Each frontier element carries its
    pairings (beta|mu(u)) over Lambda; a cover by beta' subtracts the row
    ((beta|beta'))_beta, and the covers are the beta paired to (beta|beta)/2.
    Cardinality is checked against |W_span| / |W_{span & quotient}|.
    """
    diagram = group.diagram
    span = finite_type_nodes(diagram, span_nodes)
    quo = set(quotient_nodes)
    if not quo <= set(diagram.nodes):
        raise ValueError(f"nodes {tuple(sorted(quo))} are not nodes of the diagram")
    both = tuple(node for node in span if node in quo)
    roots = sorted(positive_roots(diagram, span) - positive_roots(diagram, both))
    weights = [tuple(sum(c * beta[k] for k, c in row) for row in group._cartan_row)
               for beta in roots]
    # (x|beta) = sum_k beta_k d_k <x, alpha_k^vee>, so <mu, beta^vee> = 1 iff
    # sum_k beta_k d_k mu_k = (beta|beta)/2
    scaled = [tuple(map(mul, beta, diagram.symmetrizer)) for beta in roots]
    rows = [tuple(sum(map(mul, s, weight)) for s in scaled) for weight in weights]
    halves = [row[k] // 2 for k, row in enumerate(rows)]
    supports = [sum(1 << j for j, c in enumerate(beta) if c) for beta in roots]
    positions = range(len(roots))
    table = {group.identity: (0, 0)}
    frontier = [(group.identity, tuple(map(sum, scaled)))]  # mu(e) = rho: all ones
    while frontier:
        fresh = []
        for u, pairings in frontier:
            inv, supp = table[u]
            mu, length = u.mu, u._len + 1
            for k in compress(positions, map(eq, pairings, halves)):
                x = _element(group, tuple(map(sub, mu, weights[k])), length)
                if x not in table:
                    table[x] = (inv | 1 << k, supp | supports[k])
                    fresh.append((x, tuple(map(sub, pairings, rows[k]))))
        frontier = fresh
    expected, order_both = weyl_order(diagram, span), weyl_order(diagram, both)
    if expected % order_both or len(table) != expected // order_both:
        raise InvariantError("minimal representative count does not match the index")
    return table


def enumerate_min_reps(group: WeylGroup, span_nodes: Iterable[int],
                       quotient_nodes: Iterable[int]) -> frozenset[AffineWeylElement]:
    """W_span intersect W^quotient: the elements ``coset_masks`` grows."""
    return frozenset(coset_masks(group, span_nodes, quotient_nodes))


def weyl_elements(group: WeylGroup, nodes: Iterable[int]) -> frozenset[AffineWeylElement]:
    """Every element of a finite-type parabolic (test-scale sweeps only)."""
    return enumerate_min_reps(group, nodes, ())


def weyl_order(diagram: DynkinDiagram, nodes: Iterable[int]) -> int:
    """|W_nodes| = prod over alpha in Phi+_nodes of (ht alpha + 1) / ht alpha.

    The q = 1 value of P_W(q) = prod (1 - q^{ht alpha + 1}) / (1 - q^{ht alpha})
    (Macdonald, "The Poincare series of a Coxeter group", Math. Ann. 199,
    1972), taken as one exact integer quotient.
    """
    num = den = 1
    for alpha in positive_roots(diagram, nodes):
        height = sum(alpha)
        num *= height + 1
        den *= height
    return num // den


def bruhat_interval_check(u: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Subword oracle for bruhat_leq, run by the ``bruhat-oracle`` check and the tests."""
    word = w.reduced_word()
    group = u.group
    reachable = {group.identity}
    for node in word:
        reachable |= {x.mul_simple_right(node) for x in reachable}
    return u in reachable


def positive_roots_of(group: WeylGroup, nodes: Iterable[int]) -> frozenset[Vector]:
    return positive_roots(group.diagram, nodes)
