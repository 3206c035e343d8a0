"""Type-D signed permutation calculus for skew-symmetric determinantal loci.

The finite Weyl group of D_n embeds into S_{2n} as the even permutations
commuting with the flip mu(i) = 2n+1-i; an element is recorded by its
first n values (one-line form).  Generators map as

    s_i -> r_i r_{2n-i}   (i < n),      s_n -> r_n r_{n-1} r_{n+1} r_n,

with r_i the adjacent transposition (i, i+1).  Under this convention a
right descent at i < n means w(i) > w(i+1), a right descent at n means
w(n-1) + w(n) > 2n+1, and the type-D length is

    (#inversions of the full 2n window - #{i <= n : w(i) > n}) / 2.

The chain elements defined by chain_word(n, i) = s_{i+1} s_i chain(i+1),
starting from chain(n-1) = s_n, have the closed one-line form

    x_i = [1, ..., i-1, i+2, ..., n, 2n-i, 2n-i+1]

(derived by expanding the recursion; pinned by tests).  Products of the
chain elements factor the rank-stratum permutations w_r and their duals,
which is what drives the conormal-fibre computation for the rank <= r
skew-symmetric matrices.

A signed permutation lifts to the affine D_n group with the fork marked
in closed form, with no word (Bjorner-Brenti, Combinatorics of Coxeter
Groups, 8.2).  The value v <= n stands for +e_v and v > n for
-e_{2n+1-v}; against rho = (n-1, ..., 1, 0) in the e-basis that signed
unit vector has height

    h(v) = n - v   (v <= n),      h(v) = n + 1 - v   (v > n).

An element is stored as mu_i = <w^{-1}(rho), alpha_i^vee>, the height of
w(alpha_i) (D_n is simply laced).  With alpha_i = e_i - e_{i+1},
alpha_n = e_{n-1} + e_n and alpha_0 = delta - e_1 - e_2, where delta has
height h^vee = 2n - 2,

    mu_i = h(w(i)) - h(w(i+1))  (1 <= i < n),   mu_n = h(w(n-1)) + h(w(n)),
    mu_0 = 2n - 2 - h(w(1)) - h(w(2)).

``element_of`` is that map.  ``perm_of`` inverts it: mu_{n-1} and mu_n
give h(w(n-1)) and h(w(n)), then h(w(i)) = h(w(i+1)) + mu_i going down.
h is injective but for h(n) = h(n+1) = 0; a value and its flip never both
appear, and the zero is split between n and n+1 by the parity of the
values above n.  The result validates itself and must map forward to the
element, so an element outside the finite D_n (s_0, a translation) is
refused.  Both maps are O(n); ``perm_to_word`` and ``word_to_perm`` stay
as the independent word route the tests hold them to.

Only the skew-symmetric case is implemented here.  Ordinary and symmetric
determinantal loci live in type A and type C cominuscule contexts; the
generic pipeline (build_context + conormal.fibre_maximal) already accepts
those contexts, so an analogous module would only need the corresponding
one-line forms and stratum elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from . import conormal
from .cominuscule import CominusculeContext, build_context
from .rootsys import InvariantError, require
from .weyl import AffineWeylElement, longest_element, min_rep


@dataclass(frozen=True)
class SignedPermutation:
    """One-line form [w(1), ..., w(n)] with entries in 1..2n."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n, vals = self.n, self.values
        if len(vals) != n:
            raise ValueError(f"expected {n} values, got {len(vals)}")
        if not all(1 <= v <= 2 * n for v in vals):
            raise ValueError("values must lie in 1..2n")
        distinct = set(vals)
        if len(distinct) != n:
            raise ValueError("values must be distinct")
        if not distinct.isdisjoint(2 * n + 1 - v for v in vals):
            raise ValueError("a value and its flip cannot both appear")
        if sum(1 for v in vals if v > n) % 2 != 0:
            raise ValueError("type-D parity: the number of values above n must be even")

    @property
    def window(self) -> tuple[int, ...]:
        """The full extension to S_{2n} commuting with the flip."""
        n, vals = self.n, self.values
        tail = tuple(2 * n + 1 - vals[2 * n - i] for i in range(n + 1, 2 * n + 1))
        return vals + tail

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        mine = self.window
        return SignedPermutation(self.n, tuple(mine[v - 1] for v in other.values))

    def inverse(self) -> "SignedPermutation":
        win = self.window
        out = [0] * (2 * self.n)
        for i, v in enumerate(win, start=1):
            out[v - 1] = i
        return SignedPermutation(self.n, tuple(out[: self.n]))

    def is_identity(self) -> bool:
        return self.values == tuple(range(1, self.n + 1))

    def length(self) -> int:
        """Type-D length from the inversion statistic of the full window."""
        win = self.window
        inv = sum(1 for a in range(2 * self.n) for b in range(a + 1, 2 * self.n)
                  if win[a] > win[b])
        neg = sum(1 for v in self.values if v > self.n)
        require((inv - neg) % 2 == 0, "type-D inversion count has the wrong parity")
        return (inv - neg) // 2

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


def identity_perm(n: int) -> SignedPermutation:
    return SignedPermutation(n, tuple(range(1, n + 1)))


def _has_right_descent(values: Sequence[int], i: int) -> bool:
    """Right descent of a one-line form at letter i (see the module docstring)."""
    n = len(values)
    if 1 <= i < n:
        return values[i - 1] > values[i]
    if i == n:
        return values[n - 2] + values[n - 1] > 2 * n + 1
    raise ValueError(f"letter {i} out of range 1..{n}")


def _mul_simple_right(values: list[int], i: int) -> None:
    """w -> w s_i on the one-line form, in place: s_i (i < n) swaps entries i
    and i+1, s_n sends (w(n-1), w(n)) to (2n+1 - w(n), 2n+1 - w(n-1))."""
    n = len(values)
    if not 1 <= i <= n:
        raise ValueError(f"letter {i} out of range 1..{n}")
    if i < n:
        values[i - 1], values[i] = values[i], values[i - 1]
    else:
        values[n - 2], values[n - 1] = 2 * n + 1 - values[n - 1], 2 * n + 1 - values[n - 2]


def generator_perm(n: int, i: int) -> SignedPermutation:
    """Image of the Coxeter generator s_i inside S_{2n}."""
    return word_to_perm(n, (i,))


def word_to_perm(n: int, word: Sequence[int]) -> SignedPermutation:
    """Evaluate a type-D word through the S_{2n} embedding, validating once."""
    values = list(range(1, n + 1))
    for letter in word:
        _mul_simple_right(values, letter)
    return SignedPermutation(n, tuple(values))


def perm_to_word(p: SignedPermutation) -> tuple[int, ...]:
    """Deterministic reduced word: strip the smallest right descent until none is left."""
    values, trace = list(p.values), []
    while letter := next((i for i in range(1, p.n + 1) if _has_right_descent(values, i)), 0):
        _mul_simple_right(values, letter)
        trace.append(letter)
    return tuple(reversed(trace))


def parse_perm(text: str) -> SignedPermutation:
    """Parse the bracketed one-line form, e.g. '[3,4,7,8]'; spaces around an
    entry are allowed, an empty entry is refused."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError("signed permutation must look like [v1,v2,...]")
    tokens = body[1:-1].split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"signed permutation {body} has an empty entry")
    values = tuple(int(tok) for tok in tokens)
    return SignedPermutation(len(values), values)


@functools.lru_cache(maxsize=None)
def skew_rank_element(n: int, r: int) -> SignedPermutation:
    """One-line form indexing the rank <= r skew-symmetric stratum (built once per (n, r)).

    r must be even (a skew-symmetric matrix has even rank) and at most
    even_rank(n).  The result is checked to be a minimal representative
    and to factor into the chain elements x_{r-1} x_{r-3} ... x_1.
    """
    nbar = even_rank(n)
    if r % 2 != 0:
        raise ValueError(f"rank of a skew-symmetric matrix is even; got r={r}")
    if not 0 <= r <= nbar:
        raise ValueError(f"r must satisfy 0 <= r <= {nbar} for n={n}")
    values = tuple(range(r + 1, n + 1)) + tuple(range(2 * n - r + 1, 2 * n + 1))
    perm = SignedPermutation(n, values)
    require(not any(_has_right_descent(values, i) for i in range(1, n)),
            "rank stratum element must be a minimal representative")
    factored = identity_perm(n)
    for i in range(r - 1, 0, -2):
        factored = factored * chain_perm(n, i)
    require(factored == perm, "chain factorization of the rank stratum fails")
    return perm


def even_rank(n: int) -> int:
    """Largest even integer <= n (the top rank of a skew form)."""
    return n if n % 2 == 0 else n - 1


def chain_word(n: int, i: int) -> tuple[int, ...]:
    """Reduced word of the chain element: (i+1, i) prepended down from s_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"chain index {i} out of range 1..{n - 1}")
    word: tuple[int, ...] = (n,)
    for j in range(n - 2, i - 1, -1):
        word = (j + 1, j) + word
    return word


@functools.lru_cache(maxsize=None)
def chain_perm(n: int, i: int) -> SignedPermutation:
    """The chain element x_i evaluated in the S_{2n} model (built once per (n, i))."""
    perm = word_to_perm(n, chain_word(n, i))
    closed = tuple(range(1, i)) + tuple(range(i + 2, n + 1)) + (2 * n - i, 2 * n - i + 1)
    require(perm.values == closed, "closed one-line form of the chain element fails")
    require(perm.length() == 2 * (n - 1 - i) + 1, "chain element length formula fails")
    return perm


def longest_perm(n: int) -> SignedPermutation:
    """The longest element: [2n, ..., n+2, even_rank(n)+1]."""
    values = tuple(range(2 * n, n + 1, -1)) + (even_rank(n) + 1,)
    return SignedPermutation(n, values)


def levi_longest_perm(n: int) -> SignedPermutation:
    """The longest element of the A_{n-1} Levi: [n, ..., 1]."""
    return SignedPermutation(n, tuple(range(n, 0, -1)))


@dataclass(frozen=True)
class RelationReport:
    n: int
    checks: tuple[tuple[str, str, bool], ...]

    @property
    def all_hold(self) -> bool:
        return all(ok for _, _, ok in self.checks)


def check_relations(n: int) -> RelationReport:
    """Verify the chain-element identities by exact element equality.

    The shift identity s_{i+2} s_{i+3} x_i = x_i s_i s_{i+1} lives in the
    finite group; the twisted exchange identities and their chained form
    involve the diagram involution and are checked in the affine group.
    """
    if n < 4:
        raise ValueError("type D needs rank >= 4")
    checks: list[tuple[str, str, bool]] = []

    for i in range(1, n - 3):
        lhs = generator_perm(n, i + 2) * generator_perm(n, i + 3) * chain_perm(n, i)
        rhs = chain_perm(n, i) * generator_perm(n, i) * generator_perm(n, i + 1)
        checks.append(("chain-shift", f"n={n} i={i}", lhs == rhs))

    ctx = build_context("D", n, n)
    nbar = even_rank(n)
    x = {i: ctx.group.from_word(chain_word(n, i)) for i in range(1, n)}
    tx = {i: ctx.iota_elem(x[i]) for i in range(1, n)}
    for k in range(3, nbar):
        lhs = tx[nbar - k] * x[k]
        rhs = x[k - 2] * tx[nbar - k + 2]
        checks.append(("twisted-exchange", f"n={n} k={k}", lhs == rhs))
        # chained form: consuming x_k x_{k-2} ... x_j leaves the twisted
        # factor at index nbar - j + 2 (one exchange per consumed factor)
        for j in range(k - 2, 2, -2):
            lhs_chain = tx[nbar - k]
            for m in range(k, j - 1, -2):
                lhs_chain = lhs_chain * x[m]
            rhs_chain = ctx.group.identity
            for m in range(k - 2, j - 3, -2):
                rhs_chain = rhs_chain * x[m]
            rhs_chain = rhs_chain * tx[nbar - j + 2]
            checks.append(("twisted-exchange-chain", f"n={n} k={k} j={j}",
                           lhs_chain == rhs_chain))
    return RelationReport(n=n, checks=tuple(checks))


def dual_stratum_string(n: int, r: int) -> tuple[int, ...]:
    """One-line form of w0 * w_r * w_levi: [1..r, even_rank(n)+1, n+2 .. 2n-r].

    Truncated to the n-value window; at r = n the bracket form would
    spill into the flip-determined half and the element is the identity.
    """
    full = (tuple(range(1, r + 1)) + (even_rank(n) + 1,)
            + tuple(range(n + 2, 2 * n - r + 1)))
    return full[:n]


def _require_fork_context(ctx: CominusculeContext, n: int) -> None:
    if ctx.series != "D" or ctx.cominuscule_node != ctx.rank:
        raise ValueError("context must be type D with the fork node marked")
    if ctx.rank != n:
        raise ValueError(f"the signed permutation has {n} values, the context has rank {ctx.rank}")


def _coroot_heights(perm: SignedPermutation) -> tuple[int, ...]:
    """mu_0, ..., mu_n of the lift, from the heights h(w(i)) (module docstring)."""
    n = perm.n
    h = [n - v if v <= n else n + 1 - v for v in perm.values]
    return ((2 * n - 2 - h[0] - h[1],) + tuple(h[i] - h[i + 1] for i in range(n - 1))
            + (h[n - 2] + h[n - 1],))


def element_of(ctx: CominusculeContext, perm: SignedPermutation) -> AffineWeylElement:
    """Lift a signed permutation into the ambient affine Weyl group, in closed form."""
    _require_fork_context(ctx, perm.n)
    return ctx.group.from_mu(_coroot_heights(perm))


def perm_of(ctx: CominusculeContext, element: AffineWeylElement) -> SignedPermutation:
    """The signed permutation that ``element_of`` lifts to the element.

    InvariantError unless the element lies in the finite D_n (module docstring).
    """
    n = ctx.rank
    _require_fork_context(ctx, n)
    if element.group is not ctx.group:
        raise ValueError("element does not live in this context's Weyl group")
    mu = element.coroot_heights()
    h = [0] * n
    h[n - 1] = (mu[n] - mu[n - 1]) // 2  # an odd difference fails the round trip below
    for i in range(n - 2, -1, -1):
        h[i] = h[i + 1] + mu[i + 1]
    odd = sum(1 for x in h if x < 0) % 2  # a zero goes above n exactly when this is odd
    values = tuple(n - x if x > 0 or (x == 0 and not odd) else n + 1 - x for x in h)
    try:
        perm = SignedPermutation(n, values)
    except ValueError as exc:
        raise InvariantError(f"mu names no element of the finite D_{n}: {exc}") from exc
    require(_coroot_heights(perm) == mu, f"mu names no element of the finite D_{n}")
    return perm


def dual_stratum_holds(n: int, r: int) -> bool:
    """The identities of the dual stratum w0 * w_r * w_levi, r even.

    Its one-line form is ``dual_stratum_string(n, r)``; in the affine D_n
    group with the fork marked it is min_rep(w_{r+1..n}, levi) below the
    top rank and the identity at it (the stratum is then the whole space);
    and it factors into the chain elements x_{nbar-1} x_{nbar-3} ... x_{r+1}.
    The affine identity compares coroot heights, so the lift is never built.
    """
    nbar = even_rank(n)
    ctx = build_context("D", n, n)
    dual = longest_perm(n) * skew_rank_element(n, r) * levi_longest_perm(n)
    if r < nbar:
        expected = min_rep(longest_element(ctx.group, range(r + 1, n + 1)), ctx.levi_nodes)
    else:
        expected = ctx.group.identity
    chained = identity_perm(n)
    for i in range(nbar - 1, r, -2):
        chained = chained * chain_perm(n, i)
    return (dual.values == dual_stratum_string(n, r)
            and expected.coroot_heights() == _coroot_heights(dual) and chained == dual)


def fibre_rank(n: int, r: int) -> tuple[int, SignedPermutation]:
    """Rank of the conormal fibre at the zero matrix, with its witness.

    Runs the whole pipeline: requires the dual stratum identities
    (``dual_stratum_holds``) and the Schubert closure predicate, and
    matches the unique Bruhat-maximal fibre label (the parabolic map, no
    enumeration) against the involution image of the co-rank stratum, by
    coroot heights, so the stratum's lift is never built.
    The rank is read off that label: its involution image, as a signed
    permutation p, gives rank #{i : p(i) > n} = 2k, and the label's length
    must be k(2n - 2k - 1), the dimension of the rank-<= 2k skew locus.
    """
    perm = skew_rank_element(n, r)
    nbar = even_rank(n)
    ctx = build_context("D", n, n)
    require(dual_stratum_holds(n, r), "dual stratum identities fail")

    witness = skew_rank_element(n, nbar - r)
    try:  # the paper's theorem makes the stratum's closure Schubert
        (top,) = conormal.fibre_maximal(ctx, element_of(ctx, perm))
    except ValueError as exc:
        raise InvariantError(f"rank-{r} stratum of n={n}: {exc}") from exc
    label = ctx.iota_elem(top)
    require(label.coroot_heights() == _coroot_heights(witness),
            "fibre maximum does not match the involuted co-rank stratum")
    rank = sum(1 for value in perm_of(ctx, label).values if value > n)
    k = rank // 2
    if top.length() != k * (2 * n - 2 * k - 1):
        raise InvariantError(
            f"fibre label length {top.length()} is not the dimension of the rank-{rank} locus")
    return rank, witness


def intersect_identity(n: int, r: int) -> bool:
    """Exact identity (w_r v_r) * twisted(v_{nbar-r})^{-1} = twisted(w_{nbar-r})."""
    ctx = build_context("D", n, n)
    nbar = even_rank(n)
    w = element_of(ctx, skew_rank_element(n, r))
    v = conormal.twisted_dual(ctx, w)
    w_co = element_of(ctx, skew_rank_element(n, nbar - r))
    v_co = conormal.twisted_dual(ctx, w_co)
    lhs = w * v * ctx.iota_elem(v_co).inverse()
    rhs = ctx.iota_elem(w_co)
    return lhs == rhs and min_rep(w * v, ctx.finite_nodes) == rhs
