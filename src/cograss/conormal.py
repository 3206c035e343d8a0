"""Conormal combinatorics of Schubert varieties in a cominuscule context.

Root sets are bit masks over a fixed root order: bit k of a W^P mask is the
k-th cotangent root of ``CominusculeContext.cotangent_order`` (sorted Phi+
minus Phi+_levi), and bit k of a W_d^0 mask the k-th dual cotangent root of
``dual_cotangent_supports``.  An element of a grown coset set reads its
inversion and support masks off the context's table, and membership in the
table is its validation; any other element (a query, a detvar label, an
element read before its set is grown) is validated once and read by sign
(``weyl``'s ``inversion_mask``) into the same int.  For a minimal
representative w in the finite Weyl group, the conormal direction set R(w)
is the cotangent roots less the inversions of w, stored as that mask's
complement and decoded, in sorted order, on read.  Its twisted dual v (the
diagram involution applied to w0*w*w_levi) lives in the affine Levi
parabolic, where the shift alpha -> delta - alpha carries R(w) onto the
inversions of v (``shift_check``, which shifts R(w)'s bits through the
context's ``delta_shifts`` and compares them with v's sign read over
Phi+_{aff Levi}, never with v's mask), and the closure of the conormal
variety inside the ambient affine Schubert variety is again a Schubert
variety exactly when v satisfies the parabolic-longest-element smoothness
criteria.  No root set is grown here: ``shift_check`` reads Phi+_{aff Levi}
off the context's table iota(Phi+) (``CominusculeContext.affine_levi_roots``),
and c5 compares v's mask with the dual cotangent roots whose support mask
lies in Supp(v).  The fibre over the base point is indexed by the
minimal representatives of the affine Levi below b = (w*v) minimised over
the finite nodes.  That index set has a closed form: by the parabolic map
(Billey-Fan-Losonczy, "The parabolic map", J. Algebra 214, 1999) the
Demazure product m of the affine-Levi letters of a reduced word of b is the
maximum of W_{affine Levi} below b, and since u <= x iff u <= x^J for u in
W^J (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.5.1), the
index set is the interval of W_d^0 below m minimised over the finite nodes,
which is its unique maximum.  W_d^0 is a cominuscule quotient, so
that interval is the set of u whose inversions among the dual cotangent
roots Phi+_{aff Levi} minus Phi+_levi lie in those of its maximum (Proctor,
Europ. J. Combin. 5, 1984; Stembridge, J. Algebraic Combin. 5, 1996): the u
of W_d^0's table whose mask has no bit outside the maximum's.

Per-element data is derived once, in ``_element_report``, memoised per
(context, w) on the context, as the smoothness report is per (context, u).
Everything here is a pure function of the context's immutable data;
reports are frozen dataclasses with a stable JSON rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from . import rootsys
from .cominuscule import CominusculeContext
from .rootsys import Vector
from .weyl import (
    AffineWeylElement,
    demazure,
    demazure_fold,
    longest_element,
    min_rep,
)


@dataclass(frozen=True)
class SmoothnessReport:
    """The four equivalent smoothness tests for one affine Levi element."""

    c3: bool   # Demazure absorption: l((u^-1 * u) * w_levi) = l(u w_levi)
    c4: bool   # (u w_levi)^-1 sends every simple root of Supp(u) negative
    c5: bool   # Inv(u) on Phi+_{Supp(u)} is Phi+_{Supp(u)} minus Phi+_levi (beta_0 > 0)
    c6: bool   # u is the minimal coset form w_L w_{L & levi} for L = Supp(u)
    support: tuple[int, ...]
    witness: tuple[AffineWeylElement, AffineWeylElement]

    @property
    def smooth(self) -> bool:
        return self.c6


@dataclass(frozen=True)
class ConormalReport:
    w: AffineWeylElement
    v: AffineWeylElement
    wv: AffineWeylElement
    root_bits: int   # R(w): bit k set iff the k-th root of root_order lies in it
    root_order: tuple[Vector, ...] = field(repr=False)  # the context's cotangent_order
    smooth: SmoothnessReport
    closure_is_schubert: bool
    fibre_max: Optional[frozenset[AffineWeylElement]] = None
    fibre_all: Optional[frozenset[AffineWeylElement]] = None

    @property
    def roots(self) -> frozenset[Vector]:
        """R(w), decoded from its bits."""
        return frozenset(_decode(self.root_order, self.root_bits))


def _decode(order: tuple[Vector, ...], bits: int) -> Iterator[Vector]:
    """The roots whose bits are set, in the order's order."""
    while bits:
        low = bits & -bits
        yield order[low.bit_length() - 1]
        bits ^= low


def _require_min_rep(ctx: CominusculeContext, u: AffineWeylElement, span: tuple[int, ...],
                     quotient: tuple[int, ...], name: str) -> None:
    """ValueError unless u lies in W_span (the ``name``) and in W^quotient."""
    if u.group is not ctx.group:
        raise ValueError("element does not live in this context's Weyl group")
    if not u.support() <= set(span):
        raise ValueError(f"element is not in the {name}")
    for node in quotient:
        if u.has_right_descent(node):
            raise ValueError(
                f"element is not a minimal representative: descent at node {node}")


def _element_report(ctx: CominusculeContext, w: AffineWeylElement) -> ConormalReport:
    """The report on w and its twisted dual v without a fibre.  A w of the grown
    W^P is read off its table, and its v off W_d^0's, grown with it; any other w
    is validated once and its inversions read by sign."""
    if w in ctx.element_reports:
        return ctx.element_reports[w]
    masks = ctx.grown_masks(w, dual=False)
    if masks is None:
        _require_min_rep(ctx, w, ctx.finite_nodes, ctx.levi_nodes, "finite Weyl group")
        inv = w.inversion_mask(ctx.cotangent_order)
    else:
        inv = masks[0]
    v = ctx.iota_elem(ctx.w0 * w * ctx.w_levi)
    rootsys.require(masks is None or v in ctx.dual_min_reps, "twisted dual is not in W_d^0")
    try:  # v is derived, so a v outside W_d^0 is a bug
        smooth = is_smooth(ctx, v)
    except ValueError as exc:
        raise rootsys.InvariantError(f"twisted dual: {exc}") from exc
    full = (1 << len(ctx.cotangent_order)) - 1
    return ctx.element_reports.setdefault(w, ConormalReport(
        w=w, v=v, wv=w * v, root_bits=full & ~inv, root_order=ctx.cotangent_order,
        smooth=smooth, closure_is_schubert=smooth.c3))


def conormal_roots(ctx: CominusculeContext, w: AffineWeylElement) -> frozenset[Vector]:
    """R(w): the cotangent roots less the inversions of w."""
    return _element_report(ctx, w).roots


def twisted_dual(ctx: CominusculeContext, w: AffineWeylElement) -> AffineWeylElement:
    """The involution applied to w0 * w * w_levi; lands in the affine Levi."""
    return _element_report(ctx, w).v


def shift_check(ctx: CominusculeContext, w: AffineWeylElement) -> bool:
    """Shift-by-delta bijection between conormal roots and inversions of the dual.

    Tests {delta - alpha : alpha in R(w)} = {gamma in Phi+_{aff Levi} : v(gamma) < 0},
    read over all of Phi+_{aff Levi} so that an inverted Levi root fails it.
    The pointwise identity v(delta - alpha) = iota(w0(w(alpha))) does not involve w
    once v is substituted; ``checks.check_shift_root_bijection`` checks it per context.
    """
    report = _element_report(ctx, w)
    shifted = set(_decode(ctx.delta_shifts, report.root_bits))
    return shifted == report.v.inversions(ctx.affine_levi_roots)


def is_smooth(ctx: CominusculeContext, u: AffineWeylElement) -> SmoothnessReport:
    """Evaluate the four equivalent smoothness criteria independently.

    c5 reads u's inversion mask over the dual cotangent roots: off the table of
    the grown W_d^0, or by sign for any other u, which is validated once.  As u
    lies in W_{Supp(u)} and in W^{finite}, it inverts only roots of
    Phi+_{Supp(u)} and no Levi root, so c5, Inv(u) on Phi+_{Supp(u)} equal to
    Phi+_{Supp(u)} minus Phi+_levi, holds iff that mask has exactly the bits of
    the dual cotangent roots whose support lies in Supp(u).
    """
    if u in ctx.smoothness_reports:
        return ctx.smoothness_reports[u]
    duals = ctx.dual_cotangent_supports
    masks = ctx.grown_masks(u, dual=True)
    if masks is None:
        _require_min_rep(ctx, u, ctx.affine_levi_nodes, ctx.finite_nodes,
                         "affine Levi parabolic")
        supp = tuple(sorted(u.support()))
        inv, mask = u.inversion_mask(duals), sum(1 << i for i in supp)
    else:
        inv, mask = masks
        supp = tuple(i for i in ctx.affine_levi_nodes if mask >> i & 1)
    w_supp = longest_element(ctx.group, supp)
    w_supp_levi = longest_element(ctx.group, set(supp) & set(ctx.levi_nodes))
    c6 = u == w_supp * w_supp_levi
    u_inv = u.inverse()
    # u^-1 * (u w_levi) regrouped by associativity of *, as u w_levi is
    # length-additive for u in W^{finite}: each fold reads a word already held
    c3 = demazure(demazure(u_inv, u), ctx.w_levi).length() == (u * ctx.w_levi).length()
    inv_uw = ctx.w_levi * u_inv  # (u w_levi)^-1, as w_levi is an involution
    c4 = all(inv_uw.has_right_descent(node) for node in supp)

    c5 = inv == sum(1 << k for k, m in enumerate(duals.values()) if m & mask == m)

    return ctx.smoothness_reports.setdefault(u, SmoothnessReport(
        c3=c3, c4=c4, c5=c5, c6=c6, support=supp, witness=(w_supp, w_supp_levi)))


def closure_is_schubert(ctx: CominusculeContext, w: AffineWeylElement,
                        with_fibre: bool = False,
                        full_fibre: bool = False) -> ConormalReport:
    """Decide whether the compactified conormal variety is a Schubert variety.

    The decision is the Demazure absorption test on the twisted dual.  The
    ``sb-equiv`` check compares it with the other three smoothness criteria,
    and ``main-result`` with the length chain l(w * v^-1 * v * w_levi) >=
    dim G/B, equality iff the closure is Schubert.  The fibre maximum comes
    from the parabolic map (BFL 1999; Bjorner-Brenti Prop. 2.5.1);
    ``full_fibre`` (which implies ``with_fibre``) adds the interval of the
    context's W_d^0 below that maximum.  W_d^0 is a cominuscule quotient, so
    u lies below the maximum iff its inversions among the dual cotangent
    roots lie in the maximum's (Proctor 1984; Stembridge 1996): u's mask has
    no bit outside the maximum's.
    """
    report = _element_report(ctx, w)
    if not ((with_fibre or full_fibre) and report.closure_is_schubert):
        return report
    top = _fibre_top(ctx, report.wv)
    fibre_all = None
    if full_fibre:
        table = ctx.dual_min_rep_masks
        rootsys.require(top in table, "fibre maximum is not in W_d^0")
        top_inv = table[top][0]
        fibre_all = frozenset(u for u, (inv, _) in table.items() if not inv & ~top_inv)
    return replace(report, fibre_max=frozenset({top}), fibre_all=fibre_all)


def _fibre_top(ctx: CominusculeContext, wv: AffineWeylElement) -> AffineWeylElement:
    """Maximum of the fibre index set: Demazure fold of the affine-Levi letters.

    It lies in the affine Levi and below b by the subword property of the
    Demazure product (Knutson-Miller, Adv. Math. 184, 2004, Sec. 3)."""
    b = min_rep(wv, ctx.finite_nodes)
    affine_levi = set(ctx.affine_levi_nodes)
    m = demazure_fold(ctx.group.identity, (i for i in b.reduced_word() if i in affine_levi))
    return min_rep(m, ctx.finite_nodes)


def fibre_maximal(ctx: CominusculeContext,
                  w: AffineWeylElement) -> frozenset[AffineWeylElement]:
    """Bruhat-maximal labels of the conormal fibre over the base point.

    A one-element set, from the closed form in the module docstring (BFL
    1999; Bjorner-Brenti Prop. 2.5.1), with no enumeration.  Requires the
    Schubert-closure predicate to hold; otherwise the report is attached
    to the error, since the decomposition is only available in the
    smooth case.  The whole index set sits behind
    ``closure_is_schubert(..., with_fibre=True, full_fibre=True)``.
    """
    report = _element_report(ctx, w)
    if not report.closure_is_schubert:
        raise ValueError(
            "conormal closure is not a Schubert variety; fibre decomposition "
            f"is not available (smoothness report: {report.smooth})")
    return frozenset({_fibre_top(ctx, report.wv)})


def nilpotent_set_check(ctx: CominusculeContext, gamma: Vector) -> bool:
    """Closure and sign conditions for the shifted cotangent root set plus gamma.

    gamma must be a finite simple root or the negative of a Levi simple
    root.  Checks that the set is closed under root addition and that
    the two witness elements send it into the positive and negative
    roots respectively.  Sums within psi come from the context's
    ``shifted_root_sums``; only the sums with gamma are tested per call.
    """
    admissible = {ctx.simple_root(i): i for i in ctx.finite_nodes}
    admissible_neg = {tuple(-x for x in ctx.simple_root(i)): i for i in ctx.levi_nodes}
    d = ctx.cominuscule_node
    group = ctx.group
    psi = ctx.shifted_cotangent_roots

    if gamma in admissible:
        node = admissible[gamma]
        if node == d:
            u_plus = ctx.w_affine_levi
            u_minus = group.simple[d]
        else:
            u_plus = ctx.w_affine_levi * group.simple[node]
            u_minus = group.simple[node]
    elif gamma in admissible_neg:
        u_plus = ctx.w_affine_levi
        u_minus = group.identity
    else:
        raise ValueError(
            "gamma must be a finite simple root or a negated Levi simple root")

    members = set(psi) | {gamma}
    if not ctx.shifted_root_sums <= members:
        return False
    for x in (*psi, gamma):
        total = tuple(a + b for a, b in zip(x, gamma))
        if rootsys.is_root(ctx.affine_diagram, total) and total not in members:
            return False
    return not u_plus.inversions(members) and u_minus.inversions(members) == members


def pairwise_sums_not_roots(ctx: CominusculeContext) -> bool:
    """No two elements of the shifted cotangent root set sum to a root."""
    return not ctx.shifted_root_sums


def report_to_dict(ctx: CominusculeContext, report: ConormalReport) -> dict:
    """Stable JSON-ready rendering of a conormal report."""
    out = {
        "type": ctx.series,
        "rank": ctx.rank,
        "d": ctx.cominuscule_node,
        "w_word": report.w.word_str(),
        "v_word": report.v.word_str(),
        "wv_word": report.wv.word_str(),
        "R": [list(vec) for vec in _decode(report.root_order, report.root_bits)],
        "smooth": {
            "c3": report.smooth.c3,
            "c4": report.smooth.c4,
            "c5": report.smooth.c5,
            "c6": report.smooth.c6,
            "L": list(report.smooth.support),
        },
        "closure_is_schubert": report.closure_is_schubert,
    }
    if report.fibre_max is not None:
        out["fibre_max"] = sorted(u.word_str() for u in report.fibre_max)
    if report.fibre_all is not None:
        out["fibre_all"] = sorted(u.word_str() for u in report.fibre_all)
    return out
