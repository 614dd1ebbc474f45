"""The q-blow-up operator and its structural consequences.

Blowing a set up by q > 1 replaces every point x with the open interval
(x/q, q*x).  On a chain this thickens each block, merges the overlaps, and
yields a descending chain of open intervals whose component structure near 0
carries all the membership information the verdict engines consume.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .rational import _scaled
from .tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    Block,
    Chain,
    Interval,
    Point,
    TailFamily,
    _View,
    _chain,
    _check_q,
    _interval,
    block_inf,
    block_sup,
    certified_porosity_index,
    expand,
    probe_ratios,
)

__all__ = [
    "blow_up_block",
    "blow_up_chain",
    "cc1_components",
    "blocks_within",
    "blocks_subset",
    "InclusionReport",
    "check_inclusion_lemma",
    "find_covering_blowup",
]


def blow_up_block(b: Block, q) -> Interval:
    """Point x -> (x/q, q*x); interval (a, b) -> (a/q, q*b)."""
    q = _check_q(q)
    if isinstance(b, Point):
        return Interval(b.x / q, q * b.x)
    return Interval(b.lo / q, q * b.hi)


def blow_up_chain(c: Chain, q) -> Chain:
    """Blow up every block and merge the overlaps into components.

    Open intervals sharing only an endpoint stay separate.  The horizon
    scales to horizon/q (the deepest blown coordinate); note the blown set
    is only pinned down above q*horizon, since unknown points just below
    the horizon would reach up that far.

    One pass, top down: the blocks descend, so both ends of their blow-ups
    descend too, and a blow-up joins the component above it exactly when
    it reaches past that component's lower end.

    The pass runs on the chain's view: for q = a/b in lowest terms, the
    blown view has denominator D*a*b, where x/q and q*x are lo*b^2 and
    hi*a^2, so each merge is one int comparison.  Only the two ends of each
    finished component become Fractions, reduced against q's small terms.
    """
    q = _check_q(q)
    a, b = q.numerator, q.denominator
    aa, bb = a * a, b * b
    v = c._view
    comps = []  # [lo, hi, top block, bottom block] of each component
    for i, (lo, hi) in enumerate(zip(v.lo, v.hi)):
        hi *= aa
        if comps and hi > comps[-1][0]:
            comps[-1][0], comps[-1][3] = lo * bb, i
        else:
            comps.append([lo * bb, hi, i, i])
    blocks = c.blocks
    blown = tuple(
        _interval(_scaled(block_inf(blocks[j]), b, a), _scaled(block_sup(blocks[i]), a, b))
        for _, _, i, j in comps
    )
    lo, hi = tuple(x[0] for x in comps), tuple(x[1] for x in comps)
    view = _View(v.D * a * b, lo, hi, v.horizon * bb)
    return _chain(blown, _scaled(c.upper, a, b), _scaled(c.horizon, b, a), view)


def cc1_components(c: Chain) -> Chain:
    """Components of a blown-up chain contained in (0, 1], descending, as a
    chain of their own with upper edge 1.  Chains with isolated points are
    rejected: components only exist after a blow-up.
    """
    D, lo, hi, horizon = c._view
    if any(l == h for l, h in zip(lo, hi)):
        raise ValueError("chain has isolated points; blow up first")
    i = next((k for k, h in enumerate(hi) if h <= D), len(hi))
    view = _View(D, lo[i:], hi[i:], min(horizon, D))
    return _chain(c.blocks[i:], Fraction(1), min(c.horizon, Fraction(1)), view)


# ---------------------------------------------------------------------------
# inclusion under blow-up


def blocks_within(blocks, lo: Fraction, hi: Fraction) -> tuple[Block, ...]:
    """Blocks of the set intersected with the open window (lo, hi)."""
    kept = []
    for b in blocks:
        if isinstance(b, Point):
            if lo < b.x < hi:
                kept.append(b)
        else:
            a, c = max(b.lo, lo), min(b.hi, hi)
            if a < c:
                kept.append(Interval(a, c))
    return tuple(kept)


def blocks_subset(inner, outer) -> bool:
    """True iff the set described by `inner` sits inside the set described
    by `outer` (both descending block tuples)."""
    for b in inner:
        if isinstance(b, Point):
            ok = any(
                (isinstance(o, Point) and o.x == b.x)
                or (isinstance(o, Interval) and o.lo < b.x < o.hi)
                for o in outer
            )
        else:
            # an open interval is connected, so a single component of the
            # outer set must swallow it whole
            ok = any(
                isinstance(o, Interval) and o.lo <= b.lo and b.hi <= o.hi
                for o in outer
            )
        if not ok:
            return False
    return True


class InclusionReport(Record):
    """Outcome of the blown-inclusion check at a given scale."""

    precondition_holds: bool
    conclusion_holds: bool | None
    passed: bool
    scale: Fraction
    window: tuple[Fraction, Fraction]


def check_inclusion_lemma(
    a_desc: TailFamily,
    b_desc: TailFamily,
    t,
    q,
    depth: int,
    scale=None,
) -> InclusionReport:
    """Check: if B is inside A below t, then B(q) is inside A(q) below
    scale*t (default scale 1/q, where the implication provably holds).

    Both sides are compared above the higher of the two horizons, and the
    blown comparison starts above q times that floor: below it, unknown
    points could reach into the window.  A failed precondition is reported,
    not raised.
    """
    t = Fraction(t)
    q = _check_q(q)
    scale = Fraction(1, 1) / q if scale is None else Fraction(scale)
    ca, cb = expand(a_desc, depth), expand(b_desc, depth)
    floor = max(ca.horizon, cb.horizon)
    pre = blocks_subset(
        blocks_within(cb.blocks, floor, t), blocks_within(ca.blocks, floor, t)
    )
    window = (q * floor, scale * t)
    if not pre:
        return InclusionReport(False, None, False, scale, window)
    # blow up the full sets (above the matched floor): mass at or above t
    # is exactly what makes scales beyond 1/q fail
    lid = max(ca.upper, cb.upper) + 1
    ba = blow_up_chain(Chain(blocks_within(ca.blocks, floor, lid), ca.upper, floor), q)
    bb = blow_up_chain(Chain(blocks_within(cb.blocks, floor, lid), cb.upper, floor), q)
    conclusion = blocks_subset(
        blocks_within(bb.blocks, window[0], window[1]),
        blocks_within(ba.blocks, window[0], window[1]),
    )
    return InclusionReport(True, conclusion, conclusion, scale, window)


# ---------------------------------------------------------------------------
# covering blow-up for non-porous sets


def find_covering_blowup(f: TailFamily, depth: int) -> tuple[Fraction, Fraction] | None:
    """Find (q, t) such that the blown-up chain has no gap between q*horizon
    and t, or None when the evidence points at full porosity instead.

    The porosity margin s comes from the certified upper porosity when the
    family has one, otherwise from the deepest probe ratios; q = 1/(1-s)
    then closes every relative gap of size at most s.
    """
    certified = certified_porosity_index(f)
    if certified == 1:
        return None
    chain = expand(f, depth)
    if certified is not None:
        s = (1 + certified) / 2
    else:
        samples = probe_ratios(chain, PROBE_WINDOW)
        if not samples:
            # no internal gaps observed at all: any modest q will do
            s = Fraction(1, 2)
        else:
            worst = max(r for _, r in samples)
            if worst >= SP_EVIDENCE_RATIO:
                return None
            s = (1 + worst) / 2
    q = 1 / (1 - s)
    blown = blow_up_chain(chain, q)
    anchor = q * chain.horizon
    if anchor == 0:
        if not blown.blocks:
            return None
        anchor = block_inf(blown.blocks[-1])
    for b in blown.blocks:
        if block_inf(b) <= anchor < block_sup(b):
            t = min(chain.upper, block_sup(b))
            if t > anchor:
                return (q, t)
            return None
    return None
