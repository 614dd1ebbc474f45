"""The transfer lemma of the blow-up, as a checker over expanded chains.

If B sits inside A below t, then B blown up by q sits inside A blown up by
q below t/q, and no larger window scale works in general.  No command or
verdict reads this; the tests run it over generated chains, with the two
set-algebra helpers it is built from.
"""

from __future__ import annotations

from fractions import Fraction

from porosity_lab._record import Record
from porosity_lab.blowup import blow_up_chain
from porosity_lab.tailset import Block, Chain, Interval, Point, TailFamily, _check_q, expand


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
