"""The q-blow-up operator and its structural consequences.

Blowing a set up by q > 1 replaces every point x with the open interval
(x/q, q*x).  On a chain this thickens each block, merges the overlaps, and
yields a descending chain of open intervals whose component structure near 0
carries all the membership information the verdict engines consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    Block,
    Chain,
    Interval,
    Point,
    TailFamily,
    block_inf,
    block_sup,
    certified_porosity_index,
    expand,
    merge_blocks,
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

def _check_q(q) -> Fraction:
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    return q


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
    """
    q = _check_q(q)
    blown = merge_blocks(blow_up_block(b, q) for b in c.blocks)
    return Chain(blown, upper=q * c.upper, horizon=c.horizon / q)


def cc1_components(c: Chain) -> Tuple[Interval, ...]:
    """Components of a blown-up chain contained in (0, 1], descending.

    The first entry is the numerically largest component.  Chains with
    isolated points are rejected: components only exist after a blow-up.
    """
    for b in c.blocks:
        if not isinstance(b, Interval):
            raise ValueError("chain has isolated points; blow up first")
    return tuple(b for b in c.blocks if b.hi <= 1)


# ---------------------------------------------------------------------------
# inclusion under blow-up


def blocks_within(blocks, lo: Fraction, hi: Fraction) -> Tuple[Block, ...]:
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


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the blown-inclusion check at a given scale."""

    precondition_holds: bool
    conclusion_holds: Optional[bool]
    passed: bool
    scale: Fraction
    window: Tuple[Fraction, Fraction]


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


def find_covering_blowup(f: TailFamily, depth: int) -> Optional[Tuple[Fraction, Fraction]]:
    """Find (q, t) such that the blown-up chain has no gap between q*horizon
    and t, or None when the evidence points at full porosity instead.

    The porosity margin s comes from the certified upper porosity when the
    family has one, otherwise from the deepest probe ratios; q = 1/(1-s)
    then closes every relative gap of size at most s.
    """
    chain = expand(f, depth)
    certified = certified_porosity_index(f)
    if certified is not None:
        if certified == 1:
            return None
        s = (1 + certified) / 2
    else:
        samples = probe_ratios(chain)
        if not samples:
            # no internal gaps observed at all: any modest q will do
            s = Fraction(1, 2)
        else:
            worst = max(r for _, r in samples[-PROBE_WINDOW:])
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
