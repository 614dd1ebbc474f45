"""The q-blow-up operator and its structural consequences.

Blowing a set up by q > 1 replaces every point x with the open interval
(x/q, q*x).  On a chain this thickens each block, merges the overlaps, and
yields a descending chain of open intervals whose component structure near 0
carries all the membership information the verdict engines consume.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import _ratio, _scaled
from .tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    BlowupOf,
    Chain,
    TailFamily,
    _View,
    _chain,
    _check_q,
    _interval,
    _scanned_chain,
    block_inf,
    block_sup,
    expand,
    probe_ratios,
)

__all__ = [
    "blow_up_chain",
    "cc1_components",
    "find_covering_blowup",
]


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

    Blow-ups compose: blowing the result up by q' gives the chain of the
    blow-up by q*q', but for the view's D.  So `BlowupOf` blows a nested
    family up once, at the product (`_Family._blown_chain`), by this
    function, or for a point family, or a union of them, on ratio pairs, a
    scan the tests hold to this function's chain.
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

    A blown point family's chain walks its hi ends down from its upper
    edge on its scan's ratios, cross-multiplied, to the first one at most 1;
    every other chain cuts on its view, at the first hi <= D, and builds no
    end.  The part kept slices the whole chain's ends, view and ends' text
    when read, and a scanned chain's ratios at once; any other part kept
    reads its ratios off its own ends.
    """
    ratios = c._component_ratios
    if ratios is None:
        D, lo, hi, _ = c._view
        if any(map(int.__eq__, lo, hi)):
            raise ValueError("chain has isolated points; blow up first")
        i = next((k for k, h in enumerate(hi) if h <= D), len(hi))
    else:
        betas, gammas = ratios
        n, d, i = c.upper.numerator, c.upper.denominator, 0
        while n > d and i < len(betas):
            if i < len(gammas):
                n *= betas[i].denominator * gammas[i].denominator
                d *= betas[i].numerator * gammas[i].numerator
            i += 1
        ratios = betas[i:], gammas[i:]

    def ends():
        return c.blocks[i:], min(c.horizon, Fraction(1))

    def view():
        D, lo, hi, horizon = c._view
        return _View(D, lo[i:], hi[i:], min(horizon, D))

    def text():
        return c._ends_text[i:]

    return _scanned_chain(Fraction(1), ratios, ends, view, text)


# ---------------------------------------------------------------------------
# covering blow-up for non-porous sets


def find_covering_blowup(f: TailFamily, depth: int) -> tuple[Fraction, Fraction] | None:
    """Find (q, t) such that the blown-up chain has no gap between q*horizon
    and t, or None when the evidence points at full porosity instead.

    The porosity margin m comes from the certified upper porosity when the
    family has one, otherwise from the deepest probe ratios; q = 2/(1-m)
    then closes every relative gap of size at most s = (1+m)/2.  Either way
    the family gives its own blow-up (`BlowupOf`): a point family's scan, a
    union of them merged from their scans, any other chain's one pass.
    """
    margin = f.porosity_index()
    if margin == 1:
        return None
    if margin is None:
        # no internal gaps observed at all: any modest q will do
        probes = probe_ratios(expand(f, depth), PROBE_WINDOW)
        margin = max((r for _, r in probes), default=Fraction(0))
        if margin >= SP_EVIDENCE_RATIO:
            return None
    q = _ratio(2 * margin.denominator, margin.denominator - margin.numerator)
    blown = expand(BlowupOf(f, q), depth)
    # the blown chain's horizon is the base's over q, its upper edge q times
    # the base's
    n, d = q.numerator, q.denominator
    anchor, upper = _scaled(blown.horizon, n * n, d * d), _scaled(blown.upper, d, n)
    for b in blown.blocks:
        if block_inf(b) <= anchor < block_sup(b):
            t = min(upper, block_sup(b))
            if t > anchor:
                return (q, t)
            return None
    return None
