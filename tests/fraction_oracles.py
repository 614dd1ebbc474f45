"""The Fraction forms of the paths that now run on a chain's integer view.

Each function here is the library's code as it stood before the view: it
reads the Fraction coordinates of the blocks and nothing else, and takes
differences where the library compares.  The tests compare every int path
against its oracle.
"""

from fractions import Fraction
from math import gcd

from porosity_lab.membership import COVER_Q, HEAD_RATIO_CUT, TREND_WINDOW
from porosity_lab.tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    Interval,
    Point,
    _check_q,
    block_inf,
    block_sup,
)


def classify_trend(values):
    """The trend of the trailing TREND_WINDOW values, from the signs of
    their differences."""
    vals = list(values)[-TREND_WINDOW:]
    if len(vals) < 2:
        return "bounded"
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
        return "monotone-increasing"
    if all(d <= 0 for d in diffs):
        return "bounded"
    return "oscillating"


def probe_ratios(c):
    """(h, lambda(h)/h) at every block lower end h above the horizon,
    deepest last, from one bottom-up pass over the Fractions."""
    blocks = c.blocks
    if not blocks:
        return []
    best = block_inf(blocks[-1]) - c.horizon
    samples = []
    for k in range(len(blocks) - 1, -1, -1):
        h = block_inf(blocks[k])
        if h > c.horizon:
            samples.append((h, best / h))
        if k:
            best = max(best, block_inf(blocks[k - 1]) - block_sup(blocks[k]))
    samples.reverse()
    return samples


def sp_evidence(c):
    """(value, trend, peak) of the empirical SP verdict on a chain, read
    from every probe ratio; None when no probe lies above the horizon."""
    ratios = [r for _, r in probe_ratios(c)]
    if not ratios:
        return None
    peak = max(ratios[-PROBE_WINDOW:])
    return peak >= SP_EVIDENCE_RATIO, classify_trend(ratios), peak


def csp_cover_scan(c):
    """(value, trend, cluster count) of the empirical CSP ladder search
    with the candidate factor COVER_Q, on a chain with at least one
    block."""
    blocks = c.blocks
    cap = COVER_Q * COVER_Q
    clusters = []
    head = block_sup(blocks[0])
    low = block_inf(blocks[0])
    for b in blocks[1:]:
        if low <= cap * block_sup(b) and head <= cap * block_inf(b):
            low = block_inf(b)
        else:
            clusters.append(head)
            head, low = block_sup(b), block_inf(b)
    clusters.append(head)
    ratios = [clusters[i + 1] / clusters[i] for i in range(len(clusters) - 1)]
    growth = [1 / r for r in ratios]
    value = (
        len(ratios) >= 3
        and ratios[-1] <= HEAD_RATIO_CUT
        and classify_trend(growth) == "monotone-increasing"
    )
    return value, classify_trend(growth), len(clusters)


def _quotient(x, y):
    # x / y for positive x and y, reduced by the same two gcds as
    # Fraction's own division
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    g, h = gcd(xn, yn), gcd(xd, yd)
    return Fraction(xn // g * (yd // h), xd // h * (yn // g))


def component_ratios(comps):
    """Width ratios b_i/a_i and gap ratios a_i/b_{i+1} of a descending
    tuple of intervals (a_i, b_i)."""
    betas = tuple(_quotient(c.hi, c.lo) for c in comps)
    gammas = tuple(_quotient(comps[i].lo, comps[i + 1].hi) for i in range(len(comps) - 1))
    return betas, gammas


def blow_up_block(b, q):
    """Point x -> (x/q, q*x); interval (a, b) -> (a/q, q*b)."""
    q = _check_q(q)
    if isinstance(b, Point):
        return Interval(b.x / q, q * b.x)
    return Interval(b.lo / q, q * b.hi)


def merge_blocks(blocks):
    """Normalize an arbitrary collection of blocks into a descending chain,
    by sorting them bottom up and sweeping once."""
    items = sorted(blocks, key=lambda b: (block_inf(b), block_sup(b)))
    out = []
    for b in items:
        if not out:
            out.append(b)
            continue
        cur = out[-1]
        c_hi = block_sup(cur)
        b_lo, b_hi = block_inf(b), block_sup(b)
        if isinstance(cur, Interval) and isinstance(b, Interval):
            if b_lo < c_hi:
                if b_hi > c_hi:
                    out[-1] = Interval(cur.lo, b_hi)
                continue
        elif isinstance(cur, Interval) and isinstance(b, Point):
            if b_lo < c_hi:  # interior point, already covered
                continue
        elif isinstance(cur, Point) and isinstance(b, Point):
            if b.x == cur.x:
                continue
        # points never extend an interval and never straddle one from below
        out.append(b)
    out.reverse()
    return tuple(out)


def restrict_blocks(blocks, floor):
    """Blocks of the set intersected with [floor, upper]: points below the
    floor drop out, straddling intervals are clipped above it."""
    kept = []
    for b in blocks:
        if block_inf(b) >= floor:
            kept.append(b)
        elif isinstance(b, Interval) and b.hi > floor:
            kept.append(Interval(floor, b.hi))
    return tuple(kept)


def union(chains):
    """(blocks, upper, horizon) of the union of chains: every block merged,
    then cut at the highest horizon."""
    horizon = max(c.horizon for c in chains)
    blocks = merge_blocks(b for c in chains for b in c.blocks)
    return restrict_blocks(blocks, horizon), max(c.upper for c in chains), horizon
