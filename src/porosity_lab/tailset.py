"""Exact chains descending to zero and the families that generate them.

A Chain is the finite, fully-inspectable face of a subset of the positive
reals: a strictly descending list of open rational intervals and isolated
rational points inside (0, upper], plus a knowledge horizon below which the
set is unspecified.  Parametric families expand to a chain at any requested
depth; the analytic ones also carry closed-form tail certificates for the
asymptotics a finite prefix can never prove.

Every coordinate and ratio handed out is a fractions.Fraction, and the only
non-rational value is the infinity marker for diverging gap ratios.  Inside,
each chain carries a view of itself as ints over one denominator (`_View`),
which a blown point family's chain builds, as its ends, only when read.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cached_property, wraps
from heapq import merge
from itertools import repeat
from math import lcm, prod
from numbers import Rational, Real

from ._record import Record
from .rational import (
    INF, RationalLike, _fraction, _ratio, _replayed_text, _scaled, format_rational, parse_rational
)

__all__ = [
    "Point",
    "Interval",
    "Chain",
    "GeometricLadder",
    "SuperGeometricLadder",
    "ExampleFamily",
    "PatternLadder",
    "ExplicitChain",
    "UnionOf",
    "BlowupOf",
    "TailFamily",
    "ExplicitLimit",
    "EventuallyPeriodic",
    "UNKNOWN",
    "TailCertificate",
    "GapMeasurement",
    "PorosityProfile",
    "block_inf",
    "block_sup",
    "expand",
    "expand_memo",
    "lambda_gap",
    "SP_EVIDENCE_RATIO",
    "PROBE_WINDOW",
    "probe_ratios",
    "porosity_profile",
    "blowup_certificate",
    "component_ratios",
    "component_ends_text",
    "certificate_to_json",
    "chain_to_json",
    "chain_from_json",
    "family_to_json",
    "family_from_json",
]

# ---------------------------------------------------------------------------
# building blocks and chains


def _exact(x) -> Fraction:
    # a Fraction is the common case; a binary float is rarely the rational meant
    if type(x) is Fraction:
        return x
    if isinstance(x, Real) and not isinstance(x, Rational):
        raise ValueError(f"not an exact rational: {x!r}")
    return Fraction(x)


class Point(Record):
    """Isolated point of the set; strictly positive."""

    x: Fraction

    def __init__(self, x: Fraction):
        x = _exact(x)
        if x <= 0:
            raise ValueError("point coordinate must be positive")
        vars(self).update(x=x)


class Interval(Record):
    """Open interval (lo, hi) with 0 < lo < hi."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = _exact(lo), _exact(hi)
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
        vars(self).update(lo=lo, hi=hi)


Block = (Point, Interval)


def block_inf(b: Block) -> Fraction:
    return b.x if isinstance(b, Point) else b.lo


def block_sup(b: Block) -> Fraction:
    return b.x if isinstance(b, Point) else b.hi


# A chain's coordinates as ints over one common denominator D: block k
# spans lo[k]/D to hi[k]/D, the horizon is horizon/D.  Point families emit
# it, blow-ups (nested ones composed into one) and unions transform their
# inputs' views, a scanned chain (`_scanned_chain`) takes it on first read,
# and only a chain from outside takes an lcm.  The hot scans run on it and
# build Fractions only for what they return.
_View = namedtuple("_View", "D lo hi horizon")


class Chain(Record):
    """Known part of a set: descending disjoint blocks inside (0, upper].

    The set is fully described on (horizon, upper] and unspecified below the
    horizon.  Every block coordinate is >= horizon (a generated chain puts
    its horizon exactly at the smallest emitted coordinate).

    A scanned chain (`_scanned_chain`), a blown point family's or the part
    `cc1_components` keeps, builds its blocks and horizon, its view and its
    ends' text only when read: the `blowup` report and the evidence for
    Î(SP) and I(CSP) read only ratios, counts and text.  The ratios are
    quotients of the reduced ends on every chain but a blown point
    family's, which carries its scan's.
    """

    blocks: tuple[Block, ...]
    upper: Fraction
    horizon: Fraction

    def __init__(self, blocks: tuple[Block, ...], upper: Fraction, horizon: Fraction):
        blocks, upper, horizon = tuple(blocks), _exact(upper), _exact(horizon)
        if upper <= 0:
            raise ValueError("upper edge must be positive")
        if not 0 <= horizon <= upper:
            raise ValueError("horizon must lie in [0, upper]")
        # the view takes the lcm of the denominators, each block end scaled
        # once (a point is one end); the checks run on it
        ends = [horizon, upper]
        for b in blocks:
            ends += (b.x,) if isinstance(b, Point) else (b.lo, b.hi)
        D = lcm(*(x.denominator for x in ends))
        floor, top, *ints = [x.numerator * (D // x.denominator) for x in ends]
        if len(ints) == len(blocks):  # points only: one tuple, as a point family has it
            lo = hi = tuple(ints)
        else:
            lo, hi, it = [], [], iter(ints)
            for b in blocks:
                lo.append(next(it))
                hi.append(lo[-1] if isinstance(b, Point) else next(it))
            lo, hi = tuple(lo), tuple(hi)
        for b, l, h in zip(blocks, lo, hi):
            if h > top:
                raise ValueError(f"block {b} sticks out above upper={upper}")
            if l < floor:
                raise ValueError(f"block {b} dips below horizon={horizon}")
        for k in range(1, len(lo)):
            # open ends may touch, two equal points may not
            if hi[k] > lo[k - 1] or lo[k] == hi[k] == lo[k - 1] == hi[k - 1]:
                raise ValueError(
                    f"blocks not strictly descending at {blocks[k - 1]} > {blocks[k]}"
                )
        view = _View(D, lo, hi, floor)
        vars(self).update(blocks=blocks, upper=upper, horizon=horizon, _view=view)

    # the (width, gap) ratios of a blown point family's components, as its
    # scan found them, and of the part `cc1_components` keeps of them; every
    # other chain reads its ratios off its ends
    _component_ratios = None

    def __getattr__(self, name):
        # only a scanned chain lacks fields: its maker gives blocks and horizon
        if name != "blocks" and name != "horizon":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self).update(zip(("blocks", "horizon"), self._make_ends()))
        return vars(self)[name]

    @cached_property
    def _view(self) -> _View:
        return self._make_view()

    @cached_property
    def _ends_text(self) -> list:
        return self._make_ends_text()

    def _make_ends_text(self) -> list:
        return [(format_rational(b.lo), format_rational(b.hi)) for b in self.blocks]


# Constructors for values that are valid by construction: they skip the checks
# and Fraction conversions of __init__.  Only internal code whose
# output is a valid chain by its own arithmetic uses them, and hands over the
# view; every value from outside the program goes through the public
# constructors.


def _point(x: Fraction) -> Point:
    p = object.__new__(Point)
    object.__setattr__(p, "x", x)
    return p


def _interval(lo: Fraction, hi: Fraction) -> Interval:
    i = object.__new__(Interval)
    object.__setattr__(i, "lo", lo)
    object.__setattr__(i, "hi", hi)
    return i


def _chain(blocks: tuple[Block, ...], upper: Fraction, horizon: Fraction, view: _View) -> Chain:
    c = object.__new__(Chain)
    vars(c).update(blocks=blocks, upper=upper, horizon=horizon, _view=view)
    return c


def _scanned_chain(upper: Fraction, ratios, make_ends, make_view, make_text) -> Chain:
    """A blown point family's chain, or the part of a chain `cc1_components`
    keeps: intervals only.  Its (width, gap) ratios are a point family's
    scan's, or None where they are quotients of its ends.  `make_ends()`
    gives its blocks and horizon, `make_view()` its view and `make_text()`
    its (lo, hi) text, each on first read."""
    c = object.__new__(Chain)
    vars(c).update(
        upper=upper, _component_ratios=ratios, _make_ends=make_ends, _make_view=make_view,
        _make_ends_text=make_text,
    )
    return c


def merge_blocks(items) -> tuple[list, list, list]:
    """The merge pass of `_union_chain`, which every union takes, blown or
    not: (hi, lo, tag, block) items in descending (hi, lo) order, as
    `heapq.merge` gives them from the parts' views, become the union's
    blocks and their lo and hi ints.
    Intervals overlapping on a set of positive length merge; a point inside
    an interval, or equal to the point above, vanishes; open ends that
    touch, or carry a point, stay apart."""
    blocks, los, his = [], [], []
    for hi, lo, _, b in items:
        if blocks:
            if type(blocks[-1]) is Interval:
                if hi > los[-1]:  # inside or overlapping the block above
                    if type(b) is Interval and lo < los[-1]:
                        blocks[-1], los[-1] = _interval(b.lo, blocks[-1].hi), lo
                    continue
            elif type(b) is Point and hi == los[-1]:
                continue
        blocks.append(b)
        los.append(lo)
        his.append(hi)
    return blocks, los, his


def _union_chain(chains, horizon: Fraction) -> Chain:
    """The union of `chains`, known only above `horizon`: their views,
    lifted onto the lcm of their denominators, merge in one `merge_blocks`
    pass, since each chain already descends; blocks below the horizon drop
    out and one straddling interval is clipped."""
    D = lcm(*(c._view.D for c in chains))
    runs = []
    for k, c in enumerate(chains):
        v, m = c._view, D // c._view.D
        lo = [x * m for x in v.lo]
        hi = lo if v.hi is v.lo else [x * m for x in v.hi]
        runs.append(zip(hi, lo, repeat(k), c.blocks))
    floor = horizon.numerator * (D // horizon.denominator)
    blocks, lo, hi = merge_blocks(merge(*runs, reverse=True))
    while lo and lo[-1] < floor:
        if hi[-1] > floor and type(blocks[-1]) is Interval:
            blocks[-1], lo[-1] = _interval(horizon, blocks[-1].hi), floor
            break
        del blocks[-1], lo[-1], hi[-1]
    upper = max(c.upper for c in chains)
    return _chain(tuple(blocks), upper, horizon, _View(D, tuple(lo), tuple(hi), floor))


def _check_q(q) -> Fraction:
    """The blow-up factor q as a Fraction; every q must exceed 1."""
    q = _exact(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    return q


# ---------------------------------------------------------------------------
# tail certificates


class ExplicitLimit(Record):
    """Closed-form asymptotics of a component chain: the exact limsup of the
    width ratios b/a, and whether the gap ratios a_n/b_{n+1} tend to
    infinity."""

    limsup_beta: RationalLike
    gamma_tends_to_infinity: bool


class EventuallyPeriodic(Record):
    """Component widths and gap ratios that repeat from some index on;
    an infinity entry in the gamma pattern marks a position whose value
    grows without bound from period to period."""

    beta_pattern: tuple[RationalLike, ...]
    gamma_pattern: tuple[RationalLike, ...]

    def __init__(
        self, beta_pattern: tuple[RationalLike, ...], gamma_pattern: tuple[RationalLike, ...]
    ):
        beta_pattern, gamma_pattern = tuple(beta_pattern), tuple(gamma_pattern)
        if not beta_pattern or not gamma_pattern:
            raise ValueError("patterns must be nonempty")
        vars(self).update(beta_pattern=beta_pattern, gamma_pattern=gamma_pattern)


class _Unknown:
    def __repr__(self):
        return "Unknown"


UNKNOWN = _Unknown()

TailCertificate = (ExplicitLimit, EventuallyPeriodic, _Unknown)


def certificate_to_json(cert: TailCertificate) -> dict:
    if isinstance(cert, ExplicitLimit):
        return {
            "kind": "ExplicitLimit",
            "limsup_beta": format_rational(cert.limsup_beta),
            "gamma_tends_to_infinity": cert.gamma_tends_to_infinity,
        }
    if isinstance(cert, EventuallyPeriodic):
        return {
            "kind": "EventuallyPeriodic",
            "beta_pattern": [format_rational(x) for x in cert.beta_pattern],
            "gamma_pattern": [format_rational(x) for x in cert.gamma_pattern],
        }
    return {"kind": "Unknown"}


# ---------------------------------------------------------------------------
# families


# inside an expand_memo() scope, _memo_key(f, depth) -> (f, chain) and
# (method, id(f), q's numerator and denominator) -> (f, value); else None
_EXPAND_MEMO: ContextVar[dict | None] = ContextVar("expand_memo", default=None)


def _once_per_q(method):
    """A family's method of q, computed once per (family, q) inside an
    `expand_memo()` scope: the engines and the report of one command ask a
    family the same question at the same q several times.  The memo holds
    the family, as expand's does; outside a scope every call computes."""

    @wraps(method)
    def once(self, q: Fraction):
        memo = _EXPAND_MEMO.get()
        if memo is None:
            return method(self, q)
        key = method, id(self), q.numerator, q.denominator
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (self, method(self, q))
        return hit[1]

    return once


class _Family(Record):
    """What a family knows about itself; the defaults mean no closed form."""

    def porosity_index(self) -> Fraction | None:
        """Closed-form upper porosity at 0."""
        return None

    def blowup_certificate(self, q: Fraction) -> TailCertificate:
        """Tail certificate of the component chain of the q-blow-up, q > 1."""
        return UNKNOWN

    def certified_bounds(self, q: Fraction, M: int) -> tuple[Fraction, Fraction] | None:
        """At blow-up factor q: bounds on the width-ratio limsup and on the
        liminf of the gap maxima over windows of M+1."""
        return None

    def _probe_ratios(self, depth: int) -> list:
        """`porosity_profile`'s probes, off the chain at `depth`."""
        return probe_ratios(expand(self, depth))

    def _blown_chain(self, depth: int, q: Fraction) -> Chain:
        """The chain of the q-blow-up at `depth`, as `BlowupOf` expands it."""
        from . import blowup  # blowup imports this module

        return blowup.blow_up_chain(expand(self, depth), q)

    def _point_parts(self) -> list | None:
        """The point families whose union this family is, or None when it
        is no such union."""
        return None


def _merge_scan(ratios, aa: int, bb: int) -> tuple[list, int, int]:
    """The components of the q-blow-up of points spaced by `ratios`, coprime
    int pairs (n, d) from the top down, for q**2 = aa/bb.  The blown points
    x and r*x merge exactly when r*q^2 > 1, strictly: ends that only touch
    stay apart.  Returns (mn, md, n, d) for each component a gap closes, top
    down, where mn/md is the product of the ratios merged into it and n/d
    the ratio across the gap below it; then mn and md of the last
    component, which no gap closes."""
    closed = []
    mn = md = 1
    for n, d in ratios:
        if n * aa > d * bb:
            mn *= n
            md *= d
        else:
            closed.append((mn, md, n, d))
            mn = md = 1
    return closed, mn, md


def _scan_ratios(closed, aa: int, bb: int) -> tuple[tuple, tuple]:
    """The width ratio of each component `_merge_scan` closes, q^2 over its
    merged product, and the gap ratio below it, 1/(r*q^2), where a joint
    (r = 0) gives a gap that grows without bound."""
    return (
        tuple([_ratio(aa * md, bb * mn) for mn, md, _, _ in closed]),
        tuple([_ratio(d * bb, n * aa) if n else INF for _, _, n, d in closed]),
    )


class _PointFamily(_Family):
    """A family of points given by a closed form.  It states its points (the
    first, `x0`, and the ratios between consecutive ones as coprime int
    pairs, `_ratios`), one late block of those ratios (`_late_block`, with
    (0, 1) for a joint whose ratio tends to 0), whether its groups stay
    bounded (`_bounded_groups`) and one note per class (`_notes`).  The rest
    comes from the late block: the porosity index, 1 - (least ratio); the
    class rules, where SP and Î(SP) hold exactly when it has a joint and CSP
    and I(CSP) when the groups also stay bounded; the blow-up certificate
    and the decomposition's obstruction, from one `_merge_scan`, the scan
    that also blows the family up on its ratio pairs (`_blown_chain`)."""

    has_zero_accumulation = True
    _bounded_groups = True

    def _points(self, depth: int) -> tuple[list, list]:
        """The points x_0 > ... > x_m of `_expand(depth)` and the ratio pairs
        (n, d) = x_k/x_{k-1}, k = 1..m: x_k = x0 * r_1 ... r_k, each point
        reduced against its ratio's small terms."""
        x = self.x0
        points, ratios = [x], list(self._ratios(depth))
        for n, d in ratios:
            x = _scaled(x, n, d)
            points.append(x)
        return points, ratios

    def _expand(self, depth: int) -> Chain:
        # the view keeps unreduced lo_k = x0_n n_1..n_k d_{k+1}..d_m over
        # D = x0_d d_1..d_m
        points, ratios = self._points(depth)
        nums, dens = [self.x0.numerator], [self.x0.denominator]
        for n, d in ratios:
            nums.append(nums[-1] * n)
            dens.append(d)
        D = 1
        for k in range(len(nums) - 1, -1, -1):
            nums[k] *= D
            D *= dens[k]
        lo = tuple(nums)
        blocks = tuple(map(_point, points))
        return _chain(blocks, points[0], points[-1], _View(D, lo, lo, lo[-1]))

    def _probe_ratios(self, depth: int) -> list:
        """`probe_ratios(self._expand(depth))` from the ratio pairs: the
        probe at x_k, k < m, is the largest gap x_{j-1} - x_j, j > k, over
        x_k.  Bottom up, that is the larger of 1 - r_{k+1}, in lowest terms
        as (d - n)/d, and r_{k+1} times the probe at x_{k+1}, compared
        cross-multiplied on small ints."""
        points, ratios = self._points(depth)
        best = _fraction(0, 1)  # below x_m the chain vouches for no gap
        samples = []
        for k in range(len(ratios) - 1, -1, -1):
            n, d = ratios[k]
            if (d - n) * best.denominator >= n * best.numerator:
                best = _fraction(d - n, d)
            else:
                best = _scaled(best, n, d)
            samples.append((points[k], best))
        samples.reverse()
        return samples

    def _point_parts(self):
        return [self]

    def _blown_chain(self, depth: int, q: Fraction) -> Chain:
        return self._blown_scan(self._ratios(depth), q)

    def _blown_scan(self, ratios, q: Fraction) -> Chain:
        """`blow_up_chain(self._expand(depth), q)` for the points that
        `ratios`, the first of `self._ratios(depth)`, step down to, from one
        `_merge_scan`.

        A component spans x_j/q to q*x_i over its top and bottom points x_i
        and x_j.  Its width ratio is q^2 over its merged product and the gap
        below it is 1/(r*q^2), both on small ints, and the chain keeps them.

        Its ends, its view and its ends' text wait for their first reader.
        The ends step down from q*x0: a component's lo is its hi over the
        width ratio, and the hi below is that lo over the gap ratio, two
        `_scaled` per component and none per point.  The view ints are the
        base view's (see `_expand`) at the component ends, lo*b^2 and hi*a^2
        over D*a*b for q = a/b: prefix products of the numerators times
        suffix products of the denominators, each taken per component.  The
        text replays the ends' steps from x0 in decimal (`_replayed_text`)."""
        a, b = q.numerator, q.denominator
        aa, bb = a * a, b * b
        comps, mn, md = _merge_scan(ratios, aa, bb)
        comps.append((mn, md, 0, 1))  # the last component: no gap below it
        betas, gammas = _scan_ratios(comps, aa, bb)
        gammas = gammas[:-1]
        x0 = self.x0
        upper = _scaled(x0, a, b)

        def ends():
            hi, blocks = upper, []
            for gamma, beta in zip((None, *gammas), betas):  # the gap above, the width
                if gamma:
                    hi = _scaled(blocks[-1].lo, gamma.denominator, gamma.numerator)
                blocks.append(_interval(_scaled(hi, beta.denominator, beta.numerator), hi))
            return tuple(blocks), blocks[-1].lo

        def view():
            # x_i's view int before its suffix product, top down; then, bottom
            # up, S is the product of the denominators below a component's
            # bottom point, and the view ints of its two ends share top * S
            tops, top = [], x0.numerator
            for mn, _, n, _ in comps:
                tops.append(top)
                top *= mn * n
            lo, hi, S = [], [], 1
            for (mn, md, _, d), top in zip(reversed(comps), reversed(tops)):
                S *= d
                end = top * S
                lo.append(end * (mn * bb))
                hi.append(end * (md * aa))
                S *= md
            lo.reverse()
            hi.reverse()
            return _View(x0.denominator * S * a * b, tuple(lo), tuple(hi), lo[-1])

        def text():
            steps = [(a, b)]
            for beta, gamma in zip(betas, gammas):
                steps += (beta.denominator, beta.numerator), (gamma.denominator, gamma.numerator)
            steps.append((betas[-1].denominator, betas[-1].numerator))
            ends = _replayed_text(x0, steps)
            return list(zip(ends[1::2], ends[::2]))  # (lo, hi)

        return _scanned_chain(upper, (betas, gammas), ends, view, text)

    @cached_property
    def _late_range(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The least and the largest late ratio as int pairs, a joint as (0, 1);
        free of q: ExampleFamily's cut moves only powers of alpha between them."""
        block = self._late_block(Fraction(2))
        least = largest = block[0]
        for r in block:  # cross-multiplied: no Fraction is built
            least = r if r[0] * least[1] < least[0] * r[1] else least
            largest = r if r[0] * largest[1] > largest[0] * r[1] else largest
        return least, largest

    def porosity_index(self):
        return 1 - _ratio(*self._late_range[0])

    def sp_rule(self):
        n, d = self._late_range[0]
        cert = ExplicitLimit(_ratio(d, n), False) if n else ExplicitLimit(INF, True)
        return not n, cert, self._notes["SP"](self)

    def csp_rule(self):
        (n, _), (ln, ld) = self._late_range
        value = not n and self._bounded_groups
        cert = ExplicitLimit(INF, True) if value else ExplicitLimit(_ratio(ld, ln), False)
        return value, cert, self._notes["CSP"](self)

    def ihat_rule(self, q):
        return self._blown_rule(True, q, "Ihat_SP")

    def icsp_rule(self, q):
        return self._blown_rule(self._bounded_groups, q, "I_CSP")

    def _blown_rule(self, with_joint: bool, q: Fraction, name: str):
        # no joint: the set is not strongly porous, so neither Î(SP) nor I(CSP)
        if self._late_range[0][0]:
            return False, ExplicitLimit(INF, False), self._notes[name](self)
        return with_joint, self.blowup_certificate(q), self._notes[name](self)

    @_once_per_q
    def _late_components(self, q: Fraction) -> tuple[tuple, tuple]:
        """Width ratios and the gap ratio after each component of the
        q-blow-up of one late block (`_scan_ratios`)."""
        aa, bb = q.numerator**2, q.denominator**2
        comps, _, _ = _merge_scan(self._late_block(q), aa, bb)
        return _scan_ratios(comps, aa, bb)

    def blowup_certificate(self, q):
        betas, gammas = self._late_components(q)
        if not betas:
            return UNKNOWN  # everything merges into one interval, no tail
        return ExplicitLimit(max(betas), all(g is INF for g in gammas))

    def decomposition_obstruction(self, n: int, q: Fraction):
        """(reason, window bound) when the closed form rules out the
        decomposition with part-count parameter n at every depth, else
        None."""
        betas, gammas = self._late_components(q)
        if not betas:
            return "all points fuse into one component", None
        finite = [g for g in gammas if g is not INF]
        if len(finite) == len(gammas):  # no joint: one ratio, one gap over and over
            return "gap ratios are constant", max(finite)
        if n >= len(finite):
            return None
        return (
            f"each group carries {len(finite)} bounded gap ratios in a row; windows "
            f"of size {n + 1} miss the diverging joint infinitely often",
            max(finite),
        )


class _Ladder(_PointFamily):
    """Points descending from x0 by ratios built from one rho in (0, 1)."""

    x0: Fraction
    rho: Fraction

    def __init__(self, x0: Fraction, rho: Fraction):
        x0, rho = _exact(x0), _exact(rho)
        if x0 <= 0:
            raise ValueError("x0 must be positive")
        if not 0 < rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        vars(self).update(x0=x0, rho=rho)


class GeometricLadder(_Ladder):
    """Points x0 * rho**n, n = 0, 1, 2, ...  Gap ratios are constant, so the
    set keeps a fixed fraction of free space below every point and never
    becomes strongly porous."""

    def _ratios(self, depth):
        return repeat((self.rho.numerator, self.rho.denominator), depth - 1)

    def _late_block(self, q):
        return (self.rho.as_integer_ratio(),)

    _notes = {
        "SP": lambda f: (
            "free gaps (x_{n+1}, x_n) all have width ratio 1/rho; "
            f"the porosity index is pinned at 1 - rho = {format_rational(1 - f.rho)} < 1"
        ),
        "CSP": lambda f: (
            "consecutive points keep the fixed ratio rho, so any cover interval "
            "holds boundedly many of them and successive cover centers cannot "
            "shrink to ratio 0"
        ),
        "Ihat_SP": lambda f: (
            "any q with q^2 * rho > 1 fuses all points into a single component, "
            "so the component chain is finite (the set is not even porous: "
            f"index {format_rational(1 - f.rho)})"
        ),
        "I_CSP": lambda f: (
            "below the class of porous sets nothing qualifies: the set is not "
            f"porous (index {format_rational(1 - f.rho)}); for small q the gap "
            "ratios are even constant at 1/(q^2 rho)"
        ),
    }


class SuperGeometricLadder(_Ladder):
    """Points x0 * rho**(n(n+1)/2): consecutive ratios rho**(n+1) shrink to
    zero, so the relative gaps below the points open up completely."""

    def _ratios(self, depth):
        n, d = self.rho.numerator, self.rho.denominator
        for k in range(1, depth):
            yield n**k, d**k

    def _late_block(self, q):
        return ((0, 1),)  # every late ratio rho**(n+1) lies below 1/q**2

    _notes = {
        "SP": lambda f: "gap ratio x_{n+1}/x_n = rho^(n+1) -> 0: relative gaps open completely",
        "CSP": lambda f: (
            "the points are their own cover ladder: x_{n+1}/x_n = rho^(n+1) -> 0 "
            "and any q > 1 makes (x/q, qx) swallow x"
        ),
        "Ihat_SP": lambda f: (
            "for every q > 1 the blown points eventually separate: the chain is "
            "infinite and every width ratio settles at q^2 (q0 = 1)"
        ),
        "I_CSP": lambda f: (
            "M = 0 works for every q > 1: the gap ratios rho^-(n+1)/q^2 diverge "
            "on their own (q0 = 1)"
        ),
    }


class ExampleFamily(_PointFamily):
    """Blocks of points whose in-block gap ratios alpha**k tighten more and
    more slowly while the joints between blocks widen without bound.

    Block j holds points y(0,j) .. y(j,j) with y(k,j) = alpha**k * y(k-1,j);
    the next block starts at y(0,j+1) = alpha**(j+1) * y(j,j).  Depth counts
    whole blocks, starting from y(0,1) = 1.
    """

    alpha: Fraction
    x0 = Fraction(1)  # y(0,1), not a field
    _bounded_groups = False  # block j holds j + 1 points

    def __init__(self, alpha: Fraction):
        alpha = _exact(alpha)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        vars(self).update(alpha=alpha)

    def _ratios(self, depth):
        n, d = self.alpha.numerator, self.alpha.denominator
        for j in range(1, depth + 1):
            if j > 1:
                yield n**j, d**j  # the joint below block j - 1
            for k in range(1, j + 1):
                yield n**k, d**k

    @_once_per_q
    def _late_block(self, q):
        # alpha, alpha**2, ... through the first gap that stays open, then
        # the joint: the gaps after it in a late block only widen, so the
        # cut keeps every limsup and liminf
        a, b = q.numerator**2, q.denominator**2  # q**2
        n, d = self.alpha.as_integer_ratio()
        k = 1
        while n**k * a > d**k * b:  # alpha**k * q**2 > 1: the gap merges
            k += 1
        return (*((n**j, d**j) for j in range(1, k + 1)), (0, 1))

    @_once_per_q
    def smallest_exponent(self, q: Fraction) -> int:
        """Smallest positive m with q < (1/alpha)**m."""
        m = 1
        power = 1 / self.alpha
        while power <= q:
            power /= self.alpha
            m += 1
        return m

    def beta_limsup(self, q: Fraction) -> Fraction:
        """Sum of alpha**-j, j = 0..m, printed as the width-ratio bound.  It
        is no bound: it lies below the exact limsup (`blowup_certificate`)
        at 13 of 15 grid points, such as 7 < 8 at alpha = 1/2, q = 2."""
        return sum((1 / self.alpha) ** j for j in range(self.smallest_exponent(q) + 1))

    def window_liminf(self, q: Fraction, M: int) -> Fraction:
        """Bound (1/alpha)**(m+M+1) on the liminf of the gap maxima over
        windows of M+1 consecutive gap ratios."""
        return (1 / self.alpha) ** (self.smallest_exponent(q) + M + 1)

    def window_liminf_exact(self, q: Fraction, M: int) -> Fraction:
        """Exact liminf of the windowed gap maxima: the flattest windows start
        at the first open gap of a late block, right after its cluster."""
        return self.alpha ** (1 - len(self._late_block(q)) - M) / (q * q)

    def certified_bounds(self, q, M):
        return self.beta_limsup(q), self.window_liminf(q, M)

    _notes = {
        "SP": lambda f: "the joint below block j has gap ratio alpha^(j+1) -> 0",
        "CSP": lambda f: (
            "block heads repeat the gap ratio alpha: ever longer stretches force "
            "cover centers with ratio at least alpha infinitely often"
        ),
        "Ihat_SP": lambda f: (
            "for every q > 1 each late block contributes one cluster plus isolated "
            "components; width ratios stay below a bound depending only on alpha "
            "and q (q0 = 1)"
        ),
        "I_CSP": lambda f: (
            "no (q, M) works: windows of any size M+1 land entirely inside a "
            "block infinitely often, where the gap maxima stay at "
            "alpha^-(k*+M+1)/q^2 < infinity"
        ),
    }

    def decomposition_obstruction(self, n, q):
        return (
            "windowed gap maxima stay bounded: windows of size N+1 land inside "
            "a block infinitely often",
            self.window_liminf(q, n),
        )


class PatternLadder(_PointFamily):
    """Points in groups of a fixed multiplicative shape.

    Inside a group the consecutive ratios run through `ratios` once; group
    g+1 then starts a factor decay**(g+1) below the last point of group g.
    The in-group geometry repeats exactly while the joints between groups
    widen without bound, which makes the blown-up gap structure eventually
    periodic with one diverging position per group.  Depth counts groups.
    """

    x0: Fraction
    ratios: tuple[Fraction, ...]
    decay: Fraction

    def __init__(self, x0: Fraction, ratios: tuple[Fraction, ...], decay: Fraction):
        x0, ratios, decay = _exact(x0), tuple(map(_exact, ratios)), _exact(decay)
        if x0 <= 0:
            raise ValueError("x0 must be positive")
        for r in ratios:
            if not 0 < r < 1:
                raise ValueError("every in-group ratio must lie in (0, 1)")
        if not 0 < decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        vars(self).update(x0=x0, ratios=ratios, decay=decay)

    def _ratios(self, depth):
        n, d = self.decay.numerator, self.decay.denominator
        group = [(r.numerator, r.denominator) for r in self.ratios]
        for g in range(depth):
            if g:
                yield n**g, d**g  # the joint below group g - 1
            yield from group

    def _late_block(self, q):
        return (*(r.as_integer_ratio() for r in self.ratios), (0, 1))

    def blowup_certificate(self, q):
        return EventuallyPeriodic(*self._late_components(q))

    _notes = {
        "SP": lambda f: "the joint below group g has gap ratio prod(ratios) * decay^(g+1) -> 0",
        "CSP": lambda f: (
            "cover ladder at the group heads with q = 2/prod(ratios) = "
            f"{format_rational(2 / prod(f.ratios, start=Fraction(1)))}: each interval "
            "swallows its whole group and successive heads shrink by decay^(g+1) -> 0"
        ),
        "Ihat_SP": lambda f: (
            "for every q > 1 the blown groups repeat an identical finite pattern: "
            "infinitely many components with periodic width ratios (q0 = 1)"
        ),
        "I_CSP": lambda f: (
            f"M = {len(f.ratios)} works for every q > 1: each group contributes at "
            "most M bounded gap ratios before the diverging joint, so every "
            "window of size M+1 catches a joint (q0 = 1)"
        ),
    }


class ExplicitChain(_Family):
    """A chain given verbatim; depth is ignored on expansion.  Carries no
    accumulation claim: a finite block list never certifies behaviour at 0."""

    chain: Chain

    has_zero_accumulation = False

    def _expand(self, depth):
        return self.chain


class UnionOf(_Family):
    """Union of finitely many families.  The union is known only where every
    part is, so the merged chain keeps the highest of the part horizons.  Its
    blow-up is the union of its parts' blow-ups, which a union of point
    families merges from their scans (`_blown_chain`) by the same merge
    (`_union_chain`); its ratios and text are read off the merged ends, as
    on any chain.  Built in Python, keep within MAX_NESTING levels: repr,
    hash and the wire format recurse once per level, and no constructor
    checks it."""

    parts: tuple["TailFamily", ...]

    def __init__(self, parts: tuple["TailFamily", ...]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("union needs at least one part")
        vars(self).update(parts=parts)

    @property
    def has_zero_accumulation(self):
        return any(p.has_zero_accumulation for p in self.parts)

    def _expand(self, depth):
        chains = [expand(p, depth) for p in self.parts]
        return _union_chain(chains, max(c.horizon for c in chains))

    def _point_parts(self):
        leaves = []
        for p in self.parts:
            more = p._point_parts()
            if more is None:
                return None
            leaves += more
        return leaves

    def _blown_chain(self, depth, q):
        """The union of the parts' q-blow-ups, when every part is a point
        family or a union of them (`_point_parts`); else `blow_up_chain` of
        the merged chain.

        Each point family blows up its points at or above the union horizon
        H, the highest part horizon, by its own scan (`_blown_scan`).  H and
        each family's points above it are found on cross-multiplied running
        products of its ratio pairs, with no Fraction per point.  The scans
        merge as the parts of any union do (`_union_chain`), known above
        the lowest of their horizons, H/q, where the part with horizon H
        ends: touching ends stay apart, and nothing lies below H/q to
        clip."""
        leaves = self._point_parts()
        if leaves is None:
            return super()._blown_chain(depth, q)
        scans = [(f, list(f._ratios(depth))) for f in leaves]
        hn, hd = 0, 1  # H = hn/hd, the highest of the horizons x0 * r_1 ... r_m
        for f, ratios in scans:
            n = f.x0.numerator * prod([n for n, _ in ratios])
            d = f.x0.denominator * prod([d for _, d in ratios])
            if n * hd > hn * d:
                hn, hd = n, d
        blown = []
        for f, ratios in scans:
            u, v, k = f.x0.numerator * hd, f.x0.denominator * hn, 0  # x_k/H = u/v
            if u < v:
                continue  # every point lies below H
            for n, d in ratios:
                u, v = u * n, v * d
                if u < v:
                    break
                k += 1
            blown.append(f._blown_scan(ratios[:k], q))
        return _union_chain(blown, min(c.horizon for c in blown))


class BlowupOf(_Family):
    """The q-blow-up of another family: every point x thickens to the open
    interval (x/q, q*x) and overlaps merge.  Blow-ups compose for every
    base, (f(q0))(q) = f(q0*q), so a nested one multiplies its layers'
    factors and asks the innermost base for one blow-up at the product
    (`_blown_chain`), whose chain differs from blowing up the inner chain
    again only in its view's D.  A point family scans its ratio pairs, a
    union of point families merges its parts' scans as a union merges its
    parts' chains (`_union_chain`), any other base blows up its chain by
    `blow_up_chain`.  Nest within MAX_NESTING levels, as for
    `UnionOf`."""

    base: "TailFamily"
    q: Fraction

    def __init__(self, base: "TailFamily", q: Fraction):
        vars(self).update(base=base, q=_check_q(q))

    @property
    def has_zero_accumulation(self):
        return self.base.has_zero_accumulation

    def _expand(self, depth):
        return self.base._blown_chain(depth, self.q)

    def _blown_chain(self, depth, q):
        return self.base._blown_chain(depth, self.q * q)

    def porosity_index(self):
        # full porosity survives the blow-up in both directions; partial
        # porosity values do not transfer exactly
        base = self.base.porosity_index()
        return base if base == 1 else None


TailFamily = (
    GeometricLadder,
    SuperGeometricLadder,
    ExampleFamily,
    PatternLadder,
    ExplicitChain,
    UnionOf,
    BlowupOf,
)


def _memo_key(f: TailFamily, depth: int) -> tuple:
    if isinstance(f, BlowupOf):
        # callers build a BlowupOf afresh for every look at a blown chain,
        # so the key names what it is made of: the base's chain and q
        return _memo_key(f.base, depth), f.q
    if isinstance(f, ExplicitChain):
        return (id(f),)  # one chain at every depth
    return id(f), depth


@contextmanager
def expand_memo():
    """Within the block, expand builds each (family, depth) chain once.

    The memo lives as long as the block: `cli.main` runs each command
    inside one scope, and nothing survives it.  The per-q results of the
    point families (`_once_per_q`) share it.
    """
    token = _EXPAND_MEMO.set({})
    try:
        yield
    finally:
        _EXPAND_MEMO.reset(token)


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")


def expand(f: TailFamily, depth: int) -> Chain:
    """Materialize the first `depth` generations of a family.

    Point families emit `depth` rungs (whole blocks/groups for the grouped
    variants); the horizon lands on the smallest emitted coordinate.  Blown
    families expand the base and blow the result up; unions expand every
    part and merge.

    Inside an `expand_memo()` scope, such as the one `cli.main` opens
    around each command, each chain is built once.  The memo is keyed by
    the family's identity (`_memo_key`), not by its hash, which would hash
    every Fraction in it; it holds the family too, so no identity is
    reused while the scope lasts.  It is never global: a process-wide memo
    would grow without bound and turn every repeated call into a lookup.
    """
    _check_depth(depth)
    if not isinstance(f, _Family):
        raise TypeError(f"not a tail family: {f!r}")
    memo = _EXPAND_MEMO.get()
    if memo is None:
        return f._expand(depth)
    key = _memo_key(f, depth)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (f, f._expand(depth))
    return hit[1]


# ---------------------------------------------------------------------------
# the gap function


GapMeasurement = namedtuple("GapMeasurement", "value valid")


def _largest_gap(blocks, h: Fraction, floor: Fraction) -> Fraction:
    # largest open subinterval of (floor, h) meeting no block; blocks descend
    if h <= floor:
        return Fraction(0)
    best = Fraction(0)
    top = h
    for b in blocks:
        i, s = block_inf(b), block_sup(b)
        if i >= top:
            continue
        if s < top:
            gap = top - max(s, floor)
            if gap > best:
                best = gap
        top = i
        if top <= floor:
            return best
    if top - floor > best:
        best = top - floor
    return best


def lambda_gap(c: Chain, h) -> GapMeasurement:
    """Length of the largest open subinterval of (0, h) certainly free of
    the set.

    The unknown region below the horizon is treated as potentially occupied,
    so the returned value only counts gaps the chain vouches for.  The flag
    is true when an entirely empty unknown region could not enlarge the
    answer, i.e. when the measurement is horizon-independent.
    """
    h = _exact(h)
    if not 0 < h <= c.upper:
        raise ValueError(f"h must lie in (0, upper], got {h}")
    certain = _largest_gap(c.blocks, h, c.horizon)
    if_empty = _largest_gap(c.blocks, h, Fraction(0))
    return GapMeasurement(certain, certain == if_empty)


# ---------------------------------------------------------------------------
# porosity probes

# probe ratios this close to 1 at the deepest heights count as evidence of
# full porosity
SP_EVIDENCE_RATIO = Fraction(99, 100)
# how many of the deepest probes inform an empirical value
PROBE_WINDOW = 10


def probe_ratios(c: Chain, deepest: int | None = None) -> list:
    """(h, lambda(h)/h) at every block lower end h above the horizon,
    deepest last; with `deepest`, at only that many of the deepest probes.

    Equal to lambda_gap at each probe, in one bottom-up pass: the certain
    gaps below the lower end of block k are the tail above the horizon and
    the joints inf(b[j-1]) - sup(b[j]) for j > k, so a running maximum over
    the blocks already passed gives lambda at every probe, and the pass
    stops once it has the probes asked for.  It runs on the chain's view,
    where D cancels from every ratio.
    """
    if deepest is not None and deepest < 0:
        raise ValueError(f"deepest must be at least 0, got {deepest}")
    blocks = c.blocks
    if not blocks or deepest == 0:
        return []
    _, lo, hi, horizon = c._view
    best = lo[-1] - horizon
    samples = []
    for k in range(len(blocks) - 1, -1, -1):
        if lo[k] > horizon:
            samples.append((block_inf(blocks[k]), _ratio(best, lo[k])))
            if len(samples) == deepest:
                break
        if k and lo[k - 1] - hi[k] > best:
            best = lo[k - 1] - hi[k]
    samples.reverse()
    return samples


class PorosityProfile(Record):
    """Gap-to-height ratios along the canonical probe heights, plus the
    certified upper porosity when the family admits a closed form."""

    samples: tuple[tuple[Fraction, Fraction], ...]
    p_plus: Fraction | None


def porosity_profile(f: TailFamily, depth: int) -> PorosityProfile:
    """Evaluate the gap ratio along probe heights h = lower endpoints of the
    chain's blocks (each sits just above a gap, where the ratio is locally
    maximal).  Probes at or below the horizon are dropped: nothing certain
    can be said there.  The family gives its own probes (`_probe_ratios`):
    a point family scans its ratio pairs, with no chain.
    """
    if not f.has_zero_accumulation:
        raise ValueError("family does not accumulate at 0; no porosity to probe")
    _check_depth(depth)
    return PorosityProfile(tuple(f._probe_ratios(depth)), f.porosity_index())


# ---------------------------------------------------------------------------
# component ratios


def blowup_certificate(base: TailFamily, q) -> TailCertificate:
    """Closed-form tail certificate for the component chain of base blown up
    by q, where the family admits one."""
    return base.blowup_certificate(_check_q(q))


def component_ratios(c: Chain) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Width ratios b_i/a_i and gap ratios a_i/b_{i+1} of a chain of
    intervals (a_i, b_i), such as the components `cc1_components` keeps;
    a blown point family's chain carries them from its scan, and on any
    other chain, a blown union's too, each is a quotient of two reduced
    ends, with gcds against their terms only: the view ints run over the
    whole chain's D."""
    return _width_ratios(c), _gap_ratios(c)


def component_ends_text(c: Chain) -> list:
    """The wire text of each (lo, hi) of a chain of intervals, such as the
    components `cc1_components` keeps: `format_rational`'s, which a blown
    point family's chain replays in decimal on first read, so that its long
    ends print in linear time."""
    return c._ends_text


# the two halves of component_ratios, for the engines that read only one,
# and the count: off a blown point family's ratios, which its scan gives,
# else off the view, which builds no end


def _count(c: Chain) -> int:
    ratios = c._component_ratios
    return len(c._view.lo if ratios is None else ratios[0])


def _quotient(x: Fraction, y: Fraction) -> Fraction:
    """x/y of two reduced ends, with gcds against their terms only."""
    return _scaled(x, y.denominator, y.numerator)


def _width_ratios(c: Chain) -> tuple[Fraction, ...]:
    if c._component_ratios is not None:
        return c._component_ratios[0]
    return tuple([_quotient(b.hi, b.lo) for b in c.blocks])


def _gap_ratios(c: Chain) -> tuple[Fraction, ...]:
    if c._component_ratios is not None:
        return c._component_ratios[1]
    b = c.blocks
    return tuple([_quotient(x.lo, y.hi) for x, y in zip(b, b[1:])])


# ---------------------------------------------------------------------------
# wire format


def _block_to_json(b: Block) -> dict:
    if isinstance(b, Point):
        return {"point": format_rational(b.x)}
    return {"lo": format_rational(b.lo), "hi": format_rational(b.hi)}


def _block_from_json(data: dict) -> Block:
    if "point" in data:
        return Point(parse_rational(data["point"]))
    return Interval(parse_rational(data["lo"]), parse_rational(data["hi"]))


def chain_to_json(c: Chain) -> dict:
    return {
        "blocks": [_block_to_json(b) for b in c.blocks],
        "upper": format_rational(c.upper),
        "horizon": format_rational(c.horizon),
    }


def chain_from_json(data: dict) -> Chain:
    return Chain(
        tuple(_block_from_json(b) for b in data["blocks"]),
        upper=parse_rational(data["upper"]),
        horizon=parse_rational(data["horizon"]),
    )


# families nest at most this deep in a descriptor, a BlowupOf's base or a
# UnionOf's part one level down: reading one, like every engine, recurses
MAX_NESTING = 100

# the family variants by name, and the wire format of each field as
# (to JSON, from JSON) by field name; every other field is one rational
_VARIANTS = {cls.__name__: cls for cls in TailFamily}
_FIELD_CODECS = {
    "ratios": (
        lambda rs: [format_rational(r) for r in rs],
        lambda rs: tuple(parse_rational(r) for r in rs),
    ),
    "chain": (chain_to_json, chain_from_json),
    "base": (lambda f: family_to_json(f), lambda d: _family_from_json(d)),
    "parts": (
        lambda fs: [family_to_json(f) for f in fs],
        lambda ds: tuple(_family_from_json(d) for d in ds),
    ),
}
_RATIONAL_CODEC = (format_rational, parse_rational)


def family_to_json(f: TailFamily) -> dict:
    cls = type(f)
    if _VARIANTS.get(cls.__name__) is not cls:
        raise TypeError(f"not a tail family: {f!r}")
    out = {"variant": cls.__name__}
    for name in cls._fields:
        out[name] = _FIELD_CODECS.get(name, _RATIONAL_CODEC)[0](getattr(f, name))
    return out


def family_from_json(data: dict) -> TailFamily:
    """The family a descriptor names; one nested too deep is refused unread."""
    todo, depth = [data], 0
    while todo := [d for d in todo if isinstance(d, dict)]:
        if depth == MAX_NESTING:
            raise ValueError(f"nested deeper than {MAX_NESTING} families")
        depth += 1
        parts = [p for d in todo if isinstance(d.get("parts"), list) for p in d["parts"]]
        todo = [d.get("base") for d in todo] + parts
    return _family_from_json(data)


def _family_from_json(data: dict) -> TailFamily:
    try:
        variant = data["variant"]
    except (TypeError, KeyError):
        raise ValueError("family descriptor needs a 'variant' key")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown family variant: {variant!r}")
    return cls(*(_FIELD_CODECS.get(name, _RATIONAL_CODEC)[1](data[name]) for name in cls._fields))
