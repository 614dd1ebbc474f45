"""Exact chains descending to zero and the families that generate them.

A Chain is the finite, fully-inspectable face of a subset of the positive
reals: a strictly descending list of open rational intervals and isolated
rational points inside (0, upper], plus a knowledge horizon below which the
set is unspecified.  Parametric families expand to a chain at any requested
depth; the analytic ones also carry closed-form tail certificates for the
asymptotics a finite prefix can never prove.

Every coordinate and ratio handed out is a fractions.Fraction, and the only
non-rational value is the infinity marker for diverging gap ratios.  Inside,
each chain carries a view of itself as ints over one denominator (`_View`).
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import merge
from itertools import repeat
from math import lcm

from ._record import Record
from .rational import INF, RationalLike, _ratio, _scaled, format_rational, is_finite, parse_rational

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
    "certified_porosity_index",
    "porosity_profile",
    "blowup_certificate",
    "component_ratios",
    "certificate_to_json",
    "chain_to_json",
    "chain_from_json",
    "family_to_json",
    "family_from_json",
]

# ---------------------------------------------------------------------------
# building blocks and chains


def _exact(x) -> Fraction:
    # a Fraction passes as it is: the parsed wire values and every value
    # the package computes are Fractions already
    return x if type(x) is Fraction else Fraction(x)


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
# it, blow-ups and unions transform their inputs' views, and only a chain
# from outside takes an lcm.  The hot scans run on it and build Fractions
# only for what they return.
_View = namedtuple("_View", "D lo hi horizon")


class Chain(Record):
    """Known part of a set: descending disjoint blocks inside (0, upper].

    The set is fully described on (horizon, upper] and unspecified below the
    horizon.  Every block coordinate is >= horizon (a generated chain puts
    its horizon exactly at the smallest emitted coordinate).
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
    object.__setattr__(c, "blocks", blocks)
    object.__setattr__(c, "upper", upper)
    object.__setattr__(c, "horizon", horizon)
    object.__setattr__(c, "_view", view)
    return c


def merge_blocks(items) -> tuple[list, list, list]:
    """The merge pass of `UnionOf`, internal to it: (hi, lo, tag, block)
    items in descending (hi, lo) order, as `heapq.merge` gives them from the
    parts' views, become the union's blocks and their lo and hi ints.
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


class _PointFamily(_Family):
    """A family of points given by a closed form, from which it states
    everything the verdicts need: its points (the first, `x0`, and the
    ratios between consecutive ones, `_ratios`), the porosity
    index, the blow-up certificate, one rule per class as plain
    (value, certificate, note) data (`sp_rule`, `csp_rule`, and
    `ihat_rule`/`icsp_rule` at a representative blow-up factor q), and
    what keeps the 2N+2-part decomposition from existing."""

    has_zero_accumulation = True

    def _expand(self, depth: int) -> Chain:
        # x_k = x0 * r_1 ... r_k for coprime ratio pairs (n, d): the points
        # reduce against each ratio's small terms; the view keeps unreduced
        # lo_k = x0_n n_1..n_k d_{k+1}..d_m over D = x0_d d_1..d_m
        top = x = self.x0
        points, nums, dens = [_point(x)], [x.numerator], [x.denominator]
        for n, d in self._ratios(depth):
            x = _scaled(x, n, d)
            points.append(_point(x))
            nums.append(nums[-1] * n)
            dens.append(d)
        D = 1
        for k in range(len(nums) - 1, -1, -1):
            nums[k] *= D
            D *= dens[k]
        lo = tuple(nums)
        return _chain(tuple(points), top, x, _View(D, lo, lo, lo[-1]))

    def decomposition_obstruction(self, n: int, q: Fraction):
        """(reason, window bound) when the closed form rules out the
        decomposition with part-count parameter n at every depth, else
        None."""
        return None


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

    def porosity_index(self):
        return 1 - self.rho

    def blowup_certificate(self, q):
        if q * q * self.rho > 1:
            return UNKNOWN  # everything merges into one interval, no tail
        return ExplicitLimit(q * q, False)

    def sp_rule(self):
        return False, ExplicitLimit(1 / self.rho, False), (
            "free gaps (x_{n+1}, x_n) all have width ratio 1/rho; "
            f"the porosity index is pinned at 1 - rho = {format_rational(1 - self.rho)} < 1"
        )

    def csp_rule(self):
        return False, ExplicitLimit(1 / self.rho, False), (
            "consecutive points keep the fixed ratio rho, so any cover interval "
            "holds boundedly many of them and successive cover centers cannot "
            "shrink to ratio 0"
        )

    def ihat_rule(self, q):
        return False, ExplicitLimit(INF, False), (
            "any q with q^2 * rho > 1 fuses all points into a single component, "
            "so the component chain is finite (the set is not even porous: "
            f"index {format_rational(1 - self.rho)})"
        )

    def icsp_rule(self, q):
        return False, ExplicitLimit(INF, False), (
            "below the class of porous sets nothing qualifies: the set is not "
            f"porous (index {format_rational(1 - self.rho)}); for small q the gap "
            "ratios are even constant at 1/(q^2 rho)"
        )

    def decomposition_obstruction(self, n, q):
        if q * q * self.rho > 1:
            return "all points fuse into one component", None
        return "gap ratios are constant", 1 / (q * q * self.rho)


class SuperGeometricLadder(_Ladder):
    """Points x0 * rho**(n(n+1)/2): consecutive ratios rho**(n+1) shrink to
    zero, so the relative gaps below the points open up completely."""

    def _ratios(self, depth):
        n, d = self.rho.numerator, self.rho.denominator
        for k in range(1, depth):
            yield n**k, d**k

    def porosity_index(self):
        return Fraction(1)

    def blowup_certificate(self, q):
        # ratios shrink below 1/q**2 eventually: isolated components of
        # width ratio exactly q**2 and gap ratios rho**-(n+1)/q**2 -> inf
        return ExplicitLimit(q * q, True)

    def sp_rule(self):
        return True, ExplicitLimit(INF, True), (
            "gap ratio x_{n+1}/x_n = rho^(n+1) -> 0: relative gaps open completely"
        )

    def csp_rule(self):
        return True, ExplicitLimit(INF, True), (
            "the points are their own cover ladder: x_{n+1}/x_n = rho^(n+1) -> 0 "
            "and any q > 1 makes (x/q, qx) swallow x"
        )

    def ihat_rule(self, q):
        return True, self.blowup_certificate(q), (
            "for every q > 1 the blown points eventually separate: the chain is "
            "infinite and every width ratio settles at q^2 (q0 = 1)"
        )

    def icsp_rule(self, q):
        return True, self.blowup_certificate(q), (
            "M = 0 works for every q > 1: the gap ratios rho^-(n+1)/q^2 diverge "
            "on their own (q0 = 1)"
        )


class ExampleFamily(_PointFamily):
    """Blocks of points whose in-block gap ratios alpha**k tighten more and
    more slowly while the joints between blocks widen without bound.

    Block j holds points y(0,j) .. y(j,j) with y(k,j) = alpha**k * y(k-1,j);
    the next block starts at y(0,j+1) = alpha**(j+1) * y(j,j).  Depth counts
    whole blocks, starting from y(0,1) = 1.
    """

    alpha: Fraction
    x0 = Fraction(1)  # y(0,1), not a field

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

    def merge_cutoff(self, q: Fraction) -> int:
        """Largest k >= 0 with alpha**k * q**2 > 1: the first k gaps of a
        late block merge under the q-blow-up."""
        k = 0
        value = q * q
        while value * self.alpha > 1:
            value *= self.alpha
            k += 1
        return k

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
        """Exact liminf of the windowed gap maxima: the flattest windows sit
        deep inside a block, right after the cluster."""
        return self.alpha ** (-(self.merge_cutoff(q) + M + 1)) / (q * q)

    def certified_bounds(self, q, M):
        return self.beta_limsup(q), self.window_liminf(q, M)

    def porosity_index(self):
        return Fraction(1)

    def blowup_certificate(self, q):
        # within a late block the first k* gaps merge into one cluster and
        # the rest stay isolated; the cluster width dominates the limsup
        k = self.merge_cutoff(q)
        return ExplicitLimit(q * q * self.alpha ** Fraction(-k * (k + 1), 2), False)

    def sp_rule(self):
        return True, ExplicitLimit(INF, True), (
            "the joint below block j has gap ratio alpha^(j+1) -> 0"
        )

    def csp_rule(self):
        return False, ExplicitLimit(1 / self.alpha, False), (
            "block heads repeat the gap ratio alpha: ever longer stretches force "
            "cover centers with ratio at least alpha infinitely often"
        )

    def ihat_rule(self, q):
        return True, self.blowup_certificate(q), (
            "for every q > 1 each late block contributes one cluster plus isolated "
            "components; width ratios stay below a bound depending only on alpha "
            "and q (q0 = 1)"
        )

    def icsp_rule(self, q):
        return False, self.blowup_certificate(q), (
            "no (q, M) works: windows of any size M+1 land entirely inside a "
            "block infinitely often, where the gap maxima stay at "
            "alpha^-(k*+M+1)/q^2 < infinity"
        )

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

    def porosity_index(self):
        return Fraction(1)

    def blowup_certificate(self, q):
        qq = q * q
        betas, gammas = [], []
        width = qq
        for r in self.ratios:
            if r * qq > 1:
                width /= r
            else:
                betas.append(width)
                gammas.append(1 / (r * qq))
                width = qq
        betas.append(width)
        gammas.append(INF)  # the joint after each group outgrows every bound
        return EventuallyPeriodic(tuple(betas), tuple(gammas))

    def sp_rule(self):
        return True, ExplicitLimit(INF, True), (
            "the joint below group g has gap ratio prod(ratios) * decay^(g+1) -> 0"
        )

    def csp_rule(self):
        span = Fraction(1)
        for r in self.ratios:
            span *= r
        return True, ExplicitLimit(INF, True), (
            "cover ladder at the group heads with q = 2/prod(ratios) = "
            f"{format_rational(2 / span)}: each interval swallows its whole group "
            "and successive heads shrink by decay^(g+1) -> 0"
        )

    def ihat_rule(self, q):
        return True, self.blowup_certificate(q), (
            "for every q > 1 the blown groups repeat an identical finite pattern: "
            "infinitely many components with periodic width ratios (q0 = 1)"
        )

    def icsp_rule(self, q):
        return True, self.blowup_certificate(q), (
            f"M = {len(self.ratios)} works for every q > 1: each group contributes at "
            "most M bounded gap ratios before the diverging joint, so every "
            "window of size M+1 catches a joint (q0 = 1)"
        )

    def decomposition_obstruction(self, n, q):
        cert = self.blowup_certificate(q)
        needed = len(cert.beta_pattern) - 1
        if n >= needed:
            return None
        return (
            f"each group carries {needed} bounded gap ratios in a row; windows "
            f"of size {n + 1} miss the diverging joint infinitely often",
            max(g for g in cert.gamma_pattern if is_finite(g)),
        )


class ExplicitChain(_Family):
    """A chain given verbatim; depth is ignored on expansion.  Carries no
    accumulation claim: a finite block list never certifies behaviour at 0."""

    chain: Chain

    has_zero_accumulation = False

    def _expand(self, depth):
        return self.chain


class UnionOf(_Family):
    """Union of finitely many families.  The union is known only where every
    part is, so the merged chain keeps the highest of the part horizons."""

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
        # the parts' views, lifted onto the lcm of their denominators, merge
        # in one pass: each part already descends
        chains = [expand(p, depth) for p in self.parts]
        D = lcm(*(c._view.D for c in chains))
        runs = []
        for k, c in enumerate(chains):
            v, m = c._view, D // c._view.D
            lo = [x * m for x in v.lo]
            hi = lo if v.hi is v.lo else [x * m for x in v.hi]
            runs.append(zip(hi, lo, repeat(k), c.blocks))
        horizon = max(c.horizon for c in chains)
        floor = horizon.numerator * (D // horizon.denominator)
        blocks, lo, hi = merge_blocks(merge(*runs, reverse=True))
        # the union is known only above the highest part horizon: blocks
        # below it drop out, one straddling interval is clipped
        while lo and lo[-1] < floor:
            if hi[-1] > floor and type(blocks[-1]) is Interval:
                blocks[-1], lo[-1] = _interval(horizon, blocks[-1].hi), floor
                break
            del blocks[-1], lo[-1], hi[-1]
        upper = max(c.upper for c in chains)
        return _chain(tuple(blocks), upper, horizon, _View(D, tuple(lo), tuple(hi), floor))


class BlowupOf(_Family):
    """The q-blow-up of another family: every point x thickens to the open
    interval (x/q, q*x) and overlaps merge."""

    base: "TailFamily"
    q: Fraction

    def __init__(self, base: "TailFamily", q: Fraction):
        vars(self).update(base=base, q=_check_q(q))

    @property
    def has_zero_accumulation(self):
        return self.base.has_zero_accumulation

    def _expand(self, depth):
        from . import blowup

        return blowup.blow_up_chain(expand(self.base, depth), self.q)

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


# _memo_key(f, depth) -> (f, chain) inside an expand_memo() scope, else None
_EXPAND_MEMO: ContextVar[dict | None] = ContextVar("expand_memo", default=None)


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
    inside one scope, and nothing survives it.
    """
    token = _EXPAND_MEMO.set({})
    try:
        yield
    finally:
        _EXPAND_MEMO.reset(token)


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
    if depth < 1:
        raise ValueError("depth must be at least 1")
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
    h = Fraction(h)
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
    blocks = c.blocks
    if not blocks:
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


def certified_porosity_index(f: TailFamily) -> Fraction | None:
    """Closed-form upper porosity at 0, when the family carries one."""
    return f.porosity_index()


def porosity_profile(f: TailFamily, depth: int) -> PorosityProfile:
    """Evaluate the gap ratio along probe heights h = lower endpoints of the
    chain's blocks (each sits just above a gap, where the ratio is locally
    maximal).  Probes at or below the horizon are dropped: nothing certain
    can be said there.
    """
    if not f.has_zero_accumulation:
        raise ValueError("family does not accumulate at 0; no porosity to probe")
    samples = probe_ratios(expand(f, depth))
    return PorosityProfile(tuple(samples), certified_porosity_index(f))


# ---------------------------------------------------------------------------
# component ratios


def blowup_certificate(base: TailFamily, q) -> TailCertificate:
    """Closed-form tail certificate for the component chain of base blown up
    by q, where the family admits one."""
    return base.blowup_certificate(_check_q(q))


def component_ratios(c: Chain) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Width ratios b_i/a_i and gap ratios a_i/b_{i+1} of a chain of
    intervals (a_i, b_i), such as the components `cc1_components` keeps;
    each is a quotient of two view ints."""
    return _width_ratios(c), _gap_ratios(c)


# the two halves of component_ratios, for the engines that read only one:
# each ratio costs a gcd of two view ints


def _width_ratios(c: Chain) -> tuple[Fraction, ...]:
    _, lo, hi, _ = c._view
    return tuple(map(_ratio, hi, lo))


def _gap_ratios(c: Chain) -> tuple[Fraction, ...]:
    _, lo, hi, _ = c._view
    return tuple(map(_ratio, lo, hi[1:]))


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


# the family variants by name, and the wire format of each field as
# (to JSON, from JSON) by field name; every other field is one rational
_VARIANTS = {cls.__name__: cls for cls in TailFamily}
_FIELD_CODECS = {
    "ratios": (
        lambda rs: [format_rational(r) for r in rs],
        lambda rs: tuple(parse_rational(r) for r in rs),
    ),
    "chain": (chain_to_json, chain_from_json),
    "base": (lambda f: family_to_json(f), lambda d: family_from_json(d)),
    "parts": (
        lambda fs: [family_to_json(f) for f in fs],
        lambda ds: tuple(family_from_json(d) for d in ds),
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
    try:
        variant = data["variant"]
    except (TypeError, KeyError):
        raise ValueError("family descriptor needs a 'variant' key")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown family variant: {variant!r}")
    return cls(*(_FIELD_CODECS.get(name, _RATIONAL_CODEC)[1](data[name]) for name in cls._fields))
