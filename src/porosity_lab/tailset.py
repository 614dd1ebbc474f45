"""Exact chains descending to zero and the families that generate them.

A Chain is the finite, fully-inspectable face of a subset of the positive
reals: a strictly descending list of open rational intervals and isolated
rational points inside (0, upper], plus a knowledge horizon below which the
set is unspecified.  Parametric families expand to a chain at any requested
depth; the analytic ones also carry closed-form tail certificates for the
asymptotics a finite prefix can never prove.

All coordinates and ratios are fractions.Fraction.  The only non-rational
value is the infinity marker for diverging gap ratios.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union, get_args

from .rational import INF, RationalLike, format_rational, is_finite, parse_rational

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
    "merge_blocks",
    "restrict_blocks",
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


@dataclass(frozen=True)
class Point:
    """Isolated point of the set; strictly positive."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x <= 0:
            raise ValueError("point coordinate must be positive")


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) with 0 < lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not 0 < self.lo < self.hi:
            raise ValueError(f"need 0 < lo < hi, got ({self.lo}, {self.hi})")


Block = Union[Point, Interval]


def block_inf(b: Block) -> Fraction:
    return b.x if isinstance(b, Point) else b.lo


def block_sup(b: Block) -> Fraction:
    return b.x if isinstance(b, Point) else b.hi


def _blocks_descend(higher: Block, lower: Block) -> bool:
    # every element of `lower` must be strictly below every element of
    # `higher`; open endpoints may touch, two equal points may not
    s, i = block_sup(lower), block_inf(higher)
    if s > i:
        return False
    if s == i and isinstance(higher, Point) and isinstance(lower, Point):
        return False
    return True


@dataclass(frozen=True)
class Chain:
    """Known part of a set: descending disjoint blocks inside (0, upper].

    The set is fully described on (horizon, upper] and unspecified below the
    horizon.  Every block coordinate is >= horizon (a generated chain puts
    its horizon exactly at the smallest emitted coordinate).
    """

    blocks: Tuple[Block, ...]
    upper: Fraction
    horizon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "upper", Fraction(self.upper))
        object.__setattr__(self, "horizon", Fraction(self.horizon))
        if self.upper <= 0:
            raise ValueError("upper edge must be positive")
        if not 0 <= self.horizon <= self.upper:
            raise ValueError("horizon must lie in [0, upper]")
        for b in self.blocks:
            if block_sup(b) > self.upper:
                raise ValueError(f"block {b} sticks out above upper={self.upper}")
            if block_inf(b) < self.horizon:
                raise ValueError(f"block {b} dips below horizon={self.horizon}")
        for higher, lower in zip(self.blocks, self.blocks[1:]):
            if not _blocks_descend(higher, lower):
                raise ValueError(f"blocks not strictly descending at {higher} > {lower}")


# Constructors for values that are valid by construction: they skip the checks
# and Fraction conversions of __post_init__.  Only internal code whose
# output is a valid chain by its own arithmetic uses them; every value from
# outside the program goes through the public constructors.


def _point(x: Fraction) -> Point:
    p = object.__new__(Point)
    object.__setattr__(p, "x", x)
    return p


def _interval(lo: Fraction, hi: Fraction) -> Interval:
    i = object.__new__(Interval)
    object.__setattr__(i, "lo", lo)
    object.__setattr__(i, "hi", hi)
    return i


def _chain(blocks: Tuple[Block, ...], upper: Fraction, horizon: Fraction) -> Chain:
    c = object.__new__(Chain)
    object.__setattr__(c, "blocks", blocks)
    object.__setattr__(c, "upper", upper)
    object.__setattr__(c, "horizon", horizon)
    return c


def merge_blocks(blocks) -> Tuple[Block, ...]:
    """Normalize an arbitrary collection of blocks into a descending chain.

    Intervals overlapping on a set of positive length merge; open intervals
    sharing only an endpoint stay separate (their union is disconnected).
    Points interior to an interval are absorbed, duplicate points collapse,
    points sitting on an open endpoint stay separate.
    """
    items = sorted(blocks, key=lambda b: (block_inf(b), block_sup(b)))
    out: list = []
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


def restrict_blocks(blocks, floor: Fraction) -> Tuple[Block, ...]:
    """Blocks of the set intersected with [floor, upper]: points below the
    floor drop out, straddling intervals are clipped above it."""
    kept = []
    for b in blocks:
        if block_inf(b) >= floor:
            kept.append(b)
        elif isinstance(b, Interval) and b.hi > floor:
            kept.append(Interval(floor, b.hi))
    return tuple(kept)


def _check_q(q) -> Fraction:
    """The blow-up factor q as a Fraction; every q must exceed 1."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    return q


# ---------------------------------------------------------------------------
# tail certificates


@dataclass(frozen=True)
class ExplicitLimit:
    """Closed-form asymptotics of a component chain: the exact limsup of the
    width ratios b/a, and whether the gap ratios a_n/b_{n+1} tend to
    infinity."""

    limsup_beta: RationalLike
    gamma_tends_to_infinity: bool


@dataclass(frozen=True)
class EventuallyPeriodic:
    """Component widths and gap ratios that repeat from some index on;
    an infinity entry in the gamma pattern marks a position whose value
    grows without bound from period to period."""

    beta_pattern: Tuple[RationalLike, ...]
    gamma_pattern: Tuple[RationalLike, ...]

    def __post_init__(self):
        if not self.beta_pattern or not self.gamma_pattern:
            raise ValueError("patterns must be nonempty")


class _Unknown:
    def __repr__(self):
        return "Unknown"


UNKNOWN = _Unknown()

TailCertificate = Union[ExplicitLimit, EventuallyPeriodic, _Unknown]


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


class _Family:
    """What a family knows about itself; the defaults mean no closed form."""

    def porosity_index(self) -> Optional[Fraction]:
        """Closed-form upper porosity at 0."""
        return None

    def blowup_certificate(self, q: Fraction) -> TailCertificate:
        """Tail certificate of the component chain of the q-blow-up, q > 1."""
        return UNKNOWN

    def certified_bounds(self, q: Fraction, M: int) -> Optional[Tuple[Fraction, Fraction]]:
        """At blow-up factor q: bounds on the width-ratio limsup and on the
        liminf of the gap maxima over windows of M+1."""
        return None

    def _memo_key(self, depth: int) -> tuple:
        return id(self), depth


class _PointFamily(_Family):
    """A family of points given by a closed form, from which it states
    everything the verdicts need: its points (`_points`), the porosity
    index, the blow-up certificate, one rule per class as plain
    (value, certificate, note) data (`sp_rule`, `csp_rule`, and
    `ihat_rule`/`icsp_rule` at a representative blow-up factor q), and
    what keeps the 2N+2-part decomposition from existing."""

    has_zero_accumulation = True

    def _expand(self, depth: int) -> Chain:
        # the points are positive Fractions, strictly descending
        points = tuple(map(_point, self._points(depth)))
        return _chain(points, points[0].x, points[-1].x)

    def decomposition_obstruction(self, n: int, q: Fraction):
        """(reason, window bound) when the closed form rules out the
        decomposition with part-count parameter n at every depth, else
        None."""
        return None


@dataclass(frozen=True)
class _Ladder(_PointFamily):
    """Points descending from x0 by ratios built from one rho in (0, 1)."""

    x0: Fraction
    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True)
class GeometricLadder(_Ladder):
    """Points x0 * rho**n, n = 0, 1, 2, ...  Gap ratios are constant, so the
    set keeps a fixed fraction of free space below every point and never
    becomes strongly porous."""

    def _points(self, depth):
        x = self.x0
        for _ in range(depth):
            yield x
            x *= self.rho

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


@dataclass(frozen=True)
class SuperGeometricLadder(_Ladder):
    """Points x0 * rho**(n(n+1)/2): consecutive ratios rho**(n+1) shrink to
    zero, so the relative gaps below the points open up completely."""

    def _points(self, depth):
        x = self.x0
        step = self.rho
        for _ in range(depth):
            yield x
            x *= step
            step *= self.rho

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


@dataclass(frozen=True)
class ExampleFamily(_PointFamily):
    """Blocks of points whose in-block gap ratios alpha**k tighten more and
    more slowly while the joints between blocks widen without bound.

    Block j holds points y(0,j) .. y(j,j) with y(k,j) = alpha**k * y(k-1,j);
    the next block starts at y(0,j+1) = alpha**(j+1) * y(j,j).  Depth counts
    whole blocks, starting from y(0,1) = 1.
    """

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    def _points(self, depth):
        y = Fraction(1)
        for j in range(1, depth + 1):
            yield y
            for k in range(1, j + 1):
                y *= self.alpha ** k
                yield y
            y *= self.alpha ** (j + 1)

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
        """Bound on the width-ratio limsup: sum of alpha**-j, j = 0..m."""
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


@dataclass(frozen=True)
class PatternLadder(_PointFamily):
    """Points in groups of a fixed multiplicative shape.

    Inside a group the consecutive ratios run through `ratios` once; group
    g+1 then starts a factor decay**(g+1) below the last point of group g.
    The in-group geometry repeats exactly while the joints between groups
    widen without bound, which makes the blown-up gap structure eventually
    periodic with one diverging position per group.  Depth counts groups.
    """

    x0: Fraction
    ratios: Tuple[Fraction, ...]
    decay: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "ratios", tuple(Fraction(r) for r in self.ratios))
        object.__setattr__(self, "decay", Fraction(self.decay))
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        for r in self.ratios:
            if not 0 < r < 1:
                raise ValueError("every in-group ratio must lie in (0, 1)")
        if not 0 < self.decay < 1:
            raise ValueError("decay must lie in (0, 1)")

    def _points(self, depth):
        x = self.x0
        for g in range(depth):
            yield x
            for r in self.ratios:
                x *= r
                yield x
            x *= self.decay ** (g + 1)

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


@dataclass(frozen=True)
class ExplicitChain(_Family):
    """A chain given verbatim; depth is ignored on expansion.  Carries no
    accumulation claim: a finite block list never certifies behaviour at 0."""

    chain: Chain

    has_zero_accumulation = False

    def _expand(self, depth):
        return self.chain

    def _memo_key(self, depth):
        # one chain at every depth
        return (id(self),)


@dataclass(frozen=True)
class UnionOf(_Family):
    """Union of finitely many families.  The union is known only where every
    part is, so the merged chain keeps the highest of the part horizons."""

    parts: Tuple["TailFamily", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("union needs at least one part")

    @property
    def has_zero_accumulation(self):
        return any(p.has_zero_accumulation for p in self.parts)

    def _expand(self, depth):
        chains = [expand(p, depth) for p in self.parts]
        horizon = max(c.horizon for c in chains)
        upper = max(c.upper for c in chains)
        blocks = merge_blocks(b for c in chains for b in c.blocks)
        return _chain(restrict_blocks(blocks, horizon), upper, horizon)


@dataclass(frozen=True)
class BlowupOf(_Family):
    """The q-blow-up of another family: every point x thickens to the open
    interval (x/q, q*x) and overlaps merge."""

    base: "TailFamily"
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))

    @property
    def has_zero_accumulation(self):
        return self.base.has_zero_accumulation

    def _expand(self, depth):
        from . import blowup

        return blowup.blow_up_chain(expand(self.base, depth), self.q)

    def _memo_key(self, depth):
        # callers build a BlowupOf afresh for every look at a blown chain,
        # so the key names what it is made of: the base's chain and q
        return self.base._memo_key(depth), self.q

    def porosity_index(self):
        # full porosity survives the blow-up in both directions; partial
        # porosity values do not transfer exactly
        base = self.base.porosity_index()
        return base if base == 1 else None


TailFamily = Union[
    GeometricLadder,
    SuperGeometricLadder,
    ExampleFamily,
    PatternLadder,
    ExplicitChain,
    UnionOf,
    BlowupOf,
]


# f._memo_key(depth) -> (f, chain) inside an expand_memo() scope, else None
_EXPAND_MEMO: ContextVar[Optional[dict]] = ContextVar("expand_memo", default=None)


@contextmanager
def expand_memo():
    """Within the block, expand builds each (family, depth) chain once.

    The memo lives as long as the block: one CLI command runs inside one
    scope, and nothing survives it.
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

    Inside an `expand_memo()` scope, such as one CLI command, each chain is
    built once.  The memo is keyed by the family's identity, not by its
    hash, which would hash every Fraction in it; it holds the family too,
    so no identity is reused while the scope lasts.  It is never global:
    a process-wide memo would grow without bound and turn every repeated
    call into a lookup.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not isinstance(f, _Family):
        raise TypeError(f"not a tail family: {f!r}")
    memo = _EXPAND_MEMO.get()
    if memo is None:
        return f._expand(depth)
    key = f._memo_key(depth)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (f, f._expand(depth))
    return hit[1]


# ---------------------------------------------------------------------------
# the gap function


class GapMeasurement(NamedTuple):
    value: Fraction
    valid: bool


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


def probe_ratios(c: Chain) -> list:
    """(h, lambda(h)/h) at every block lower end h above the horizon,
    deepest last.

    Equal to lambda_gap at each probe, in one bottom-up pass: the certain
    gaps below the lower end of block k are the tail above the horizon and
    the joints inf(b[j-1]) - sup(b[j]) for j > k, so a running maximum over
    the blocks already passed gives lambda at every probe.
    """
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


@dataclass(frozen=True)
class PorosityProfile:
    """Gap-to-height ratios along the canonical probe heights, plus the
    certified upper porosity when the family admits a closed form."""

    samples: Tuple[Tuple[Fraction, Fraction], ...]
    p_plus: Optional[Fraction]


def certified_porosity_index(f: TailFamily) -> Optional[Fraction]:
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


def component_ratios(comps) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Width ratios b_i/a_i and gap ratios a_i/b_{i+1} of a descending
    tuple of intervals (a_i, b_i)."""
    betas = tuple(c.hi / c.lo for c in comps)
    gammas = tuple(comps[i].lo / comps[i + 1].hi for i in range(len(comps) - 1))
    return betas, gammas


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
_VARIANTS = {cls.__name__: cls for cls in get_args(TailFamily)}
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
    for fld in fields(cls):
        out[fld.name] = _FIELD_CODECS.get(fld.name, _RATIONAL_CODEC)[0](getattr(f, fld.name))
    return out


def family_from_json(data: dict) -> TailFamily:
    try:
        variant = data["variant"]
    except (TypeError, KeyError):
        raise ValueError("family descriptor needs a 'variant' key")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown family variant: {variant!r}")
    return cls(
        *(_FIELD_CODECS.get(fld.name, _RATIONAL_CODEC)[1](data[fld.name]) for fld in fields(cls))
    )
