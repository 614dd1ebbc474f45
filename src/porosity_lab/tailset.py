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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from .rational import INF, RationalLike, format_rational, parse_rational

__all__ = [
    "DEFAULT_DEPTH",
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
    "RatioProfile",
    "block_inf",
    "block_sup",
    "merge_blocks",
    "restrict_blocks",
    "expand",
    "lambda_gap",
    "SP_EVIDENCE_RATIO",
    "PROBE_WINDOW",
    "probe_ratios",
    "certified_porosity_index",
    "porosity_profile",
    "blowup_certificate",
    "component_ratios",
    "ratio_profile",
    "certificate_to_json",
    "chain_to_json",
    "chain_from_json",
    "family_to_json",
    "family_from_json",
]

DEFAULT_DEPTH = 32


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


@dataclass(frozen=True)
class GeometricLadder:
    """Points x0 * rho**n, n = 0, 1, 2, ...  Gap ratios are constant, so the
    set keeps a fixed fraction of free space below every point and never
    becomes strongly porous."""

    x0: Fraction
    rho: Fraction

    has_zero_accumulation = True

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")

    def _points(self, depth):
        x = self.x0
        for _ in range(depth):
            yield x
            x *= self.rho


@dataclass(frozen=True)
class SuperGeometricLadder:
    """Points x0 * rho**(n(n+1)/2): consecutive ratios rho**(n+1) shrink to
    zero, so the relative gaps below the points open up completely."""

    x0: Fraction
    rho: Fraction

    has_zero_accumulation = True

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")

    def _points(self, depth):
        x = self.x0
        step = self.rho
        for _ in range(depth):
            yield x
            x *= step
            step *= self.rho


@dataclass(frozen=True)
class ExampleFamily:
    """Blocks of points whose in-block gap ratios alpha**k tighten more and
    more slowly while the joints between blocks widen without bound.

    Block j holds points y(0,j) .. y(j,j) with y(k,j) = alpha**k * y(k-1,j);
    the next block starts at y(0,j+1) = alpha**(j+1) * y(j,j).  Depth counts
    whole blocks, starting from y(0,1) = 1.
    """

    alpha: Fraction

    has_zero_accumulation = True

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


@dataclass(frozen=True)
class PatternLadder:
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

    has_zero_accumulation = True

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


@dataclass(frozen=True)
class ExplicitChain:
    """A chain given verbatim; depth is ignored on expansion.  Carries no
    accumulation claim: a finite block list never certifies behaviour at 0."""

    chain: Chain

    has_zero_accumulation = False


@dataclass(frozen=True)
class UnionOf:
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


@dataclass(frozen=True)
class BlowupOf:
    """The q-blow-up of another family: every point x thickens to the open
    interval (x/q, q*x) and overlaps merge."""

    base: "TailFamily"
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q <= 1:
            raise ValueError("q must exceed 1")

    @property
    def has_zero_accumulation(self):
        return self.base.has_zero_accumulation


TailFamily = Union[
    GeometricLadder,
    SuperGeometricLadder,
    ExampleFamily,
    PatternLadder,
    ExplicitChain,
    UnionOf,
    BlowupOf,
]

_POINT_FAMILIES = (GeometricLadder, SuperGeometricLadder, ExampleFamily, PatternLadder)


def expand(f: TailFamily, depth: int) -> Chain:
    """Materialize the first `depth` generations of a family.

    Point families emit `depth` rungs (whole blocks/groups for the grouped
    variants); the horizon lands on the smallest emitted coordinate.  Blown
    families expand the base and blow the result up; unions expand every
    part and merge.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(f, _POINT_FAMILIES):
        points = [Point(x) for x in f._points(depth)]
        return Chain(tuple(points), upper=points[0].x, horizon=points[-1].x)
    if isinstance(f, ExplicitChain):
        return f.chain
    if isinstance(f, UnionOf):
        chains = [expand(p, depth) for p in f.parts]
        horizon = max(c.horizon for c in chains)
        upper = max(c.upper for c in chains)
        blocks = merge_blocks(b for c in chains for b in c.blocks)
        return Chain(restrict_blocks(blocks, horizon), upper=upper, horizon=horizon)
    if isinstance(f, BlowupOf):
        from . import blowup

        return blowup.blow_up_chain(expand(f.base, depth), f.q)
    raise TypeError(f"not a tail family: {f!r}")


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
    deepest last."""
    return [
        (h, lambda_gap(c, h).value / h)
        for h in (block_inf(b) for b in c.blocks)
        if h > c.horizon
    ]


@dataclass(frozen=True)
class PorosityProfile:
    """Gap-to-height ratios along the canonical probe heights, plus the
    certified upper porosity when the family admits a closed form."""

    samples: Tuple[Tuple[Fraction, Fraction], ...]
    p_plus: Optional[Fraction]


def certified_porosity_index(f: TailFamily) -> Optional[Fraction]:
    """Closed-form upper porosity at 0, when the family carries one."""
    if isinstance(f, GeometricLadder):
        return 1 - f.rho
    if isinstance(f, (SuperGeometricLadder, ExampleFamily, PatternLadder)):
        return Fraction(1)
    if isinstance(f, BlowupOf):
        # full porosity survives the blow-up in both directions; partial
        # porosity values do not transfer exactly
        base = certified_porosity_index(f.base)
        return base if base == 1 else None
    return None


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


@dataclass(frozen=True)
class RatioProfile:
    """Width ratios beta_i = b_i/a_i and gap ratios gamma_i = a_i/b_{i+1}
    read off a descending interval chain, with whatever certificate the
    generating family supplies for their limits."""

    betas: Tuple[Fraction, ...]
    gammas: Tuple[Fraction, ...]
    certificate: TailCertificate


def _merge_cutoff(alpha: Fraction, q: Fraction) -> int:
    # largest k >= 0 with alpha**k * q**2 > 1; k=0 always qualifies
    k = 0
    value = q * q
    while value * alpha > 1:
        value *= alpha
        k += 1
    return k


def blowup_certificate(base: TailFamily, q) -> TailCertificate:
    """Closed-form tail certificate for the component chain of base blown up
    by q, where the family admits one."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    qq = q * q
    if isinstance(base, SuperGeometricLadder):
        # ratios shrink below 1/q**2 eventually: isolated components of
        # width ratio exactly q**2 and gap ratios rho**-(n+1)/q**2 -> inf
        return ExplicitLimit(qq, True)
    if isinstance(base, GeometricLadder):
        if qq * base.rho > 1:
            return UNKNOWN  # everything merges into one interval, no tail
        return ExplicitLimit(qq, False)
    if isinstance(base, ExampleFamily):
        # within a late block the first k* gaps merge into one cluster and
        # the rest stay isolated; the cluster width dominates the limsup
        k = _merge_cutoff(base.alpha, q)
        return ExplicitLimit(qq * base.alpha ** Fraction(-k * (k + 1), 2), False)
    if isinstance(base, PatternLadder):
        betas, gammas = [], []
        width = qq
        for r in base.ratios:
            if r * qq > 1:
                width /= r
            else:
                betas.append(width)
                gammas.append(1 / (r * qq))
                width = qq
        betas.append(width)
        gammas.append(INF)  # the joint after each group outgrows every bound
        return EventuallyPeriodic(tuple(betas), tuple(gammas))
    return UNKNOWN


def component_ratios(comps) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Width ratios b_i/a_i and gap ratios a_i/b_{i+1} of a descending
    tuple of intervals (a_i, b_i)."""
    betas = tuple(c.hi / c.lo for c in comps)
    gammas = tuple(comps[i].lo / comps[i + 1].hi for i in range(len(comps) - 1))
    return betas, gammas


def ratio_profile(source, depth: int = DEFAULT_DEPTH) -> RatioProfile:
    """Extract the beta/gamma sequences of a component chain.

    Accepts a Chain made of intervals, or a family expanding to one (a blown
    family, typically).  Chains containing isolated points are rejected:
    blow the set up first, points have no width to measure.
    """
    if isinstance(source, Chain):
        chain, cert = source, UNKNOWN
    else:
        chain = expand(source, depth)
        cert = UNKNOWN
        if isinstance(source, BlowupOf):
            cert = blowup_certificate(source.base, source.q)
    for b in chain.blocks:
        if not isinstance(b, Interval):
            raise ValueError("chain has isolated points; blow up first")
    return RatioProfile(*component_ratios(chain.blocks), cert)


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


def family_to_json(f: TailFamily) -> dict:
    if isinstance(f, GeometricLadder):
        return {
            "variant": "GeometricLadder",
            "x0": format_rational(f.x0),
            "rho": format_rational(f.rho),
        }
    if isinstance(f, SuperGeometricLadder):
        return {
            "variant": "SuperGeometricLadder",
            "x0": format_rational(f.x0),
            "rho": format_rational(f.rho),
        }
    if isinstance(f, ExampleFamily):
        return {"variant": "ExampleFamily", "alpha": format_rational(f.alpha)}
    if isinstance(f, PatternLadder):
        return {
            "variant": "PatternLadder",
            "x0": format_rational(f.x0),
            "ratios": [format_rational(r) for r in f.ratios],
            "decay": format_rational(f.decay),
        }
    if isinstance(f, ExplicitChain):
        return {"variant": "ExplicitChain", "chain": chain_to_json(f.chain)}
    if isinstance(f, UnionOf):
        return {"variant": "UnionOf", "parts": [family_to_json(p) for p in f.parts]}
    if isinstance(f, BlowupOf):
        return {
            "variant": "BlowupOf",
            "base": family_to_json(f.base),
            "q": format_rational(f.q),
        }
    raise TypeError(f"not a tail family: {f!r}")


def family_from_json(data: dict) -> TailFamily:
    try:
        variant = data["variant"]
    except (TypeError, KeyError):
        raise ValueError("family descriptor needs a 'variant' key")
    if variant == "GeometricLadder":
        return GeometricLadder(parse_rational(data["x0"]), parse_rational(data["rho"]))
    if variant == "SuperGeometricLadder":
        return SuperGeometricLadder(
            parse_rational(data["x0"]), parse_rational(data["rho"])
        )
    if variant == "ExampleFamily":
        return ExampleFamily(parse_rational(data["alpha"]))
    if variant == "PatternLadder":
        return PatternLadder(
            parse_rational(data["x0"]),
            tuple(parse_rational(r) for r in data["ratios"]),
            parse_rational(data["decay"]),
        )
    if variant == "ExplicitChain":
        return ExplicitChain(chain_from_json(data["chain"]))
    if variant == "UnionOf":
        return UnionOf(tuple(family_from_json(p) for p in data["parts"]))
    if variant == "BlowupOf":
        return BlowupOf(family_from_json(data["base"]), parse_rational(data["q"]))
    raise ValueError(f"unknown family variant: {variant!r}")
