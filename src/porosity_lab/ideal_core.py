"""Down sets, ideals, and maximal-ideal structure over tiny ground sets.

Subsets of the ground set {0, ..., n-1} are bitmasks, and the public
functions take and return a family of subsets as a frozenset of bitmasks.
Inside, a family over k points is one 2**k-bit int, with bit s set iff the
subset s is a member.  Let HAS[p] be the positions whose subset holds point
p: then (x & HAS[p]) >> 2**p is the family of the members holding p, with p
dropped.  The down-set check and the maximal members thus take one shift
per point, and the power set P(M) is built by doubling.  The scans
run on these ints directly.  The public functions relabel a family's
support onto the points 0..k-1, run the same kernel and map the result
back.  So no int is wider than 2**(support size) bits, whatever the
universe, but that is the cost: a family whose support has more than a
couple of dozen points does not fit in memory.

A union-closed down set has a largest member, so every ideal is P(M), the
power set of its largest member M.  The ideals inside a down set gamma are
thus the P(M) for members M other than its support, and its maximal ideals
come from the maximal such M: every question here is settled by these
closed forms.  The star family keeps its direct definition, so the theorem
check compares two independent computations.

Vocabulary used throughout:

- down set: family closed under taking subsets.
- ideal on a ground set X: nonempty down set, closed under pairwise union,
  with X itself not a member (so the empty set always belongs, and the empty
  family is not an ideal).
- support of a family: the union of its members.
- maximal ideal inside a family gamma: an ideal I contained in gamma such
  that no ideal J on the support satisfies I < J <= gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Optional

__all__ = [
    "MAX_GROUND_SIZE",
    "FamilyOfSets",
    "IdealReport",
    "PrimeMaximalReport",
    "TheoremReport",
    "Universe",
    "check_prime_iff_maximal",
    "check_theorem_istar_eq_ihat",
    "enumerate_down_families",
    "gamma_maximal_ideals",
    "i_hat",
    "i_star",
    "ideal_report",
    "is_down_set",
    "is_ideal",
    "union_support",
]

# The scans run past n = 4: _theorem_scan(5) covers 7,581 down sets in
# 0.12-0.18 s (Python 3.11, 2-core host).  But the benchmark's report-mix
# workload feeds verify-foundations --n 5..7 as an input that must fail with
# exit 1, so the cap moves only together with that workload.
MAX_GROUND_SIZE = 4


@dataclass(frozen=True)
class Universe:
    """Ground set {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("ground set must have at least one point")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class FamilyOfSets:
    """A family of subsets of a universe, each subset a bitmask."""

    universe: Universe
    members: frozenset[int]

    def __post_init__(self) -> None:
        full = self.universe.full_mask
        for m in self.members:
            if m < 0 or m & ~full:
                raise ValueError(f"member {m:#b} is not a subset of the universe")


def _family(universe: Universe, members: frozenset[int]) -> FamilyOfSets:
    """A family built here from a checked one: skips the member check."""
    f = object.__new__(FamilyOfSets)
    object.__setattr__(f, "universe", universe)
    object.__setattr__(f, "members", members)
    return f


# ---------------------------------------------------------------------------
# the bitset kernel: a family over k points is a 2**k-bit int


@lru_cache(maxsize=None)
def _has(k: int) -> tuple[int, ...]:
    """HAS[p] for p < k: the positions s < 2**k whose subset holds point p.
    These constant masks are the only thing kept between calls."""
    everything = (1 << (1 << k)) - 1
    # everything // (2**(2**p) + 1) repeats 2**p ones over 2**p zeros: the
    # positions without p
    return tuple(everything // ((1 << (1 << p)) + 1) << (1 << p) for p in range(k))


def _positions(x: int) -> list[int]:
    """The set bits of x, ascending: a family's members, or a set's points."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _support(x: int, has) -> int:
    return sum(1 << p for p, h in enumerate(has) if x & h)


def _shrunk(x: int, has) -> int:
    """Every member of x with one of its points dropped.  In a down set x,
    the maximal members are the ones outside it."""
    out = 0
    for p, h in enumerate(has):
        out |= (x & h) >> (1 << p)
    return out


def _is_down(x: int, has) -> bool:
    return not _shrunk(x, has) & ~x


def _powerset(m: int) -> int:
    """P(m) by doubling: each point of m adds a copy of the family so far,
    with the point added."""
    x = 1
    for p in _positions(m):
        x |= x << (1 << p)
    return x


def _common(tops: Optional[int]) -> int:
    """The part common to the members of tops, whose power set is Î.  None
    stands for a down set whose support is a member: Î is then {empty set}."""
    return 0 if tops is None else reduce(and_, _positions(tops), -1)


def _star(x: int, points, has, down: bool) -> int:
    """The subsets S of points with S | B in x for every member B.

    T_S = {S | B : B in x} grows one point at a time along a depth-first
    walk, so at most one T per point is live.  When x is a down set, a
    failing S fails with every superset, and its subtree is skipped.
    """
    last = len(points)

    def walk(s: int, t: int, i: int) -> int:
        out = 0 if t & ~x else 1 << s
        if out or not down:
            for j in range(i, last):
                p = points[j]
                h = has[p]
                out |= walk(s | 1 << p, t & h | (t & ~h) << (1 << p), j + 1)
        return out

    return walk(0, x, 0)


def _bits(members) -> tuple[int, list[int]]:
    """The family relabeled onto its support's points 0..k-1, as a 2**k-bit
    int, and the support's points in the universe, ascending."""
    support = reduce(or_, members, 0)
    points = _positions(support)
    if support >> len(points):
        members = [sum(1 << i for i, p in enumerate(points) if m >> p & 1) for m in members]
    return sum(1 << m for m in members), points


def _members(x: int, points: list[int]) -> frozenset[int]:
    """The members of the relabeled family x, back in the universe."""
    subsets = _positions(x)
    if not points or points[-1] == len(points) - 1:
        return frozenset(subsets)
    return frozenset(sum(1 << points[i] for i in _positions(s)) for s in subsets)


def union_support(f: FamilyOfSets) -> int:
    """Bitmask of the union of all members (the family's support)."""
    return reduce(or_, f.members, 0)


def is_down_set(f: FamilyOfSets) -> bool:
    """True iff every subset of every member is a member.

    >>> u = Universe(2)
    >>> is_down_set(FamilyOfSets(u, frozenset({0b00, 0b01})))
    True
    >>> is_down_set(FamilyOfSets(u, frozenset({0b11})))
    False
    """
    x, points = _bits(f.members)
    return _is_down(x, _has(len(points)))


def is_ideal(f: FamilyOfSets, x: Universe) -> bool:
    """True iff f is an ideal on the ground set of x.

    The empty family is rejected: an ideal is a nonempty down set (hence
    contains the empty set), closed under pairwise union, with the full
    ground set not a member.
    """
    ground = x.full_mask
    if ground in f.members or any(m & ~ground for m in f.members):
        return False
    # the nonempty, union-closed down sets are the power sets of their support
    bits, points = _bits(f.members)
    return bits == (1 << (1 << len(points))) - 1


def _gamma_bits(gamma: FamilyOfSets) -> tuple[int, list[int], tuple, Optional[int]]:
    """The nonempty down set gamma relabeled (see _bits), its HAS masks, and
    the largest members of its maximal ideals: its maximal members, or None
    when its support is a member."""
    if not gamma.members:
        raise ValueError("gamma must be nonempty")
    x, points = _bits(gamma.members)
    has = _has(len(points))
    if not _is_down(x, has):
        raise ValueError("gamma must be a down set")
    tops = None if x >> (1 << len(points)) - 1 & 1 else x & ~_shrunk(x, has)
    return x, points, has, tops


def _ideals(universe: Universe, tops: int, points: list[int]) -> list[FamilyOfSets]:
    """The ideals P(M), M in tops, ordered by size, then members.  Members
    compare as M's points do: the least point in one M only decides both."""
    ordered = sorted(_positions(tops), key=lambda m: (m.bit_count(), _positions(m)))
    return [_family(universe, _members(_powerset(m), points)) for m in ordered]


def gamma_maximal_ideals(gamma: FamilyOfSets) -> list[FamilyOfSets]:
    """All maximal ideals inside gamma, for gamma a nonempty down set whose
    support is not itself a member.

    Returned deterministically ordered (by size, then members).

    >>> u = Universe(2)
    >>> g = FamilyOfSets(u, frozenset({0b00, 0b01, 0b10}))
    >>> [sorted(i.members) for i in gamma_maximal_ideals(g)]
    [[0, 1], [0, 2]]
    """
    _, points, _, tops = _gamma_bits(gamma)
    if tops is None:
        raise ValueError("the support of gamma must not be a member")
    return _ideals(gamma.universe, tops, points)


def i_hat(gamma: FamilyOfSets) -> FamilyOfSets:
    """Intersection of all maximal ideals inside gamma.

    Degenerate case: when the support is a member of the down set gamma the
    intersection collapses to the family {empty set}, returned directly.
    """
    _, points, _, tops = _gamma_bits(gamma)
    return _family(gamma.universe, _members(_powerset(_common(tops)), points))


def i_star(gamma: FamilyOfSets) -> FamilyOfSets:
    """All subsets S of the support with S union B in gamma for every member B."""
    x, points = _bits(gamma.members)
    has = _has(len(points))
    star = _star(x, range(len(points)), has, _is_down(x, has))
    return _family(gamma.universe, _members(star, points))


@dataclass(frozen=True)
class IdealReport:
    """Full maximal-ideal analysis of one down set."""

    gamma: FamilyOfSets
    maximal_ideals: tuple[FamilyOfSets, ...]
    i_hat: FamilyOfSets
    i_star: FamilyOfSets
    equal: bool


def ideal_report(gamma: FamilyOfSets) -> IdealReport:
    """Compute maximal ideals, their intersection, and the star family.

    One scan finds the maximal tops M; the maximal ideals are the P(M), and
    Î is read off the same tops.
    """
    x, points, has, tops = _gamma_bits(gamma)
    hat = _powerset(_common(tops))
    star = _star(x, range(len(points)), has, True)
    hat_members = _members(hat, points)
    return IdealReport(
        gamma=gamma,
        maximal_ideals=() if tops is None else tuple(_ideals(gamma.universe, tops, points)),
        i_hat=_family(gamma.universe, hat_members),
        i_star=_family(gamma.universe, hat_members if star == hat else _members(star, points)),
        equal=star == hat,
    )


def _down_sets(n: int) -> list[int]:
    """Every down set over n points as a 2**n-bit int, the empty one
    included, ordered by size, then members.

    By the Dedekind recursion: the members without point n-1 (A) and those
    with it, the point dropped (B), are down sets over n-1 points, B inside A.
    """
    level = [0, 1]
    for p in range(n):
        level = [a | b << (1 << p) for a in level for b in level if not b & ~a]
    width = 1 << n
    everything = (1 << width) - 1
    # complemented, lowest position first: where two families of one size
    # first differ, the one holding that subset sorts first
    return sorted(level, key=lambda x: (x.bit_count(), f"{x ^ everything:0{width}b}"[::-1]))


def _check_ground_size(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be 1..{MAX_GROUND_SIZE}")


def enumerate_down_families(n: int) -> list[frozenset[int]]:
    """Every down-closed family over the size-n universe, empty one included.

    Counts are the classic ones: 3, 6, 20, 168 for n = 1..4.
    """
    _check_ground_size(n)
    return [frozenset(_positions(x)) for x in _down_sets(n)]


@dataclass(frozen=True)
class TheoremReport:
    """Exhaustive check that the star family equals the maximal-ideal
    intersection, plus the two companion statements, over every down set of
    the size-n universe.

    scanned counts all down-closed families (empty one included, matching
    the classic family counts); checked counts the qualifying ones (nonempty
    with support not a member).  Families over smaller universes are covered
    automatically: the support is recomputed per family.
    """

    n: int
    scanned: int
    checked: int
    counterexamples: tuple[dict, ...]
    lemma_counterexamples: tuple[dict, ...]
    corollary_counterexamples: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.counterexamples
            or self.lemma_counterexamples
            or self.corollary_counterexamples
        )


def check_theorem_istar_eq_ihat(n: int) -> TheoremReport:
    """Scan every down set of the size-n universe and cross-check:

    - star family == intersection of maximal ideals (qualifying families);
    - every member lies inside some maximal ideal  <=>  qualifying;
    - the star family is an ideal on the support  <=>  qualifying.
    """
    Universe(n)
    _check_ground_size(n)
    return _theorem_scan(n)


def _theorem_scan(n: int) -> TheoremReport:
    """check_theorem_istar_eq_ihat for any n >= 1, past the cap."""
    has = _has(n)
    down = _down_sets(n)
    checked = 0
    theorem_bad: list[dict] = []
    lemma_bad: list[dict] = []
    corollary_bad: list[dict] = []
    for x in down:
        if not x:
            continue
        support = _support(x, has)
        qualifying = not x >> support & 1
        star = _star(x, _positions(support), has, True)
        # the ideals on the support are the P(M), M a proper part of it
        star_top = _support(star, has)
        if (star == _powerset(star_top) and star_top != support) != qualifying:
            corollary_bad.append({"gamma": _positions(x)})
        below = x & ~(1 << support)
        tops = below & ~_shrunk(below, has)
        covered = not x & ~reduce(or_, map(_powerset, _positions(tops)), 0)
        if covered != qualifying:
            lemma_bad.append({"gamma": _positions(x)})
        if qualifying:
            checked += 1
            hat = _powerset(_common(tops))
            if hat != star:
                theorem_bad.append(
                    {"gamma": _positions(x), "i_hat": _positions(hat), "i_star": _positions(star)}
                )

    return TheoremReport(
        n=n,
        scanned=len(down),
        checked=checked,
        counterexamples=tuple(theorem_bad),
        lemma_counterexamples=tuple(lemma_bad),
        corollary_counterexamples=tuple(corollary_bad),
    )


@dataclass(frozen=True)
class PrimeMaximalReport:
    """Check that prime ideals and maximal ideals coincide over 2**V."""

    n: int
    ideal_count: int
    prime_count: int
    maximal_count: int
    counterexamples: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.prime_count == self.n


def check_prime_iff_maximal(n: int) -> PrimeMaximalReport:
    """Take every ideal on the size-n ground set X, each P(M) for a subset
    M other than X, and verify that the prime ones (for every subset, it or
    its complement belongs) are exactly the maximal ones.  On a finite
    ground set there is one prime ideal per point: the subsets missing that
    point.
    """
    full = Universe(n).full_mask
    width = full + 1
    everything = (1 << width) - 1
    ideals = [_powerset(m) for m in range(full)]
    bad: list[dict] = []
    primes = 0
    maximals = 0
    for ideal in ideals:
        # the complement of subset s sits at position full - s, so the
        # complements of the members are the bits of ideal reversed
        prime = ideal | int(f"{ideal:0{width}b}"[::-1], 2) == everything
        maximal = not any(ideal != other and ideal & other == ideal for other in ideals)
        primes += prime
        maximals += maximal
        if prime != maximal:
            bad.append({"ideal": _positions(ideal), "prime": prime, "maximal": maximal})
    return PrimeMaximalReport(
        n=n,
        ideal_count=len(ideals),
        prime_count=primes,
        maximal_count=maximals,
        counterexamples=tuple(bad),
    )
