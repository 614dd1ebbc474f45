"""Down sets, ideals, and maximal-ideal structure over tiny ground sets.

Subsets of the ground set {0, ..., n-1} are bitmasks; a family of subsets is
a frozenset of bitmasks.  A union-closed down set has a largest member, so
every ideal is P(M), the power set of its largest member M.  The ideals
inside a down set gamma are thus the P(M) for members M other than its
support, and its maximal ideals come from the maximal such M: every question
here is settled by these closed forms.  The star family keeps its direct
definition, so the theorem check compares two independent computations.

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
from itertools import combinations
from typing import Iterator

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
    "report_to_json",
    "union_support",
]

# The closed forms run past n = 4 (7,581 down sets at n = 5 take a fraction
# of a second), but the benchmark's report-mix workload feeds
# verify-foundations --n 5..7 as an input that must fail with exit 1, so the
# cap moves only together with that workload.
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

    def subsets(self) -> range:
        """All subset bitmasks, empty set included."""
        return range(1 << self.size)


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

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def replace_members(self, members: frozenset[int]) -> "FamilyOfSets":
        return FamilyOfSets(self.universe, members)


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, mask itself and 0 included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def union_support(f: FamilyOfSets) -> int:
    """Bitmask of the union of all members (the family's support)."""
    out = 0
    for m in f.members:
        out |= m
    return out


def _is_down_members(members: frozenset[int]) -> bool:
    for m in members:
        for sub in _submasks(m):
            if sub not in members:
                return False
    return True


def _is_union_closed(members: frozenset[int]) -> bool:
    for a, b in combinations(members, 2):
        if (a | b) not in members:
            return False
    return True


def _is_ideal_members(members: frozenset[int], ground: int) -> bool:
    """Ideal on the given ground mask: nonempty down set, union closed,
    every member inside ground, ground itself absent."""
    if not members:
        return False
    if ground in members:
        return False
    for m in members:
        if m & ~ground:
            return False
    return _is_down_members(members) and _is_union_closed(members)


def is_down_set(f: FamilyOfSets) -> bool:
    """True iff every subset of every member is a member.

    >>> u = Universe(2)
    >>> is_down_set(FamilyOfSets(u, frozenset({0b00, 0b01})))
    True
    >>> is_down_set(FamilyOfSets(u, frozenset({0b11})))
    False
    """
    return _is_down_members(f.members)


def is_ideal(f: FamilyOfSets, x: Universe) -> bool:
    """True iff f is an ideal on the ground set of x.

    The empty family is rejected: an ideal is a nonempty down set (hence
    contains the empty set), closed under pairwise union, with the full
    ground set not a member.
    """
    return _is_ideal_members(f.members, x.full_mask)


def _powerset(mask: int) -> frozenset[int]:
    return frozenset(_submasks(mask))


def _maximal_tops(members: frozenset[int], ground: int) -> list[int]:
    """Largest members of the maximal ideals on ground inside the down set
    members: its maximal members other than ground itself.  The family
    {empty set} has none, since there the empty set is the ground set."""
    below = [m for m in members if m != ground]
    return [m for m in below if not any(m != o and m | o == o for o in below)]


def _hat_members(tops: list[int]) -> frozenset[int]:
    """Intersection of the ideals P(M), M in the nonempty list tops: the
    power set of the members' common part."""
    common = tops[0]
    for m in tops[1:]:
        common &= m
    return _powerset(common)


def _family_sort_key(members: frozenset[int]) -> tuple:
    return (len(members), sorted(members))


def _down_support(gamma: FamilyOfSets) -> int:
    """Support of gamma, which must be a nonempty down set."""
    if not gamma.members:
        raise ValueError("gamma must be nonempty")
    if not _is_down_members(gamma.members):
        raise ValueError("gamma must be a down set")
    return union_support(gamma)


def gamma_maximal_ideals(gamma: FamilyOfSets) -> list[FamilyOfSets]:
    """All maximal ideals inside gamma, for gamma a nonempty down set whose
    support is not itself a member.

    Returned deterministically ordered (by size, then members).

    >>> u = Universe(2)
    >>> g = FamilyOfSets(u, frozenset({0b00, 0b01, 0b10}))
    >>> [sorted(i.members) for i in gamma_maximal_ideals(g)]
    [[0, 1], [0, 2]]
    """
    support = _down_support(gamma)
    if support in gamma.members:
        raise ValueError("the support of gamma must not be a member")
    found = sorted(map(_powerset, _maximal_tops(gamma.members, support)), key=_family_sort_key)
    return [gamma.replace_members(f) for f in found]


def i_hat(gamma: FamilyOfSets) -> FamilyOfSets:
    """Intersection of all maximal ideals inside gamma.

    Degenerate case: when the support is a member of the down set gamma the
    intersection collapses to the family {empty set}, returned directly.
    """
    support = _down_support(gamma)
    if support in gamma.members:
        return gamma.replace_members(frozenset({0}))
    return gamma.replace_members(_hat_members(_maximal_tops(gamma.members, support)))


def i_star(gamma: FamilyOfSets) -> FamilyOfSets:
    """All subsets S of the support with S union B in gamma for every member B."""
    support = union_support(gamma)
    out = set()
    for s in _submasks(support):
        if all((s | b) in gamma.members for b in gamma.members):
            out.add(s)
    return gamma.replace_members(frozenset(out))


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

    Î is read off the maximal ideals: the largest member of P(M) is M.
    """
    support = union_support(gamma)
    if support in gamma.members:
        maximal: tuple[FamilyOfSets, ...] = ()
        hat = i_hat(gamma)  # the degenerate case: {empty set}
    else:
        maximal = tuple(gamma_maximal_ideals(gamma))
        hat = gamma.replace_members(_hat_members([max(m.members) for m in maximal]))
    star = i_star(gamma)
    return IdealReport(
        gamma=gamma,
        maximal_ideals=maximal,
        i_hat=hat,
        i_star=star,
        equal=hat.members == star.members,
    )


def report_to_json(report: IdealReport) -> dict:
    """JSON-ready dict; subsets stay bitmask integers, families sorted."""
    return {
        "universe": report.gamma.universe.size,
        "gamma": report.gamma.sorted_members(),
        "maximal_ideals": [m.sorted_members() for m in report.maximal_ideals],
        "i_hat": report.i_hat.sorted_members(),
        "i_star": report.i_star.sorted_members(),
        "equal": report.equal,
    }


def _down_families(n: int) -> Iterator[frozenset[int]]:
    """Every down set of the size-n universe, empty one included, for any n.

    Subsets are decided in (popcount, value) order, so each comes up after
    all of its proper subsets; it may be taken only when every one of its
    maximal proper subsets (one point dropped) was taken.
    """
    order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    stack = [(0, frozenset())]
    while stack:
        i, members = stack.pop()
        if i == len(order):
            yield members
            continue
        m = order[i]
        stack.append((i + 1, members))
        if all((m & ~(1 << p)) in members for p in range(n) if m >> p & 1):
            stack.append((i + 1, members | {m}))


def enumerate_down_families(n: int) -> list[frozenset[int]]:
    """Every down-closed family over the size-n universe, empty one included.

    Counts are the classic ones: 3, 6, 20, 168 for n = 1..4.
    """
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be 1..{MAX_GROUND_SIZE}")
    return sorted(_down_families(n), key=_family_sort_key)


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
    universe = Universe(n)
    down = enumerate_down_families(n)
    scanned = len(down)
    checked = 0
    theorem_bad: list[dict] = []
    lemma_bad: list[dict] = []
    corollary_bad: list[dict] = []

    for members in down:
        if not members:
            continue
        gamma = FamilyOfSets(universe, members)
        support = union_support(gamma)
        qualifying = support not in members

        star = i_star(gamma)
        star_is_ideal = _is_ideal_members(star.members, support)
        if star_is_ideal != qualifying:
            corollary_bad.append({"gamma": sorted(members)})

        tops = _maximal_tops(members, support)
        covered = all(any(m | t == t for t in tops) for m in members)
        if covered != qualifying:
            lemma_bad.append({"gamma": sorted(members)})

        if qualifying:
            checked += 1
            hat = _hat_members(tops)
            if hat != star.members:
                theorem_bad.append(
                    {
                        "gamma": sorted(members),
                        "i_hat": sorted(hat),
                        "i_star": sorted(star.members),
                    }
                )

    return TheoremReport(
        n=n,
        scanned=scanned,
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
    universe = Universe(n)
    full = universe.full_mask
    ideals = [_powerset(m) for m in range(full)]
    bad: list[dict] = []
    primes = 0
    maximals = 0
    for ideal in ideals:
        prime = all(a in ideal or (full & ~a) in ideal for a in universe.subsets())
        maximal = not any(ideal < other for other in ideals)
        primes += prime
        maximals += maximal
        if prime != maximal:
            bad.append({"ideal": sorted(ideal), "prime": prime, "maximal": maximal})
    return PrimeMaximalReport(
        n=n,
        ideal_count=len(ideals),
        prime_count=primes,
        maximal_count=maximals,
        counterexamples=tuple(bad),
    )
