"""Down sets, ideals, and maximal-ideal structure over tiny ground sets.

Subsets of the ground set {0, ..., n-1} are bitmasks; a family of subsets is
a frozenset of bitmasks.  Ground sets are capped at n = 4 so that every
question is settled by direct exhaustive search: the down-closed families of
an n-set number 3, 6, 20, 168 for n = 1..4, and the sub-families of any one
of them number at most 2**15.  The enumerations are their own oracle.

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

# Exhaustive enumeration is the whole point of this module; past n = 4 the
# family-of-families space (2**(2**n)) stops being enumerable.
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


def _ideals_within(members: frozenset[int], ground: int) -> list[frozenset[int]]:
    """Every sub-family of members that is an ideal on ground.

    Exhaustive over sub-families; the empty set must be available since
    every ideal contains it.  The empty ground set carries no ideals at all
    (the empty set would be the full set).
    """
    if 0 not in members or ground == 0:
        return []
    rest = sorted(m for m in members if m != 0 and m != ground and not (m & ~ground))
    out: list[frozenset[int]] = []
    for bits in range(1 << len(rest)):
        fam = {0}
        for i, m in enumerate(rest):
            if bits >> i & 1:
                fam.add(m)
        froz = frozenset(fam)
        if _is_down_members(froz) and _is_union_closed(froz):
            out.append(froz)
    return out


def _maximal_families(families: list[frozenset[int]]) -> list[frozenset[int]]:
    out = []
    for f in families:
        if not any(f < g for g in families):
            out.append(f)
    return out


def _maximal_ideals_members(members: frozenset[int], ground: int) -> list[frozenset[int]]:
    return _maximal_families(_ideals_within(members, ground))


def _common_members(maximal) -> frozenset[int]:
    """Members shared by every family in a nonempty list of maximal ideals."""
    if not maximal:
        raise ValueError("no maximal ideals inside gamma")
    return frozenset.intersection(*maximal)


def _family_sort_key(members: frozenset[int]) -> tuple:
    return (len(members), sorted(members))


def gamma_maximal_ideals(gamma: FamilyOfSets) -> list[FamilyOfSets]:
    """All maximal ideals inside gamma, for gamma a nonempty down set whose
    support is not itself a member.

    Returned deterministically ordered (by size, then members).

    >>> u = Universe(2)
    >>> g = FamilyOfSets(u, frozenset({0b00, 0b01, 0b10}))
    >>> [sorted(i.members) for i in gamma_maximal_ideals(g)]
    [[0, 1], [0, 2]]
    """
    if not gamma.members:
        raise ValueError("gamma must be nonempty")
    if not _is_down_members(gamma.members):
        raise ValueError("gamma must be a down set")
    support = union_support(gamma)
    if support in gamma.members:
        raise ValueError("the support of gamma must not be a member")
    found = _maximal_ideals_members(gamma.members, support)
    found.sort(key=_family_sort_key)
    return [gamma.replace_members(f) for f in found]


def i_hat(gamma: FamilyOfSets) -> FamilyOfSets:
    """Intersection of all maximal ideals inside gamma.

    Degenerate case: when the support is a member of the down set gamma the
    intersection collapses to the family {empty set}, returned directly.
    """
    if not gamma.members:
        raise ValueError("gamma must be nonempty")
    if not _is_down_members(gamma.members):
        raise ValueError("gamma must be a down set")
    support = union_support(gamma)
    if support in gamma.members:
        return gamma.replace_members(frozenset({0}))
    maximal = _maximal_ideals_members(gamma.members, support)
    return gamma.replace_members(_common_members(maximal))


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

    The maximal-ideal search runs once; Î is read off its result.
    """
    support = union_support(gamma)
    if support in gamma.members:
        maximal: tuple[FamilyOfSets, ...] = ()
        hat = i_hat(gamma)  # the degenerate case, settled without a search
    else:
        maximal = tuple(gamma_maximal_ideals(gamma))
        hat = gamma.replace_members(_common_members([m.members for m in maximal]))
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


def enumerate_down_families(n: int) -> list[frozenset[int]]:
    """Every down-closed family over the size-n universe, empty one included.

    Counts are the classic ones: 3, 6, 20, 168 for n = 1..4.
    """
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be 1..{MAX_GROUND_SIZE}")
    subsets = list(range(1 << n))
    out: list[frozenset[int]] = []
    for bits in range(1 << len(subsets)):
        fam = frozenset(m for m in subsets if bits >> m & 1)
        if _is_down_members(fam):
            out.append(fam)
    out.sort(key=_family_sort_key)
    return out


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

        maximal = _maximal_ideals_members(members, support)
        covered = all(any(m in ideal for ideal in maximal) for m in members)
        if covered != qualifying:
            lemma_bad.append({"gamma": sorted(members)})

        if qualifying:
            checked += 1
            hat = _common_members(maximal)
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
    """Enumerate every ideal on the size-n ground set and verify that the
    prime ones (for every subset, it or its complement belongs) are exactly
    the maximal ones.  On a finite ground set there is one prime ideal per
    point: the subsets missing that point.
    """
    universe = Universe(n)
    full = universe.full_mask
    base = frozenset(universe.subsets())
    ideals = _ideals_within(base, full)
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
