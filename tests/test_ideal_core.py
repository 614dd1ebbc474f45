"""Exhaustive and oracle-backed checks for the finite ideal engine.

The oracle is the frozenset implementation the bitset kernel replaced: a
family is a frozenset of bitmasks and every check loops over its members.
"""

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porosity_lab.ideal_core import (
    MAX_GROUND_SIZE,
    _down_sets,
    _theorem_scan,
    FamilyOfSets,
    Universe,
    check_prime_iff_maximal,
    check_theorem_istar_eq_ihat,
    enumerate_down_families,
    gamma_maximal_ideals,
    i_hat,
    i_star,
    ideal_report,
    is_down_set,
    is_ideal,
    union_support,
)


# ---------------------------------------------------------------------------
# the frozenset oracle


def _submasks(mask):
    """All submasks of mask, mask itself and 0 included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _support_of(members):
    out = 0
    for m in members:
        out |= m
    return out


def _is_down_members(members):
    return all(sub in members for m in members for sub in _submasks(m))


def _is_union_closed(members):
    return all((a | b) in members for a, b in combinations(members, 2))


def _is_ideal_members(members, ground):
    """Ideal on the given ground mask: nonempty down set, union closed,
    every member inside ground, ground itself absent."""
    if not members or ground in members or any(m & ~ground for m in members):
        return False
    return _is_down_members(members) and _is_union_closed(members)


def _maximal_tops(members, ground):
    """The maximal members of the down set members, other than ground."""
    below = [m for m in members if m != ground]
    return [m for m in below if not any(m != o and m | o == o for o in below)]


def _hat_members(tops):
    """Intersection of the P(M), M in tops; None gives {empty set}."""
    if tops is None:
        return frozenset({0})
    common = tops[0]
    for m in tops[1:]:
        common &= m
    return frozenset(_submasks(common))


def _star_members(members):
    support = _support_of(members)
    return frozenset(
        s for s in _submasks(support) if all((s | b) in members for b in members)
    )


def _family_key(members):
    return (len(members), sorted(members))


def _down_families(n):
    """Every down set of the size-n universe, empty one included: subsets
    are decided in (popcount, value) order, and one may be taken only when
    every maximal proper subset of it was."""
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


def _oracle_report(members):
    """ideal_report's fields for the nonempty down set members."""
    support = _support_of(members)
    tops = None if support in members else _maximal_tops(members, support)
    hat = _hat_members(tops)
    star = _star_members(members)
    ideals = sorted((frozenset(_submasks(m)) for m in tops or ()), key=_family_key)
    return ideals, hat, star, hat == star


def _oracle_theorem(n):
    """check_theorem_istar_eq_ihat's fields, scanning the oracle's down sets."""
    down = sorted(_down_families(n), key=_family_key)
    checked = 0
    bad = {"counterexamples": [], "lemma": [], "corollary": []}
    for members in down:
        if not members:
            continue
        support = _support_of(members)
        qualifying = support not in members
        star = _star_members(members)
        if _is_ideal_members(star, support) != qualifying:
            bad["corollary"].append({"gamma": sorted(members)})
        tops = _maximal_tops(members, support)
        covered = all(any(m | t == t for t in tops) for m in members)
        if covered != qualifying:
            bad["lemma"].append({"gamma": sorted(members)})
        if qualifying:
            checked += 1
            hat = _hat_members(tops)
            if hat != star:
                bad["counterexamples"].append(
                    {"gamma": sorted(members), "i_hat": sorted(hat), "i_star": sorted(star)}
                )
    return (
        n, len(down), checked,
        tuple(bad["counterexamples"]), tuple(bad["lemma"]), tuple(bad["corollary"]),
    )


# Frozen oracle values: number of down-closed families of an n-set,
# empty family included (computed independently below as a cross-check).
DOWN_FAMILY_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168}
# the Dedekind number for n = 5, past MAX_GROUND_SIZE
DOWN_FAMILY_COUNT_5 = 7581


def bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def oracle_is_down(members):
    """Subset-closure check written against point lists, not submask loops."""
    for m in members:
        points = bits_of(m)
        for r in range(len(points) + 1):
            for combo in combinations(points, r):
                sub = 0
                for p in combo:
                    sub |= 1 << p
                if sub not in members:
                    return False
    return True


def oracle_ideals_on(n):
    """All ideals on the size-n ground set, by the structure argument: a
    union-closed down set has a largest member (the union of everything),
    so every ideal is the full powerset of some proper subset."""
    full = (1 << n) - 1
    out = []
    for s in range(1 << n):
        if s == full:
            continue
        fam = frozenset(m for m in range(1 << n) if (m | s) == s)
        out.append(fam)
    return out


def oracle_ideals_within(members, ground):
    """Every sub-family of members that is an ideal on ground, by trying
    all of them.  The empty ground set carries no ideals at all (the empty
    set would be the full set)."""
    if 0 not in members or ground == 0:
        return []
    rest = sorted(m for m in members if m != 0 and m != ground and not (m & ~ground))
    out = []
    for bits in range(1 << len(rest)):
        fam = frozenset([0] + [m for i, m in enumerate(rest) if bits >> i & 1])
        if _is_down_members(fam) and _is_union_closed(fam):
            out.append(fam)
    return out


def oracle_maximal_families(families):
    return [f for f in families if not any(f < g for g in families)]


def family_order(members):
    return (len(members), sorted(members))


def all_families(n, nonempty=True):
    subsets = list(range(1 << n))
    for bits in range(1 << len(subsets)):
        fam = frozenset(m for m in subsets if bits >> m & 1)
        if nonempty and not fam:
            continue
        yield fam


def test_universe_guards():
    with pytest.raises(ValueError):
        Universe(0)
    with pytest.raises(ValueError):
        enumerate_down_families(5)
    with pytest.raises(ValueError):
        FamilyOfSets(Universe(1), frozenset({0b10}))


def test_down_family_counts_match_frozen_oracle():
    for n, expected in DOWN_FAMILY_COUNTS.items():
        families = enumerate_down_families(n)
        assert len(families) == expected
        # and agree with the independent subset-closure oracle
        assert all(oracle_is_down(f) for f in families)


@pytest.mark.parametrize("n", range(1, MAX_GROUND_SIZE + 1))
def test_down_families_equal_the_filtered_powerset_of_families(n):
    # the same list, in the same order, as filtering all 2**(2**n) families
    expected = sorted(
        (f for f in all_families(n, nonempty=False) if oracle_is_down(f)),
        key=family_order,
    )
    assert enumerate_down_families(n) == expected


def test_down_family_generator_reaches_the_dedekind_number_at_n5():
    # the Dedekind recursion past the cap, against the oracle's search
    families = [frozenset(i for i in range(32) if x >> i & 1) for x in _down_sets(5)]
    assert len(families) == len(set(families)) == DOWN_FAMILY_COUNT_5
    assert families == sorted(_down_families(5), key=family_order)


def test_is_down_set_against_oracle_exhaustively_n2():
    u = Universe(2)
    for fam in all_families(2, nonempty=False):
        assert is_down_set(FamilyOfSets(u, fam)) == oracle_is_down(fam)


def test_is_ideal_basics():
    u = Universe(2)
    assert not is_ideal(FamilyOfSets(u, frozenset()), u)
    assert is_ideal(FamilyOfSets(u, frozenset({0})), u)
    assert is_ideal(FamilyOfSets(u, frozenset({0, 0b01})), u)
    # not union closed
    assert not is_ideal(FamilyOfSets(u, frozenset({0, 0b01, 0b10})), u)
    # contains the ground set
    assert not is_ideal(FamilyOfSets(u, frozenset({0, 0b01, 0b10, 0b11})), u)
    # not a down set
    assert not is_ideal(FamilyOfSets(u, frozenset({0b01})), u)


def test_every_ideal_is_a_powerset_of_its_support():
    # structure oracle: ideal <=> powerset of a proper subset, against every
    # family that is_ideal accepts
    for n in (1, 2, 3, 4):
        u = Universe(n)
        ideals = {fam for fam in all_families(n) if is_ideal(FamilyOfSets(u, fam), u)}
        assert ideals == set(oracle_ideals_on(n))
        assert check_prime_iff_maximal(n).ideal_count == len(ideals) == (1 << n) - 1


def test_worked_maximal_ideal_example():
    u = Universe(2)
    gamma = FamilyOfSets(u, frozenset({0b00, 0b01, 0b10}))
    maximal = gamma_maximal_ideals(gamma)
    assert [sorted(m.members) for m in maximal] == [[0, 1], [0, 2]]
    assert sorted(i_hat(gamma).members) == [0]
    assert sorted(i_star(gamma).members) == [0]
    rep = ideal_report(gamma)
    assert rep.equal
    assert rep.gamma is gamma
    assert [sorted(m.members) for m in rep.maximal_ideals] == [[0, 1], [0, 2]]
    assert sorted(rep.i_hat.members) == [0]
    assert sorted(rep.i_star.members) == [0]


def test_gamma_maximal_rejects_bad_input():
    u = Universe(2)
    with pytest.raises(ValueError):
        gamma_maximal_ideals(FamilyOfSets(u, frozenset()))
    with pytest.raises(ValueError):
        gamma_maximal_ideals(FamilyOfSets(u, frozenset({0b11})))
    # support is a member
    with pytest.raises(ValueError):
        gamma_maximal_ideals(FamilyOfSets(u, frozenset({0, 0b01})))


def test_i_hat_degenerate_support_member():
    # support inside gamma collapses the intersection to {empty set}
    u = Universe(2)
    assert sorted(i_hat(FamilyOfSets(u, frozenset({0}))).members) == [0]
    assert sorted(i_hat(FamilyOfSets(u, frozenset({0, 1, 2, 3}))).members) == [0]


def test_ideal_report_agrees_with_public_functions():
    # ideal_report reads its intersection off its own maximal-ideal search
    for n in range(1, MAX_GROUND_SIZE + 1):
        u = Universe(n)
        for members in enumerate_down_families(n):
            if not members:
                continue
            gamma = FamilyOfSets(u, members)
            report = ideal_report(gamma)
            assert report.i_hat == i_hat(gamma)
            if union_support(gamma) in members:
                assert report.maximal_ideals == ()
            else:
                assert list(report.maximal_ideals) == gamma_maximal_ideals(gamma)


@pytest.mark.parametrize("n", range(1, MAX_GROUND_SIZE + 1))
def test_closed_forms_equal_the_search_oracle_on_every_down_set(n):
    u = Universe(n)
    for members in enumerate_down_families(n):
        if not members:
            continue
        gamma = FamilyOfSets(u, members)
        support = union_support(gamma)
        report = ideal_report(gamma)
        if support in members:
            assert report.maximal_ideals == ()
            assert i_hat(gamma).members == report.i_hat.members == {0}
            continue
        maximal = sorted(
            oracle_maximal_families(oracle_ideals_within(members, support)),
            key=family_order,
        )
        hat = frozenset.intersection(*maximal)
        assert [m.members for m in gamma_maximal_ideals(gamma)] == maximal
        assert i_hat(gamma).members == hat
        assert [m.members for m in report.maximal_ideals] == maximal
        assert report.i_hat.members == hat


def test_i_star_direct_definition_oracle():
    rng = random.Random(7)
    families = enumerate_down_families(3)
    u = Universe(3)
    for fam in rng.sample([f for f in families if f], 10):
        gamma = FamilyOfSets(u, fam)
        star = i_star(gamma)
        support = union_support(gamma)
        expected = {
            s
            for s in range(8)
            if (s | support) == support and all((s | b) in fam for b in fam)
        }
        assert star.members == frozenset(expected)


def test_theorem_star_equals_hat_small_universes():
    for n in (1, 2, 3):
        report = check_theorem_istar_eq_ihat(n)
        assert report.scanned == DOWN_FAMILY_COUNTS[n]
        assert report.ok, report


def test_member_coverage_iff_down_and_support_absent_arbitrary_families():
    # the coverage equivalence holds for arbitrary nonempty families, not
    # just down sets: exhaustive on the 2-universe
    for fam in all_families(2):
        support = 0
        for m in fam:
            support |= m
        maximal = oracle_maximal_families(oracle_ideals_within(fam, support))
        covered = all(any(m in ideal for ideal in maximal) for m in fam)
        expected = oracle_is_down(fam) and support not in fam
        assert covered == expected, sorted(fam)


def test_prime_iff_maximal_counts():
    for n in (1, 2, 3, 4):
        report = check_prime_iff_maximal(n)
        assert report.ok, report
        assert report.prime_count == n
        assert report.maximal_count == n


def test_prime_ideals_are_point_complement_powersets():
    # the n prime ideals on an n-set are exactly {A : x not in A}, one per x
    for n in (2, 3):
        full = (1 << n) - 1
        base = frozenset(range(1 << n))
        ideals = oracle_ideals_within(base, full)
        primes = {
            ideal
            for ideal in ideals
            if all(a in ideal or (full & ~a) in ideal for a in range(1 << n))
        }
        expected = {
            frozenset(m for m in range(1 << n) if not (m >> x & 1)) for x in range(n)
        }
        assert primes == expected


def test_theorem_star_equals_hat_n4():
    report = check_theorem_istar_eq_ihat(4)
    assert report.scanned == DOWN_FAMILY_COUNTS[4]
    assert report.checked == 151
    assert report.ok, report


# ---------------------------------------------------------------------------
# the bitset kernel against the frozenset oracle


def test_ground_size_errors_keep_their_order():
    with pytest.raises(ValueError, match="at least one point"):
        check_theorem_istar_eq_ihat(0)
    with pytest.raises(ValueError, match=r"ground size must be 1\.\.4"):
        check_theorem_istar_eq_ihat(MAX_GROUND_SIZE + 1)


def test_exhaustive_scans_at_n5():
    # the public functions keep the cap; the scan underneath has none
    report = _theorem_scan(5)
    assert (report.n, report.scanned, report.checked) == (5, DOWN_FAMILY_COUNT_5, 7548)
    assert report.ok, report
    primes = check_prime_iff_maximal(5)
    assert primes.ok, primes
    assert (primes.ideal_count, primes.prime_count, primes.maximal_count) == (31, 5, 5)


@pytest.mark.parametrize("n", range(1, MAX_GROUND_SIZE + 1))
def test_theorem_report_equals_the_oracle(n):
    assert dataclasses.astuple(check_theorem_istar_eq_ihat(n)) == _oracle_theorem(n)


def assert_report_matches_oracle(gamma):
    report = ideal_report(gamma)
    ideals, hat, star, equal = _oracle_report(gamma.members)
    assert report.gamma is gamma
    assert [f.members for f in report.maximal_ideals] == ideals
    assert report.i_hat.members == hat
    assert report.i_star.members == star
    assert report.equal == equal
    for f in (*report.maximal_ideals, report.i_hat, report.i_star):
        assert f.universe == gamma.universe


@pytest.mark.parametrize("n", range(1, MAX_GROUND_SIZE + 1))
def test_ideal_report_equals_the_oracle_on_every_down_set(n):
    u = Universe(n)
    for members in enumerate_down_families(n):
        if members:
            assert_report_matches_oracle(FamilyOfSets(u, members))


def test_ideal_report_over_a_wide_universe_sizes_by_the_support():
    # a 2**64-bit table would not fit; the kernel works over the support
    u = Universe(64)
    assert_report_matches_oracle(FamilyOfSets(u, frozenset({0, 1 << 63})))
    for points in (range(14), range(11, 64, 4)):
        members = frozenset([0] + [1 << p for p in points])
        gamma = FamilyOfSets(u, members)
        assert_report_matches_oracle(gamma)
        assert i_star(gamma).members == _star_members(members)
        assert len(ideal_report(gamma).maximal_ideals) == 14


def test_every_built_family_passes_the_public_check():
    # families built inside the module skip the FamilyOfSets check
    for n in range(1, MAX_GROUND_SIZE + 1):
        u = Universe(n)
        for members in enumerate_down_families(n):
            if not members:
                continue
            gamma = FamilyOfSets(u, members)
            report = ideal_report(gamma)
            built = [*report.maximal_ideals, report.i_hat, report.i_star, i_hat(gamma), i_star(gamma)]
            if union_support(gamma) not in members:
                built += gamma_maximal_ideals(gamma)
            for f in built:
                assert isinstance(f.members, frozenset)
                assert FamilyOfSets(f.universe, f.members) == f


@st.composite
def _families(draw):
    """A universe of 1..4 points and a family over it: any family, its
    down-closure, or the power set of its support (an ideal or P(X))."""
    n = draw(st.integers(1, MAX_GROUND_SIZE))
    members = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=1 << n))
    shape = draw(st.sampled_from(("any", "down", "powerset")))
    if shape == "down":
        members = frozenset(s for m in members for s in _submasks(m))
    elif shape == "powerset":
        members = frozenset(_submasks(_support_of(members)))
    return FamilyOfSets(Universe(n), members)


@settings(max_examples=300, deadline=None, database=None)
@given(_families(), st.integers(1, MAX_GROUND_SIZE))
def test_public_functions_equal_the_oracle_on_any_family(f, ground_size):
    members = f.members
    assert union_support(f) == _support_of(members)
    assert is_down_set(f) == _is_down_members(members)
    assert i_star(f).members == _star_members(members)
    ground = Universe(ground_size)
    assert is_ideal(f, ground) == _is_ideal_members(members, ground.full_mask)
    assert is_ideal(f, f.universe) == _is_ideal_members(members, f.universe.full_mask)
    if members and _is_down_members(members):
        assert_report_matches_oracle(f)
    elif members:
        with pytest.raises(ValueError, match="down set"):
            ideal_report(f)
