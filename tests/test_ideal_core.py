"""Exhaustive and oracle-backed checks for the finite ideal engine."""

import random
from itertools import combinations

import pytest

from porosity_lab.ideal_core import (
    MAX_GROUND_SIZE,
    _down_families,
    _is_down_members,
    _is_union_closed,
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
    report_to_json,
    union_support,
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
    families = list(_down_families(5))
    assert len(families) == len(set(families)) == DOWN_FAMILY_COUNT_5
    assert all(oracle_is_down(f) for f in families)


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
    # structure oracle: ideal <=> powerset of a proper subset
    for n in (1, 2, 3, 4):
        u = Universe(n)
        expected = {frozenset(f) for f in oracle_ideals_on(n)}
        report = check_prime_iff_maximal(n)
        assert report.ideal_count == len(expected) == (1 << n) - 1


def test_worked_maximal_ideal_example():
    u = Universe(2)
    gamma = FamilyOfSets(u, frozenset({0b00, 0b01, 0b10}))
    maximal = gamma_maximal_ideals(gamma)
    assert [sorted(m.members) for m in maximal] == [[0, 1], [0, 2]]
    assert sorted(i_hat(gamma).members) == [0]
    assert sorted(i_star(gamma).members) == [0]
    rep = ideal_report(gamma)
    assert rep.equal
    js = report_to_json(rep)
    assert js == {
        "universe": 2,
        "gamma": [0, 1, 2],
        "maximal_ideals": [[0, 1], [0, 2]],
        "i_hat": [0],
        "i_star": [0],
        "equal": True,
    }


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
