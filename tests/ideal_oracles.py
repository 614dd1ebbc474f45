"""Set-algebra questions on one family, answered by the bitset kernel of
porosity_lab.ideal_core: its support, whether it is a down set or an ideal,
and the maximal ideals inside a down set.  No command or verdict asks them;
the tests check them against the frozenset oracle and check `ideal_report`
and the theorem scans against them.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from porosity_lab.ideal_core import (
    FamilyOfSets,
    Universe,
    _bits,
    _gamma_bits,
    _has,
    _ideals,
    _is_down,
)


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
