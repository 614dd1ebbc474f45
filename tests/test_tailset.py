"""Chain mechanics, family expansion, the gap function, and certificates."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porosity_lab.rational import INF
from porosity_lab.tailset import (
    UNKNOWN,
    BlowupOf,
    Chain,
    EventuallyPeriodic,
    ExampleFamily,
    ExplicitChain,
    ExplicitLimit,
    GeometricLadder,
    Interval,
    PatternLadder,
    Point,
    SuperGeometricLadder,
    UnionOf,
    block_inf,
    block_sup,
    blowup_certificate,
    expand,
    family_from_json,
    family_to_json,
    lambda_gap,
    merge_blocks,
    porosity_profile,
    ratio_profile,
    restrict_blocks,
)


def test_block_validation():
    with pytest.raises(ValueError):
        Point(0)
    with pytest.raises(ValueError):
        Point(F(-1, 2))
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 4))


def test_chain_validation():
    # touching open endpoints are fine, equal points are not
    Chain((Interval(F(1, 2), 1), Interval(F(1, 4), F(1, 2))), upper=1, horizon=F(1, 4))
    Chain((Interval(F(1, 2), 1), Point(F(1, 2))), upper=1, horizon=F(1, 2))
    Chain((Point(F(1, 2)), Interval(F(1, 4), F(1, 2))), upper=1, horizon=F(1, 4))
    with pytest.raises(ValueError):
        Chain((Point(F(1, 2)), Point(F(1, 2))), upper=1, horizon=F(1, 4))
    with pytest.raises(ValueError):  # ascending
        Chain((Point(F(1, 4)), Point(F(1, 2))), upper=1, horizon=F(1, 8))
    with pytest.raises(ValueError):  # overlap
        Chain((Interval(F(1, 3), 1), Interval(F(1, 4), F(1, 2))), upper=1, horizon=0)
    with pytest.raises(ValueError):  # dips below horizon
        Chain((Point(F(1, 8)),), upper=1, horizon=F(1, 4))
    with pytest.raises(ValueError):  # sticks out above upper
        Chain((Point(2),), upper=1, horizon=0)


def test_expand_geometric():
    c = expand(GeometricLadder(1, F(1, 2)), 3)
    assert [b.x for b in c.blocks] == [1, F(1, 2), F(1, 4)]
    assert c.upper == 1
    assert c.horizon == F(1, 4)


def test_expand_example_family_frozen():
    # alpha=1/2, two whole blocks, coordinates worked out by hand from the
    # in-block rule y(k,j) = a^k y(k-1,j) and the joint y(0,j+1) = a^(j+1) y(j,j):
    # 1, 1/2 | 1/8, 1/16, 1/64
    c = expand(ExampleFamily(F(1, 2)), 2)
    assert [b.x for b in c.blocks] == [1, F(1, 2), F(1, 8), F(1, 16), F(1, 64)]


def test_expand_example_family_against_closed_form():
    # independent oracle: y(k,j) = a^(k(k+1)/2) * y(0,j) and
    # y(0,j+1) = y(0,j) * a^(j(j+1)/2 + j + 1)
    for alpha in (F(1, 2), F(9, 10)):
        depth = 6
        expected = []
        head = F(1)
        for j in range(1, depth + 1):
            for k in range(j + 1):
                expected.append(alpha ** F(k * (k + 1), 2) * head)
            head *= alpha ** (F(j * (j + 1), 2) + j + 1)
        got = [b.x for b in expand(ExampleFamily(alpha), depth).blocks]
        assert got == expected


def test_expand_pattern_ladder():
    c = expand(PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 2)), 2)
    # group 0: 1, 1/2, 1/16; joint decay^1; group 1: 1/32, 1/64, 1/512
    assert [b.x for b in c.blocks] == [1, F(1, 2), F(1, 16), F(1, 32), F(1, 64), F(1, 512)]


def test_expand_validates_depth():
    with pytest.raises(ValueError):
        expand(GeometricLadder(1, F(1, 2)), 0)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        GeometricLadder(1, F(3, 2))
    with pytest.raises(ValueError):
        GeometricLadder(0, F(1, 2))
    with pytest.raises(ValueError):
        ExampleFamily(1)
    with pytest.raises(ValueError):
        PatternLadder(1, (F(1, 2), 1), F(1, 2))
    with pytest.raises(ValueError):
        UnionOf(())
    with pytest.raises(ValueError):
        BlowupOf(GeometricLadder(1, F(1, 2)), 1)


def test_prefix_stability():
    families = [
        GeometricLadder(1, F(1, 2)),
        SuperGeometricLadder(1, F(9, 10)),
        ExampleFamily(F(1, 2)),
        PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 3)),
        UnionOf((GeometricLadder(1, F(1, 3)), SuperGeometricLadder(F(1, 2), F(1, 2)))),
        BlowupOf(SuperGeometricLadder(1, F(1, 2)), 2),
    ]
    for f in families:
        for depth in (1, 2, 3, 5):
            shallow = expand(f, depth)
            deep = expand(f, depth + 1)
            assert deep.horizon <= shallow.horizon
            # above the shallow horizon the two expansions describe the
            # same set
            assert restrict_blocks(deep.blocks, shallow.horizon) == shallow.blocks


def test_lambda_gap_dyadic():
    c = expand(GeometricLadder(1, F(1, 2)), 20)
    m = lambda_gap(c, 1)
    assert m.value == F(1, 2)
    assert m.valid


def test_lambda_gap_empty_known_region():
    c = Chain((), upper=1, horizon=F(1, 100))
    m = lambda_gap(c, 1)
    assert m.value == F(99, 100)
    assert not m.valid  # the whole of (0, 1) could be free


def test_lambda_gap_dense_cover():
    # everything above the horizon is occupied: no certain gap at all, and
    # the answer would change if the unknown region were empty
    c = Chain((Interval(F(1, 100), 1),), upper=1, horizon=F(1, 100))
    m = lambda_gap(c, 1)
    assert m.value == 0
    assert not m.valid


def test_lambda_gap_range_check():
    c = expand(GeometricLadder(1, F(1, 2)), 4)
    with pytest.raises(ValueError):
        lambda_gap(c, 0)
    with pytest.raises(ValueError):
        lambda_gap(c, 2)


def test_lambda_gap_interior_heights():
    # h inside a gap: the gap is clipped at h
    c = Chain((Point(1), Point(F(1, 4))), upper=1, horizon=F(1, 4))
    assert lambda_gap(c, F(1, 2)).value == F(1, 4)
    # h inside an interval: no free space at the top
    c2 = Chain((Interval(F(1, 2), 1), Point(F(1, 8))), upper=1, horizon=F(1, 8))
    assert lambda_gap(c2, F(3, 4)).value == F(3, 8)


def test_lambda_gap_monotone_in_h():
    rng = random.Random(11)
    for _ in range(50):
        blocks = []
        x = F(1)
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                blocks.append(Point(x))
                x *= F(rng.randint(1, 4), 8)
            else:
                lo = x * F(rng.randint(1, 4), 8)
                blocks.append(Interval(lo, x))
                x = lo * F(rng.randint(1, 4), 8)
        c = Chain(tuple(blocks), upper=1, horizon=x if rng.random() < 0.5 else 0)
        heights = sorted(
            {c.upper, c.upper / 2}
            | {block_inf(b) for b in c.blocks}
            | {block_sup(b) * F(3, 4) for b in c.blocks}
        )
        heights = [h for h in heights if 0 < h <= c.upper and h > c.horizon]
        values = [lambda_gap(c, h).value for h in heights]
        for small, big in zip(values, values[1:]):
            assert small <= big
        if c.horizon == 0:
            assert all(lambda_gap(c, h).valid for h in heights)


def test_porosity_profile_geometric_is_flat():
    for rho in (F(1, 2), F(9, 10)):
        prof = porosity_profile(GeometricLadder(1, rho), 12)
        assert prof.p_plus == 1 - rho
        assert prof.samples
        assert all(r == 1 - rho for _, r in prof.samples)


def test_porosity_profile_super_geometric_climbs():
    prof = porosity_profile(SuperGeometricLadder(1, F(1, 2)), 8)
    assert prof.p_plus == 1
    ratios = [r for _, r in prof.samples]
    # along h = x_n the ratio is 1 - rho^(n+1), strictly increasing to 1
    assert ratios == [1 - F(1, 2) ** (n + 1) for n in range(len(ratios))]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_porosity_profile_requires_accumulation():
    chain = Chain((Point(1),), upper=1, horizon=0)
    with pytest.raises(ValueError):
        porosity_profile(ExplicitChain(chain), 4)


def test_ratio_profile_frozen_example():
    c = Chain(
        (Interval(F(1, 8), F(1, 2)), Interval(F(1, 128), F(1, 32))),
        upper=F(1, 2),
        horizon=F(1, 128),
    )
    prof = ratio_profile(c)
    assert prof.betas == (4, 4)
    assert prof.gammas == (4,)  # a_1/b_2 = (1/8)/(1/32)
    assert prof.certificate is UNKNOWN


def test_ratio_profile_rejects_points():
    c = expand(GeometricLadder(1, F(1, 2)), 4)
    with pytest.raises(ValueError):
        ratio_profile(c)


def test_ratio_profile_gammas_at_least_one():
    rng = random.Random(23)
    for _ in range(30):
        f = BlowupOf(GeometricLadder(1, F(rng.randint(1, 9), 10)), F(rng.randint(5, 20), 4))
        prof = ratio_profile(f, depth=12)
        assert all(g >= 1 for g in prof.gammas)
        assert all(b > 1 for b in prof.betas)


def test_ratio_profile_inherits_certificate():
    prof = ratio_profile(BlowupOf(SuperGeometricLadder(1, F(1, 2)), 2), depth=10)
    assert prof.certificate == ExplicitLimit(F(4), True)


def test_blowup_certificate_frozen_values():
    assert blowup_certificate(SuperGeometricLadder(1, F(1, 2)), 2) == ExplicitLimit(F(4), True)
    # geometric: q^2 rho > 1 means total merge, no tail to certify
    assert blowup_certificate(GeometricLadder(1, F(1, 2)), 2) is UNKNOWN
    assert blowup_certificate(GeometricLadder(1, F(1, 2)), F(5, 4)) == ExplicitLimit(
        F(25, 16), False
    )
    # alpha=1/2, q=3: gaps a^k merge while 9 * (1/2)^k > 1, i.e. k <= 3, so
    # the cluster spans exponent 1+2+3 = 6 and beta tops out at 9 * 2^6
    assert blowup_certificate(ExampleFamily(F(1, 2)), 3) == ExplicitLimit(F(576), False)
    cert = blowup_certificate(PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 2)), 2)
    assert cert == EventuallyPeriodic((F(8), F(4)), (F(2), INF))
    assert blowup_certificate(ExplicitChain(Chain((), upper=1, horizon=0)), 2) is UNKNOWN


def test_merge_blocks_basics():
    a = Interval(F(1, 4), F(1, 2))
    b = Interval(F(1, 3), F(3, 4))
    assert merge_blocks([a, b]) == (Interval(F(1, 4), F(3, 4)),)
    # touching endpoints stay separate
    c = Interval(F(1, 2), 1)
    assert merge_blocks([a, c]) == (c, a)
    # interior point absorbed, endpoint point kept, duplicates collapse
    assert merge_blocks([a, Point(F(1, 3))]) == (a,)
    assert merge_blocks([a, Point(F(1, 2))]) == (Point(F(1, 2)), a)
    assert merge_blocks([Point(1), Point(1), Point(F(1, 2))]) == (Point(1), Point(F(1, 2)))


def test_merge_blocks_random_against_membership_oracle():
    rng = random.Random(7)

    def contains(blocks, x):
        for blk in blocks:
            if isinstance(blk, Point):
                if blk.x == x:
                    return True
            elif blk.lo < x < blk.hi:
                return True
        return False

    for _ in range(200):
        raw = []
        for _ in range(rng.randint(1, 10)):
            lo = F(rng.randint(1, 40), 41)
            if rng.random() < 0.3:
                raw.append(Point(lo))
            else:
                hi = lo + F(rng.randint(1, 12), 41)
                raw.append(Interval(lo, hi))
        merged = merge_blocks(raw)
        # result is a valid descending chain
        Chain(merged, upper=max(block_sup(b) for b in merged), horizon=0)
        # same set, probed at endpoints, midpoints and nearby shifts
        probes = set()
        for blk in raw:
            i, s = block_inf(blk), block_sup(blk)
            probes |= {i, s, (i + s) / 2, i + F(1, 997), s - F(1, 997)}
        for x in probes:
            if x > 0:
                assert contains(raw, x) == contains(merged, x)


def test_family_json_round_trip():
    families = [
        GeometricLadder(1, F(1, 2)),
        SuperGeometricLadder(F(3, 2), F(9, 10)),
        ExampleFamily(F(9, 10)),
        PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 3)),
        ExplicitChain(
            Chain((Interval(F(1, 4), F(1, 2)), Point(F(1, 8))), upper=1, horizon=F(1, 16))
        ),
        UnionOf((GeometricLadder(1, F(1, 2)), SuperGeometricLadder(1, F(1, 3)))),
        BlowupOf(UnionOf((ExampleFamily(F(1, 2)), GeometricLadder(1, F(1, 4)))), F(3, 2)),
    ]
    for f in families:
        data = family_to_json(f)
        assert family_from_json(data) == f
    with pytest.raises(ValueError):
        family_from_json({"variant": "NoSuchFamily"})
    with pytest.raises(ValueError):
        family_from_json({})


def _fractions(lo, hi):
    # rationals strictly inside (lo, hi)
    return st.fractions(min_value=lo, max_value=hi, max_denominator=60).filter(
        lambda x: lo < x < hi
    )


@st.composite
def _explicit_chains(draw):
    coords = sorted(set(draw(st.lists(_fractions(0, 2), max_size=8))), reverse=True)
    blocks = []
    i = 0
    while i < len(coords):
        if i + 1 < len(coords) and draw(st.booleans()):
            blocks.append(Interval(coords[i + 1], coords[i]))
            i += 2
        else:
            blocks.append(Point(coords[i]))
            i += 1
    upper = coords[0] if coords else F(1)
    horizon = coords[-1] if coords and draw(st.booleans()) else F(0)
    return ExplicitChain(Chain(tuple(blocks), upper=upper, horizon=horizon))


_point_families = st.one_of(
    st.builds(GeometricLadder, _fractions(0, 4), _fractions(0, 1)),
    st.builds(SuperGeometricLadder, _fractions(0, 4), _fractions(0, 1)),
    st.builds(ExampleFamily, _fractions(0, 1)),
    st.builds(
        PatternLadder,
        _fractions(0, 4),
        st.lists(_fractions(0, 1), max_size=3).map(tuple),
        _fractions(0, 1),
    ),
    _explicit_chains(),
)

_families = st.recursive(
    _point_families,
    lambda inner: st.one_of(
        st.builds(UnionOf, st.lists(inner, min_size=1, max_size=3).map(tuple)),
        st.builds(BlowupOf, inner, _fractions(1, 8)),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None, database=None)
@given(_families)
def test_family_wire_format_round_trips(f):
    data = family_to_json(f)
    assert family_from_json(data) == f
    assert family_from_json(json.loads(json.dumps(data))) == f


def test_union_expansion_merges_and_clips():
    # two ladders; the union is only known above the higher of the horizons
    f = UnionOf((GeometricLadder(1, F(1, 2)), GeometricLadder(F(3, 4), F(1, 10))))
    c = expand(f, 3)
    assert c.horizon == max(F(1, 4), F(3, 400))
    assert all(block_inf(b) >= c.horizon for b in c.blocks)
    coords = [b.x for b in c.blocks]
    assert coords == [1, F(3, 4), F(1, 2), F(1, 4)]


def test_union_absorbs_points_into_intervals():
    inner = ExplicitChain(Chain((Interval(F(1, 4), 1),), upper=1, horizon=F(1, 4)))
    pts = ExplicitChain(Chain((Point(F(1, 2)), Point(F(1, 4))), upper=1, horizon=F(1, 4)))
    c = expand(UnionOf((inner, pts)), 1)
    assert c.blocks == (Interval(F(1, 4), 1), Point(F(1, 4)))
