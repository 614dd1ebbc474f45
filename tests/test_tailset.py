"""Chain mechanics, family expansion, the gap function, and certificates."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fraction_oracles import merge_blocks, restrict_blocks
from fraction_oracles import probe_ratios as oracle_probe_ratios
from test_family_rules import DEPTH, GRID

from porosity_lab import tailset
from porosity_lab.blowup import blow_up_chain
from porosity_lab.membership import DecompositionResult, decompose_csp
from porosity_lab.rational import INF
from porosity_lab.tailset import (
    MAX_NESTING,
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
    porosity_profile,
    probe_ratios,
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
    for thing in (expand(GeometricLadder(1, F(1, 2)), 2), None, "GeometricLadder"):
        with pytest.raises(TypeError, match="not a tail family"):
            expand(thing, 2)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        GeometricLadder(1, F(3, 2))
    with pytest.raises(ValueError):
        GeometricLadder(0, F(1, 2))
    with pytest.raises(ValueError):
        ExampleFamily(1)
    with pytest.raises(ValueError):
        PatternLadder(1, (F(1, 2), 1), F(1, 2))
    for x0 in (0, F(-1, 3)):
        with pytest.raises(ValueError, match="x0 must be positive"):
            PatternLadder(x0, (F(1, 2),), F(1, 4))
    for decay in (0, 1, F(3, 2)):
        with pytest.raises(ValueError, match=r"decay must lie in \(0, 1\)"):
            PatternLadder(1, (F(1, 2),), decay)
    for upper in (0, F(-1, 2)):
        with pytest.raises(ValueError, match="upper edge must be positive"):
            Chain((), upper, 0)
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


@pytest.mark.parametrize("x0", [F(1), F(3, 4)])
@pytest.mark.parametrize("rho", [F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(9, 10)])
def test_certified_index_against_deep_probe_ratios(x0, rho):
    geo = porosity_profile(GeometricLadder(x0, rho), 512)
    assert len(geo.samples) == 511  # the deepest point is the horizon
    assert all(r == geo.p_plus == 1 - rho for _, r in geo.samples)
    sup = porosity_profile(SuperGeometricLadder(x0, rho), 128)
    assert sup.p_plus == 1
    # below x_k the gap to x_(k+1) gives 1 - rho^(k+1); a deeper gap can be
    # wider only while rho^(k+1) > 1/2
    for k, (_, r) in enumerate(sup.samples):
        tight = 1 - rho ** (k + 1)
        assert r >= tight
        if 2 * rho ** (k + 1) <= 1:
            assert r == tight


def test_porosity_profile_requires_accumulation():
    chain = Chain((Point(1),), upper=1, horizon=0)
    with pytest.raises(ValueError):
        porosity_profile(ExplicitChain(chain), 4)


def test_point_family_profile_builds_no_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a chain")

    monkeypatch.setattr(tailset, "expand", refuse)
    monkeypatch.setattr(tailset, "_View", refuse)
    families = [
        GeometricLadder(F(3, 4), F(5, 7)),
        SuperGeometricLadder(1, F(2, 3)),
        ExampleFamily(F(1, 2)),
        PatternLadder(1, (F(9, 10), F(4, 5)), F(1, 2)),
    ]
    for f in families:
        assert len(porosity_profile(f, 16).samples) >= 15
        with pytest.raises(ValueError, match="depth must be at least 1"):
            porosity_profile(f, 0)


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


@pytest.mark.parametrize(
    "wrap", [lambda f: BlowupOf(f, F(3, 2)), lambda f: UnionOf((f,))], ids=["BlowupOf", "UnionOf"]
)
def test_a_family_built_to_the_nesting_limit_round_trips(wrap):
    # no constructor checks the depth, and repr, hash and the wire format
    # recurse once per level: a family built MAX_NESTING levels deep still
    # passes through all three
    f = GeometricLadder(1, F(1, 2))
    for _ in range(MAX_NESTING - 1):
        f = wrap(f)
    assert repr(f).count("GeometricLadder") == 1
    back = family_from_json(family_to_json(f))
    assert back == f and hash(back) == hash(f)


def _fractions(lo, hi):
    # rationals strictly inside (lo, hi)
    return st.fractions(min_value=lo, max_value=hi, max_denominator=60).filter(
        lambda x: lo < x < hi
    )


@st.composite
def _chains(draw, ratio=None):
    """Chains of points and intervals in (0, 2), some touching: an open
    lower end may be shared by the next interval or carry a point, and a
    point may sit on the open upper end of the interval below it.  Given a
    `ratio`, some coordinates also appear `ratio` times smaller, so that
    blow-ups by its square root can meet end to end."""
    coords = draw(st.lists(_fractions(0, 2), max_size=10))
    if ratio is not None:
        coords += [x / ratio for x in coords[: draw(st.integers(0, len(coords)))]]
    coords = sorted(set(coords), reverse=True)
    blocks = []
    i, force_interval = 0, False
    while i < len(coords):
        if i + 1 < len(coords) and (force_interval or draw(st.booleans())):
            blocks.append(Interval(coords[i + 1], coords[i]))
            i += 1
            share = draw(st.booleans())
        else:
            blocks.append(Point(coords[i]))
            share = i + 1 < len(coords) and draw(st.booleans())
        force_interval = share and isinstance(blocks[-1], Point)
        if not share:
            i += 1
    upper = coords[0] if coords else F(1)
    lowest = block_inf(blocks[-1]) if blocks else upper
    horizon = draw(st.sampled_from((F(0), lowest, lowest * draw(_fractions(0, 1)))))
    return Chain(tuple(blocks), upper=upper, horizon=horizon)


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
    _chains().map(ExplicitChain),
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


def _assert_rebuilds(c):
    # internal builds skip the constructors' checks: the same chain must
    # pass them, with every coordinate a Fraction
    blocks = tuple(Point(b.x) if isinstance(b, Point) else Interval(b.lo, b.hi) for b in c.blocks)
    assert Chain(blocks, upper=c.upper, horizon=c.horizon) == c
    assert type(c.blocks) is tuple
    values = [c.upper, c.horizon] + [v for b in c.blocks for v in vars(b).values()]
    assert all(type(v) is F for v in values)


def test_pinned_grid_chains_pass_the_public_constructors():
    decomposed = 0
    for f in GRID.values():
        for depth in (1, 2, DEPTH):
            _assert_rebuilds(expand(f, depth))
            for q in (F(3, 2), F(2), F(5)):
                _assert_rebuilds(expand(BlowupOf(f, q), depth))
        for n in (1, 2):
            out = decompose_csp(f, n, 2, DEPTH)
            if isinstance(out, DecompositionResult):
                decomposed += 1
                for part in out.parts[:-1]:
                    _assert_rebuilds(part.chain)
    assert decomposed > 0


@settings(max_examples=100, deadline=None, database=None)
@given(_families, st.integers(1, 5), _fractions(1, 8))
def test_expanded_chains_pass_the_public_constructors(f, depth, q):
    _assert_rebuilds(expand(f, depth))
    _assert_rebuilds(expand(BlowupOf(f, q), depth))
    _assert_rebuilds(expand(UnionOf((f, BlowupOf(f, q))), depth))


@settings(max_examples=200, deadline=None, database=None)
@given(_chains())
def test_probe_ratios_match_per_probe_rescan(c):
    assert probe_ratios(c) == [
        (h, lambda_gap(c, h).value / h)
        for h in (block_inf(b) for b in c.blocks)
        if h > c.horizon
    ]


def test_probe_ratios_at_no_deepest_probe():
    c = expand(GeometricLadder(1, F(1, 2)), 6)
    assert probe_ratios(c, 0) == []
    for deepest in (-1, -5):
        with pytest.raises(ValueError, match="deepest must be at least 0"):
            probe_ratios(c, deepest)


_profiled_families = _point_families.filter(lambda f: not isinstance(f, ExplicitChain))


@settings(max_examples=100, deadline=None, database=None)
@given(_profiled_families, st.integers(1, 40))
def test_point_family_profile_is_the_probe_sweep(f, depth):
    # the scan on the ratio pairs against probe_ratios on the expanded chain
    assert porosity_profile(f, depth).samples == tuple(probe_ratios(expand(f, depth)))


@settings(max_examples=100, deadline=None, database=None)
@given(_profiled_families, st.integers(1, 6))
def test_point_family_profile_is_the_gap_function(f, depth):
    # at small depth, against the Fraction sweep and against lambda itself
    c = expand(f, depth)
    samples = list(porosity_profile(f, depth).samples)
    assert samples == oracle_probe_ratios(c)
    assert samples == [(b.x, lambda_gap(c, b.x).value / b.x) for b in c.blocks[:-1]]


_raw_blocks = st.lists(
    st.one_of(
        _fractions(0, 1).map(Point),
        st.tuples(_fractions(0, 1), _fractions(0, 1)).map(
            lambda t: Interval(t[0], t[0] + t[1])
        ),
    ),
    max_size=10,
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_merge_blocks_is_idempotent_and_order_free(data):
    raw = data.draw(_raw_blocks)
    merged = merge_blocks(raw)
    assert merge_blocks(merged) == merged
    assert merge_blocks(data.draw(st.permutations(raw))) == merged


@settings(max_examples=100, deadline=None, database=None)
@given(_chains(), _fractions(1, 4), _fractions(1, 4))
def test_blow_ups_compose(c, q1, q2):
    assert blow_up_chain(blow_up_chain(c, q1), q2) == blow_up_chain(c, q1 * q2)


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
