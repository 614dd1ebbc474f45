"""Each chain's integer view, and every path that runs on it, against the
Fraction oracles in fraction_oracles.py."""

import math
from fractions import Fraction as F

import fraction_oracles as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_family_rules import DEPTH, GRID
from test_tailset import _chains, _families, _fractions

from porosity_lab import membership
from porosity_lab.blowup import blow_up_chain, cc1_components
from porosity_lab.membership import DecompositionResult, decompose_csp
from porosity_lab.rational import format_rational
from porosity_lab.tailset import (
    BlowupOf,
    Chain,
    ExplicitChain,
    GeometricLadder,
    Interval,
    Point,
    SuperGeometricLadder,
    UnionOf,
    block_inf,
    block_sup,
    component_ratios,
    expand,
    probe_ratios,
)


def _assert_view_exact(c):
    # every view int is its coordinate times D, exactly
    D, lo, hi, horizon = c._view
    assert type(D) is int and D > 0
    assert len(lo) == len(hi) == len(c.blocks)
    for b, l, h in zip(c.blocks, lo, hi):
        assert type(l) is int and type(h) is int
        assert F(l, D) == block_inf(b) and F(h, D) == block_sup(b)
    assert F(horizon, D) == c.horizon


def _csp_scan(c):
    # the int cover scan, read back out of its verdict
    v = membership._empirical_csp(ExplicitChain(c), membership._query(1))
    return v.value, v.trend, int(v.note.split("; ")[-1].split()[0])


def _assert_paths_match(c):
    """The view, the probe sweep and the CSP cover scan on a chain; its
    blow-ups by two factors, their components and ratios."""
    _assert_view_exact(c)
    assert probe_ratios(c) == oracle.probe_ratios(c)
    if c.blocks:
        assert _csp_scan(c) == oracle.csp_cover_scan(c)
    for q in (F(3, 2), F(5)):
        blown = blow_up_chain(c, q)
        assert blown.blocks == oracle.merge_blocks(oracle.blow_up_block(b, q) for b in c.blocks)
        _assert_view_exact(blown)
        assert probe_ratios(blown) == oracle.probe_ratios(blown)
        assert component_ratios(blown) == oracle.component_ratios(blown.blocks)
        comps = cc1_components(blown)
        _assert_view_exact(comps)
        assert comps.blocks == tuple(b for b in blown.blocks if b.hi <= 1)
        assert component_ratios(comps) == oracle.component_ratios(comps.blocks)


def _horizon_0(c):
    return Chain(c.blocks, upper=c.upper, horizon=0)


@st.composite
def _chain_and_q(draw):
    # some coordinates sit q^2 apart, so blow-ups by q touch end to end
    q = draw(_fractions(1, 4))
    return draw(_chains(ratio=q * q)), q


@settings(max_examples=200, deadline=None, database=None)
@given(_chain_and_q())
def test_int_paths_match_the_oracles_on_touching_chains(case):
    c, q = case
    _assert_paths_match(c)
    _assert_paths_match(blow_up_chain(c, q))


@settings(max_examples=100, deadline=None, database=None)
@given(_chains().map(_horizon_0))
def test_int_paths_match_the_oracles_on_horizon_0_chains(c):
    _assert_paths_match(c)


@settings(max_examples=100, deadline=None, database=None)
@given(_families, st.integers(1, 5))
def test_int_paths_match_the_oracles_on_expanded_families(f, depth):
    _assert_paths_match(expand(f, depth))


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(_chain_and_q(), min_size=1, max_size=3))
def test_union_merge_matches_the_sorted_merge(cases):
    # chains drawn with a q, some blown up by it: points, intervals and
    # touching ends of several parts meet in one merge
    chains = [blow_up_chain(c, q) if i % 2 else c for i, (c, q) in enumerate(cases)]
    merged = expand(UnionOf(tuple(map(ExplicitChain, chains))), 1)
    assert (merged.blocks, merged.upper, merged.horizon) == oracle.union(chains)
    _assert_paths_match(merged)


def _union_of_blocks(*blocks):
    # one part per block, so that the merge sees them all side by side
    parts = tuple(ExplicitChain(Chain((b,), upper=block_sup(b), horizon=0)) for b in blocks)
    merged = expand(UnionOf(parts), 1)
    _assert_view_exact(merged)
    return merged.blocks


def test_union_merge_cases():
    # touching intervals, a point on an open end, a duplicate point, a
    # point inside an interval, and an interval straddling the horizon
    a = ExplicitChain(Chain((Interval(F(1, 2), 1), Point(F(1, 4))), upper=1, horizon=0))
    b = ExplicitChain(
        Chain(
            (Point(F(1, 2)), Interval(F(1, 4), F(1, 2)), Point(F(1, 5)), Interval(F(1, 9), F(1, 6))),
            upper=1,
            horizon=F(1, 9),
        )
    )
    c = ExplicitChain(
        Chain((Point(F(3, 4)), Point(F(1, 5)), Interval(F(1, 10), F(1, 7))), upper=1, horizon=F(1, 10))
    )
    merged = expand(UnionOf((a, b, c)), 1)
    assert merged.blocks == (
        Interval(F(1, 2), 1),
        Point(F(1, 2)),
        Interval(F(1, 4), F(1, 2)),
        Point(F(1, 4)),
        Point(F(1, 5)),
        Interval(F(1, 9), F(1, 6)),
    )
    assert merged.horizon == F(1, 9)
    assert (merged.blocks, merged.upper, merged.horizon) == oracle.union(
        [a.chain, b.chain, c.chain]
    )
    _assert_view_exact(merged)
    # an interval ending exactly at the union's horizon drops out whole
    d = ExplicitChain(Chain((Point(F(1, 2)), Point(F(1, 4))), upper=1, horizon=F(1, 4)))
    e = ExplicitChain(Chain((Interval(F(1, 8), F(1, 4)),), upper=1, horizon=0))
    merged = expand(UnionOf((d, e)), 1)
    assert merged.blocks == (Point(F(1, 2)), Point(F(1, 4)))
    assert (merged.blocks, merged.upper, merged.horizon) == oracle.union([d.chain, e.chain])
    _assert_view_exact(merged)
    # the merge rules one by one, each block a part of its own
    a = Interval(F(1, 4), F(1, 2))
    b = Interval(F(1, 3), F(3, 4))
    assert _union_of_blocks(a, b) == (Interval(F(1, 4), F(3, 4)),)
    # touching endpoints stay separate
    c = Interval(F(1, 2), 1)
    assert _union_of_blocks(a, c) == (c, a)
    # interior point absorbed, endpoint point kept, duplicates collapse
    assert _union_of_blocks(a, Point(F(1, 3))) == (a,)
    assert _union_of_blocks(a, Point(F(1, 2))) == (Point(F(1, 2)), a)
    assert _union_of_blocks(Point(1), Point(1), Point(F(1, 2))) == (Point(1), Point(F(1, 2)))


def _bits(c):
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for b in c.blocks for x in (block_inf(b), block_sup(b))),
        default=0,
    )


@settings(max_examples=25, deadline=None, database=None)
@given(_chains().filter(lambda c: c.blocks), _fractions(0, 4), _fractions(0, 1))
@example(
    Chain((Point(F(1, 2)), Interval(F(1, 8), F(1, 4))), upper=F(1, 2), horizon=0),
    F(1),
    F(1, 2),
)
def test_union_of_a_shallow_and_a_deep_chain(c, x0, rho):
    # the shallow part's view is lifted onto a denominator 3,000 bits
    # deeper than its own
    depth = 2
    while _bits(expand(SuperGeometricLadder(x0, rho), depth)) < _bits(c) + 3000:
        depth += 8
    deep = SuperGeometricLadder(x0, rho)
    for parts in ((ExplicitChain(c), deep), (deep, ExplicitChain(_horizon_0(c)))):
        merged = expand(UnionOf(parts), depth)
        expected = oracle.union([expand(p, depth) for p in parts])
        assert (merged.blocks, merged.upper, merged.horizon) == expected
        _assert_paths_match(merged)


@pytest.mark.parametrize("name", sorted(GRID))
def test_views_of_the_pinned_grid_are_exact(name):
    f = GRID[name]
    for depth in (1, DEPTH):
        _assert_view_exact(expand(f, depth))
        for q in (F(3, 2), F(2), F(5)):
            blown = expand(BlowupOf(f, q), depth)
            _assert_view_exact(blown)
            _assert_view_exact(cc1_components(blown))
    for n in (1, 2):
        out = decompose_csp(f, n, 2, DEPTH)
        if isinstance(out, DecompositionResult):
            for part in out.parts[:-1]:
                _assert_view_exact(part.chain)


def test_point_family_views_keep_the_unreduced_denominator():
    # x0 * rho^k over D = x0_d * rho_d^(depth-1), straight from the ratios
    c = expand(GeometricLadder(F(3, 4), F(2, 3)), 4)
    assert c._view.D == 4 * 3**3
    assert c._view.lo == (3 * 27, 3 * 2 * 9, 3 * 4 * 3, 3 * 8)
    assert c._view.lo is c._view.hi


# ---------------------------------------------------------------------------
# what the empirical engines read: the deepest probes, neighbours compared


@st.composite
def _long_point_chains(draw):
    # more probes than any empirical cutoff reads
    coords = sorted(set(draw(st.lists(_fractions(0, 2), min_size=14, max_size=40))), reverse=True)
    horizon = draw(st.sampled_from((F(0), coords[-1], coords[-1] / 2)))
    return Chain(tuple(map(Point, coords)), upper=coords[0], horizon=horizon)


_probed_chains = (
    _chains()
    | _long_point_chains()
    | st.tuples(_families, st.integers(1, 16)).map(lambda case: expand(*case))
)


@settings(max_examples=150, deadline=None, database=None)
@given(_probed_chains)
def test_sp_verdict_from_the_deepest_probes_is_the_full_scan_verdict(c):
    v = membership._empirical_sp(ExplicitChain(c), membership._query(1))
    evidence = oracle.sp_evidence(c)
    if evidence is None:
        assert (v.value, v.trend, v.note) == (False, "bounded", "no probes above the horizon")
    else:
        value, trend, peak = evidence
        assert (v.value, v.trend) == (value, trend)
        assert v.note.endswith(f"deepest window peaks at {format_rational(peak)}")
    full = probe_ratios(c)
    for k in range(1, len(full) + 2):
        assert probe_ratios(c, k) == full[-k:]


_trend_values = st.lists(
    st.sampled_from((F(0), F(1, 3), F(1, 2), F(1), F(10**30, 7))) | st.fractions(), max_size=20
)


@settings(max_examples=300, deadline=None, database=None)
@given(_trend_values)
@example([])
@example([F(1)])
@example([F(1), F(1)])
@example([F(1), F(2), F(2)])
@example([F(2), F(1), F(1)])
@example([F(1), F(2), F(1)])
def test_classify_trend_is_the_subtraction_form(values):
    assert membership.classify_trend(values) == oracle.classify_trend(values)


@st.composite
def _heads(draw):
    """Descending positive ints that share a long factor, as cluster heads
    on a view do.  Their ratios come from a set where neighbours tie, both
    in their integer parts (5/2 and 2) and exactly, or are any rational
    above 1; runs shorter than TREND_WINDOW come up too."""
    ties = st.sampled_from((F(2), F(5, 2), F(3), F(7, 2), F(16), F(33, 2)))
    ratios = draw(st.lists(ties | _fractions(1, 40), max_size=2 * membership.TREND_WINDOW))
    x = [F(1)]
    for r in ratios:
        x.append(x[-1] * r)
    D = math.lcm(*(v.denominator for v in x)) * draw(st.integers(1, 2**200))
    return [int(v * D) for v in reversed(x)]


@settings(max_examples=300, deadline=None, database=None)
@given(_heads())
@example([7])
@example([12, 6])
@example([12, 6, 3])
@example([20, 8, 4])  # integer parts 2 and 2, ratios 5/2 then 2
@example([36, 12, 4, 2])
def test_head_trend_is_the_trend_of_the_reduced_growth(heads):
    growth = [F(a, b) for a, b in zip(heads, heads[1:])]
    assert membership._head_trend(heads) == membership.classify_trend(growth)
