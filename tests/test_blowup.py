"""Blow-up operator laws, component extraction, and the inclusion lemma."""

import itertools
import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fraction_oracles import blow_up_block, merge_blocks
from test_tailset import _chains, _fractions, _point_families
from transfer_lemma import blocks_subset, blocks_within, check_inclusion_lemma

from porosity_lab import blowup, cli, tailset
from porosity_lab.blowup import (
    blow_up_chain,
    cc1_components,
    find_covering_blowup,
)
from porosity_lab.tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    BlowupOf,
    Chain,
    ExampleFamily,
    ExplicitChain,
    GeometricLadder,
    Interval,
    PatternLadder,
    Point,
    SuperGeometricLadder,
    UnionOf,
    _count,
    _gap_ratios,
    _PointFamily,
    _width_ratios,
    block_inf,
    block_sup,
    component_ends_text,
    component_ratios,
    expand,
    probe_ratios,
)
from porosity_lab.rational import _ratio, format_rational


def random_point_chain(rng, max_len=12):
    """Strictly descending points with random rational step ratios."""
    pts = []
    x = F(rng.randint(1, 8), rng.randint(1, 4))
    for _ in range(rng.randint(2, max_len)):
        pts.append(Point(x))
        x *= F(rng.randint(1, 30), 31)
    return Chain(tuple(pts), upper=pts[0].x, horizon=pts[-1].x)


def random_mixed_chain(rng, max_len=10, touch=0):
    """Descending mix of points and intervals.  With probability `touch` a
    block starts where the one above ends: open ends touch, or a point sits
    on an interval's open end."""
    blocks = []
    x = F(rng.randint(1, 8), rng.randint(1, 4))
    touching = False
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.4 and not (touching and isinstance(blocks[-1], Point)):
            blocks.append(Point(x))
        else:
            lo = x * F(rng.randint(1, 20), 21)
            blocks.append(Interval(lo, x))
            x = lo
        touching = touch and rng.random() < touch
        if not touching:
            x *= F(rng.randint(1, 20), 21)
    horizon = x if rng.random() < 0.5 else F(0)
    return Chain(tuple(blocks), upper=blocks[0].x if isinstance(blocks[0], Point) else blocks[0].hi, horizon=horizon)


def random_q(rng):
    return F(rng.randint(5, 25), 4)


def test_blow_up_block_frozen():
    assert blow_up_block(Point(1), 2) == Interval(F(1, 2), 2)
    assert blow_up_block(Interval(F(1, 4), F(1, 3)), 2) == Interval(F(1, 8), F(2, 3))
    with pytest.raises(ValueError):
        blow_up_block(Point(1), 1)


def test_blow_up_block_covers_bounded_set():
    # anything inside (a, b) blown by q >= b/a lands in one interval
    # containing (a, b)
    a, b = F(1, 3), F(1, 2)
    q = b / a
    pts = Chain((Point(F(12, 25)), Point(F(2, 5)), Point(F(7, 20))), upper=1, horizon=F(7, 20))
    blown = blow_up_chain(pts, q)
    assert len(blown.blocks) == 1
    comp = blown.blocks[0]
    assert comp.lo <= a and b <= comp.hi


def test_blow_up_chain_merges_close_points():
    c = Chain((Point(1), Point(F(1, 2))), upper=1, horizon=F(1, 2))
    blown = blow_up_chain(c, 2)
    assert blown.blocks == (Interval(F(1, 4), 2),)
    assert blown.upper == 2
    assert blown.horizon == F(1, 4)


def test_blow_up_chain_keeps_far_points_apart():
    c = Chain((Point(1), Point(F(1, 100))), upper=1, horizon=F(1, 100))
    blown = blow_up_chain(c, 2)
    assert blown.blocks == (Interval(F(1, 2), 2), Interval(F(1, 200), F(1, 50)))


def test_blow_up_chain_touching_components_stay_separate():
    # q x2 == x1/q exactly: open intervals share an endpoint only
    c = Chain((Point(1), Point(F(1, 4))), upper=1, horizon=F(1, 4))
    blown = blow_up_chain(c, 2)
    assert blown.blocks == (Interval(F(1, 2), 2), Interval(F(1, 8), F(1, 2)))


@st.composite
def _chain_and_q(draw):
    q = draw(_fractions(1, 4))
    return draw(_chains(ratio=q * q)), q


@settings(max_examples=200, deadline=None, database=None)
@given(_chain_and_q())
def test_blow_up_chain_matches_merging_the_blown_blocks(case):
    # the one-pass walk against sorting and merging every blown block
    c, q = case
    blown = blow_up_chain(c, q)
    assert blown.blocks == merge_blocks(blow_up_block(b, q) for b in c.blocks)
    assert (blown.upper, blown.horizon) == (q * c.upper, c.horizon / q)


def _assert_reduced(x):
    # a Fraction built from raw ints must be one Fraction would build
    n, d = x.numerator, x.denominator
    assert type(x) is F and type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert x == F(n, d) and hash(x) == hash(F(n, d))


@settings(max_examples=100, deadline=None, database=None)
@given(_chain_and_q())
def test_kernel_builds_reduced_fractions(case):
    c, q = case
    blown = blow_up_chain(c, q)
    for comp in blown.blocks:
        _assert_reduced(comp.lo)
        _assert_reduced(comp.hi)
    betas, gammas = component_ratios(blown)
    for x in betas + gammas:
        _assert_reduced(x)
    assert betas == tuple(b.hi / b.lo for b in blown.blocks)
    assert gammas == tuple(a.lo / b.hi for a, b in zip(blown.blocks, blown.blocks[1:]))


def test_set_grows_under_blow_up():
    rng = random.Random(5)
    for _ in range(200):
        c = random_mixed_chain(rng)
        q = random_q(rng)
        blown = blow_up_chain(c, q)
        assert blocks_subset(c.blocks, blown.blocks)


def test_blow_up_monotone_in_set_and_in_q():
    rng = random.Random(6)
    for _ in range(200):
        c = random_mixed_chain(rng)
        keep = tuple(b for b in c.blocks if rng.random() < 0.7)
        sub = Chain(keep, upper=c.upper, horizon=c.horizon)
        q1 = random_q(rng)
        q2 = q1 + F(rng.randint(1, 8), 4)
        assert blocks_subset(blow_up_chain(sub, q1).blocks, blow_up_chain(c, q1).blocks)
        assert blocks_subset(blow_up_chain(c, q1).blocks, blow_up_chain(c, q2).blocks)


def test_double_blow_up_contains_product_blow_up():
    rng = random.Random(8)
    for _ in range(100):
        c = random_mixed_chain(rng)
        q1, q2 = random_q(rng), random_q(rng)
        twice = blow_up_chain(blow_up_chain(c, q1), q2)
        product = blow_up_chain(c, q1 * q2)
        assert blocks_subset(product.blocks, twice.blocks)


@settings(max_examples=300, deadline=None, database=None)
@given(st.randoms(use_true_random=False), _fractions(1, 4), _fractions(1, 4))
def test_blow_ups_compose_on_every_chain(rng, q0, q):
    # (c(q0))(q) = c(q0*q) on a mixed chain with touching ends and points on
    # open ends, but for the view's D
    c = random_mixed_chain(rng, touch=F(1, 3))
    twice = blow_up_chain(blow_up_chain(c, q0), q)
    once = blow_up_chain(c, q0 * q)
    assert (twice.blocks, twice.upper, twice.horizon) == (once.blocks, once.upper, once.horizon)
    assert _view_ratios(twice) == _view_ratios(once)


def test_blown_point_components_have_wide_ratio():
    rng = random.Random(9)
    for _ in range(200):
        c = random_point_chain(rng)
        q = random_q(rng)
        for comp in blow_up_chain(c, q).blocks:
            assert comp.hi / comp.lo >= q * q


def test_component_count_bound():
    # K components of Cc1 above a force a * q^(2K) <= 1: each has width
    # ratio >= q^2 and the gaps only stretch the product further
    rng = random.Random(10)
    for _ in range(100):
        c = random_point_chain(rng)
        q = random_q(rng)
        comps = cc1_components(blow_up_chain(c, q)).blocks
        for a in (F(1, 10), F(1, 100), F(1, 10000)):
            k = sum(1 for comp in comps if comp.lo >= a)
            assert a * q ** (2 * k) <= 1


def test_cc1_components_filter_and_order():
    c = Chain(
        (Interval(F(1, 2), 2), Interval(F(1, 8), F(1, 4))),
        upper=2,
        horizon=F(1, 8),
    )
    assert cc1_components(c).blocks == (Interval(F(1, 8), F(1, 4)),)
    # a component ending exactly at 1 lies in (0, 1], on a chain from
    # outside and on a scanned one, whose top component ends at x0*q = 1
    at_1 = Chain((Interval(1, F(1001, 1000)), Interval(F(1, 4), 1)), upper=2, horizon=0)
    assert cc1_components(at_1).blocks == (Interval(F(1, 4), 1),)
    scanned = expand(BlowupOf(GeometricLadder(F(1, 2), F(1, 9)), 2), 4)
    assert scanned.blocks[0].hi == 1
    assert cc1_components(scanned).blocks == scanned.blocks
    # every blown component above 1: the cut keeps none, known below 1
    above = blow_up_chain(Chain((Interval(20, 24), Point(3)), upper=24, horizon=3), 2)
    assert above.horizon == F(3, 2) and len(above.blocks) == 2
    assert (cc1_components(above).blocks, cc1_components(above).horizon) == ((), 1)
    # a point anywhere is refused, also one the cut would drop
    for blocks in [(Point(1),), (Point(2), Interval(F(1, 4), F(1, 2)))]:
        with pytest.raises(ValueError, match="isolated points"):
            cc1_components(Chain(blocks, upper=2, horizon=0))


# ---------------------------------------------------------------------------
# a point family's blow-up, scanned on its ratio pairs, against blow_up_chain


def _assert_scan_is_blow_up_chain(f, q, depth):
    """The scan's chain is the generic blow-up of the expanded points, in
    blocks, upper, horizon and view, and the ratios it carries are the ones
    the view gives, before and after cc1_components.  Returns the two
    chains."""
    scanned = expand(BlowupOf(f, q), depth)
    generic = blow_up_chain(f._expand(depth), q)
    assert scanned._component_ratios is not None
    assert generic._component_ratios is None
    for c, o in ((scanned, generic), (cc1_components(scanned), cc1_components(generic))):
        assert (c.blocks, c.upper, c.horizon, c._view) == (o.blocks, o.upper, o.horizon, o._view)
        assert c._component_ratios == (_width_ratios(o), _gap_ratios(o))
        assert component_ratios(c) == component_ratios(o)
    return scanned, generic


@settings(max_examples=200, deadline=None, database=None)
@given(
    _point_families.filter(lambda f: isinstance(f, _PointFamily)),
    _fractions(1, 4),
    st.integers(1, 8),
)
def test_point_family_scan_is_blow_up_chain(f, q, depth):
    _assert_scan_is_blow_up_chain(f, q, depth)


def test_point_family_scan_keeps_touching_ends_apart():
    # r * q^2 = 1 exactly: the blown points only touch and stay apart, with
    # gap ratio 1 (the pattern's joints below 1/4 open wider)
    for f in (GeometricLadder(1, F(1, 4)), PatternLadder(1, (F(1, 4),), F(1, 4))):
        scanned, _ = _assert_scan_is_blow_up_chain(f, F(2), 6)
        assert len(scanned.blocks) == len(f._expand(6).blocks)
        assert _gap_ratios(scanned).count(F(1)) >= 5


def test_point_family_scan_merges_everything_into_one_component():
    scanned, _ = _assert_scan_is_blow_up_chain(GeometricLadder(1, F(4, 5)), F(2), 12)
    assert len(scanned.blocks) == 1
    assert component_ratios(scanned) == ((F(4) / F(4, 5) ** 11,), ())


@pytest.mark.parametrize(
    "f",
    [
        GeometricLadder(F(3, 4), F(1, 2)),
        SuperGeometricLadder(F(5, 2), F(2, 3)),
        ExampleFamily(F(1, 3)),
        PatternLadder(1, (), F(1, 2)),
        PatternLadder(F(7, 3), (F(1, 2), F(9, 10)), F(1, 3)),
    ],
    ids=repr,
)
@pytest.mark.parametrize("q", [F(5, 4), F(2), F(7, 3)], ids=str)
def test_point_family_scan_at_depth_1(f, q):
    _assert_scan_is_blow_up_chain(f, q, 1)


def test_point_family_scan_drops_components_above_1_in_step():
    # the leading blown components reach above 1, and cc1 drops them with
    # their width and gap ratios
    for f in (GeometricLadder(9, F(1, 9)), SuperGeometricLadder(6, F(1, 2))):
        scanned, _ = _assert_scan_is_blow_up_chain(f, F(3, 2), 8)
        kept = cc1_components(scanned)
        dropped = len(scanned.blocks) - len(kept.blocks)
        assert dropped >= 2
        assert kept._component_ratios == tuple(r[dropped:] for r in scanned._component_ratios)


def test_point_family_scan_on_growing_ratio_powers():
    # rho**k: the first ratios merge, then every gap stays open
    f = SuperGeometricLadder(1, F(5, 6))
    scanned, _ = _assert_scan_is_blow_up_chain(f, F(3, 2), 16)
    assert 1 < len(scanned.blocks) < 16


_POINT_DESCRIPTORS = [
    '{"variant":"GeometricLadder","x0":"3","rho":"1/5"}',
    '{"variant":"GeometricLadder","x0":"1","rho":"4/5"}',
    '{"variant":"SuperGeometricLadder","x0":"1","rho":"1/2"}',
    '{"variant":"ExampleFamily","alpha":"1/2"}',
    '{"variant":"PatternLadder","x0":"1","ratios":["1/2","1/8"],"decay":"1/4"}',
]
_NESTING_QS = (F(4, 3), F(3, 2), F(2), F(5, 2), F(3))


def _view_ratios(c):
    # each hi/lo and each lo over the next hi, off the view: D cancels
    _, lo, hi, _ = c._view
    return tuple(map(_ratio, hi, lo)), tuple(map(_ratio, lo, hi[1:]))


@pytest.mark.parametrize("family", _POINT_DESCRIPTORS)
def test_blow_up_of_a_blown_point_family_is_one_scan(family):
    # blow-ups of a point family compose: the scan at q0*q gives the chain
    # that blowing the q0-scan up by q gives, but for the view's D
    f = tailset.family_from_json(json.loads(family))
    for q0, q, depth in itertools.product(_NESTING_QS, _NESTING_QS, (1, 5, 12)):
        composed = expand(BlowupOf(BlowupOf(f, q0), q), depth)
        generic = blow_up_chain(expand(BlowupOf(f, q0), depth), q)
        assert composed._component_ratios is not None
        assert generic._component_ratios is None
        assert (composed.blocks, composed.upper, composed.horizon) == (
            generic.blocks,
            generic.upper,
            generic.horizon,
        )
        assert _view_ratios(composed) == _view_ratios(generic)
        kept = cc1_components(composed), cc1_components(generic)
        assert component_ratios(kept[0]) == component_ratios(kept[1])
        assert _view_ratios(kept[0]) == _view_ratios(kept[1])


_UNIONS = {
    "two-point-families": UnionOf((GeometricLadder(1, F(1, 3)), SuperGeometricLadder(F(3, 2), F(1, 2)))),
    "point-family-and-intervals": UnionOf(
        (
            PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 4)),
            ExplicitChain(
                Chain(
                    (Interval(F(3, 4), 1), Point(F(1, 2)), Interval(F(1, 4), F(1, 2)),
                     Interval(F(1, 8), F(1, 4)), Interval(F(1, 400), F(1, 100)), Point(F(1, 10**6))),
                    upper=1,
                    horizon=F(1, 10**7),
                )
            ),
        )
    ),
}


@pytest.mark.parametrize("name", _UNIONS)
def test_blow_up_of_a_blown_union_is_one_pass(monkeypatch, name):
    # blow-ups compose on any base: one pass at q0*q gives what two generic
    # passes give, but for the view's D.  A union of point families makes no
    # generic pass: each part is scanned once at q0*q and the scans merge; a
    # union with a part that has no scan makes one blow_up_chain pass
    g = _UNIONS[name]
    passes, scans = [], []

    def counting(c, q):
        passes.append(q)
        return blow_up_chain(c, q)

    def scanning(self, ratios, q, scan=_PointFamily._blown_scan):
        scans.append((self, q))
        return scan(self, ratios, q)

    monkeypatch.setattr(blowup, "blow_up_chain", counting)
    monkeypatch.setattr(_PointFamily, "_blown_scan", scanning)
    for q0, q, depth in itertools.product(_NESTING_QS[:3], _NESTING_QS[2:], (1, 6, 12)):
        passes.clear()
        scans.clear()
        composed = expand(BlowupOf(BlowupOf(g, q0), q), depth)
        if name == "two-point-families":
            # a part whose points all lie below the union horizon drops out
            horizon = expand(g, depth).horizon
            assert passes == []
            assert scans == [(p, q0 * q) for p in g.parts if p.x0 >= horizon]
        else:
            assert passes == [q0 * q]
            assert scans == []
        twice = blow_up_chain(blow_up_chain(expand(g, depth), q0), q)
        assert (composed.blocks, composed.upper, composed.horizon) == (
            twice.blocks,
            twice.upper,
            twice.horizon,
        )
        assert _view_ratios(composed) == _view_ratios(twice)
        kept = cc1_components(composed), cc1_components(twice)
        assert component_ratios(kept[0]) == component_ratios(kept[1])
        assert component_ends_text(kept[0]) == component_ends_text(kept[1])


_scanned_families = _point_families.filter(lambda f: isinstance(f, _PointFamily))


def _points(f, depth):
    return [b.x for b in f._expand(depth).blocks]


@st.composite
def _blown_unions(draw):
    """A union of two or three point families, flat or with a union among
    its parts, a q and a depth.  The last part may start where the first
    part's points put it: blown up, touching one of them end to end
    (x/q^2), on one of them, or below all of them, under the union
    horizon."""
    depth = draw(st.integers(1, 10))
    q = draw(st.one_of(st.sampled_from(_NESTING_QS), _fractions(1, 3)))
    parts = draw(st.lists(_scanned_families, min_size=2, max_size=3))
    points = _points(parts[0], depth)
    x = draw(st.sampled_from(points))
    x0 = draw(st.sampled_from((None, x / (q * q), x, points[-1] / 2)))
    if x0 is not None:
        group = st.lists(_fractions(0, 1), max_size=3).map(tuple)
        parts[-1] = draw(
            st.builds(GeometricLadder, st.just(x0), _fractions(0, 1))
            | st.builds(PatternLadder, st.just(x0), group, _fractions(0, 1))
        )
    nested = draw(st.integers(1, len(parts)))  # how many parts an inner union takes
    if nested > 1:
        parts[:nested] = [UnionOf(tuple(parts[:nested]))]
    return UnionOf(tuple(parts)), q, depth


@settings(max_examples=300, deadline=None, database=None)
@given(_blown_unions())
# blown points of the two parts touch end to end: 1/4 = 1/q^2
@example((UnionOf((GeometricLadder(1, F(1, 9)), GeometricLadder(F(1, 4), F(1, 9)))), F(2), 4))
# a point both parts hold
@example((UnionOf((GeometricLadder(1, F(1, 2)), GeometricLadder(F(1, 4), F(1, 3)))), F(3, 2), 5))
# the second part lies wholly below the union horizon 1/4
@example((UnionOf((GeometricLadder(1, F(1, 2)), GeometricLadder(F(1, 100), F(1, 2)))), F(2), 3))
# the horizon 1/27 falls inside ExampleFamily's second block, 1/9 inside
# the pattern's second group
@example((UnionOf((ExampleFamily(F(1, 2)), GeometricLadder(1, F(1, 3)))), F(3, 2), 4))
@example((UnionOf((PatternLadder(1, (F(1, 2), F(1, 2)), F(1, 2)), GeometricLadder(1, F(1, 3)))), F(5, 4), 3))
@example(
    (
        UnionOf(
            (
                UnionOf((ExampleFamily(F(2, 3)), GeometricLadder(1, F(1, 3)))),
                SuperGeometricLadder(F(3, 2), F(1, 2)),
            )
        ),
        F(2),
        6,
    )
)
def test_a_blown_union_of_point_families_is_blow_up_chain(case):
    # the parts' scans, merged as any union merges its parts' chains,
    # against blow_up_chain of the merged points: the counts, and the kept
    # part's ratios and text as a report reads them, before that part
    # slices its ends; then the ends, views and ratios of a fresh chain and
    # of its kept part
    u, q, depth = case
    want = blow_up_chain(expand(u, depth), q)
    want_kept = cc1_components(want)
    got = expand(BlowupOf(u, q), depth)
    kept = cc1_components(got)
    assert (_count(got), _count(kept)) == (len(want.blocks), len(want_kept.blocks))
    assert component_ratios(kept) == component_ratios(want_kept)
    assert component_ends_text(kept) == component_ends_text(want_kept)
    got = expand(BlowupOf(u, q), depth)
    assert (got.blocks, got.upper, got.horizon) == (want.blocks, want.upper, want.horizon)
    assert _view_ratios(got) == _view_ratios(want)
    assert component_ratios(got) == component_ratios(want)
    kept = cc1_components(got)
    assert (kept.blocks, kept.horizon) == (want_kept.blocks, want_kept.horizon)
    assert _view_ratios(kept) == _view_ratios(want_kept)


_FLAT_UNION = UnionOf(
    (ExampleFamily(F(1, 2)), GeometricLadder(1, F(1, 3)),
     PatternLadder(F(3, 4), (F(1, 2), F(1, 8)), F(1, 4)))
)
_UNION_COMMANDS = pytest.mark.parametrize(
    "command", [("blowup", "--q", "2", "--q", "3/2"), ("decompose", "--n", "1", "--q", "5/4")], ids=" ".join
)


def _union_argv(union, command, fmt):
    argv = [command[0], "--family", json.dumps(tailset.family_to_json(union)), "--depth", "12"]
    return argv + ["--format", fmt, *command[1:]]


@_UNION_COMMANDS
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_blown_union_of_point_families_lists_no_points(capsys, monkeypatch, command, fmt):
    argv = _union_argv(_FLAT_UNION, command, fmt)
    want = cli.main(argv), capsys.readouterr()

    def refuse(self, depth):
        raise AssertionError("listed a point family's points")

    monkeypatch.setattr(_PointFamily, "_points", refuse)
    assert (cli.main(argv), capsys.readouterr()) == want
    kept = cc1_components(expand(BlowupOf(BlowupOf(_FLAT_UNION, F(9, 8)), F(10, 9)), 12))
    assert kept.blocks and component_ratios(kept) and component_ends_text(kept)


@_UNION_COMMANDS
def test_a_blown_nested_union_is_the_generic_blow_up(capsys, monkeypatch, command):
    # a union among the parts: no part is scanned, blow_up_chain blows up
    # the merged points, and the text report is the one the flat union of
    # the same families gives from its parts' scans
    want = cli.main(_union_argv(_FLAT_UNION, command, "text")), capsys.readouterr()
    passes = []

    def counting(c, q):
        passes.append(q)
        return blow_up_chain(c, q)

    def refuse(self, ratios, q):
        raise AssertionError("scanned a part of a nested union")

    monkeypatch.setattr(blowup, "blow_up_chain", counting)
    monkeypatch.setattr(_PointFamily, "_blown_scan", refuse)
    nested = UnionOf((UnionOf(_FLAT_UNION.parts[:2]), _FLAT_UNION.parts[2]))
    assert (cli.main(_union_argv(nested, command, "text")), capsys.readouterr()) == want
    assert passes


def test_three_blow_ups_of_a_point_family_are_one_scan():
    f = ExampleFamily(F(2, 3))
    nested = expand(BlowupOf(BlowupOf(BlowupOf(f, F(4, 3)), F(3, 2)), F(5, 4)), 8)
    once = expand(BlowupOf(f, F(5, 2)), 8)
    assert nested == once
    assert (nested._view, component_ratios(nested)) == (once._view, component_ratios(once))


def test_a_scanned_chain_builds_its_view_and_text_only_when_read(monkeypatch):
    # x0 = 3 puts the first component above 1, so the cut drops it
    scanned = expand(BlowupOf(PatternLadder(3, (F(1, 2), F(1, 8)), F(1, 4)), F(3, 2)), 8)
    kept = cc1_components(scanned)
    assert 0 < _count(kept) < _count(scanned)
    for c in (scanned, kept):
        assert {"blocks", "horizon", "_view", "_ends_text"}.isdisjoint(vars(c))
    # the ratios, the count and the text build no block end, and the part
    # kept steps its own ends and text down from its top: the whole chain
    # builds none of them
    ratios, text = component_ratios(kept), component_ends_text(kept)
    assert _count(kept) == len(ratios[0]) == len(text) > 0
    for c in (scanned, kept):
        assert {"blocks", "horizon", "_view"}.isdisjoint(vars(c))
    assert text == [(format_rational(b.lo), format_rational(b.hi)) for b in kept.blocks]
    assert {"blocks", "horizon", "_view", "_ends_text"}.isdisjoint(vars(scanned))
    assert kept.blocks == scanned.blocks[_count(scanned) - _count(kept):]
    assert len(kept._view.lo) == len(kept.blocks)
    assert "_view" in vars(scanned)
    # a chain from blow_up_chain: the part kept is a slice of its blocks and
    # view, and its text formats only the kept ends, by format_rational
    generic = blow_up_chain(expand(_UNIONS["point-family-and-intervals"], 8), F(3, 2))
    kept = cc1_components(generic)
    assert 0 < len(kept.blocks) < len(generic.blocks)
    assert kept.blocks == generic.blocks[len(generic.blocks) - len(kept.blocks):]
    assert kept._view.D == generic._view.D and len(kept._view.lo) == len(kept.blocks)
    assert kept._component_ratios is None
    formatted = []

    def counting(x):
        formatted.append(x)
        return format_rational(x)

    monkeypatch.setattr(tailset, "format_rational", counting)
    assert component_ends_text(kept) == [
        (format_rational(b.lo), format_rational(b.hi)) for b in kept.blocks
    ]
    assert formatted == [x for b in kept.blocks for x in (b.lo, b.hi)]
    assert "_ends_text" not in vars(generic)
    assert component_ratios(kept) == (
        tuple(b.hi / b.lo for b in kept.blocks),
        tuple(a.lo / b.hi for a, b in zip(kept.blocks, kept.blocks[1:])),
    )


# x0 > 1, so that the cut below 1 falls some components down
_deep_cut_families = st.one_of(
    st.builds(GeometricLadder, _fractions(4, 60), _fractions(0, 1)),
    st.builds(SuperGeometricLadder, _fractions(4, 60), _fractions(0, 1)),
    st.builds(
        PatternLadder,
        _fractions(4, 60),
        st.lists(_fractions(0, 1), max_size=3).map(tuple),
        _fractions(0, 1),
    ),
)


@settings(max_examples=200, deadline=None, database=None)
@given(_deep_cut_families, st.sampled_from(_NESTING_QS), st.integers(1, 12))
@example(GeometricLadder(59, F(1, 5)), F(3, 2), 12)  # three components above 1
# every component above 1: the cut keeps none, and its horizon is the last
# lo, 1/2, or 1 where that lo lies above 1
@example(GeometricLadder(1, F(1, 2)), F(2), 1)
@example(GeometricLadder(1000, F(1, 2)), F(2), 4)
def test_lazy_ends_are_the_generic_blow_ups(f, q, depth):
    # the cut on the scan's ratios, then the ends built on first read: the
    # part kept first, the whole chain through it
    scanned = expand(BlowupOf(f, q), depth)
    kept = cc1_components(scanned)
    generic = blow_up_chain(expand(f, depth), q)
    generic_kept = cc1_components(generic)
    assert _count(scanned) == len(generic.blocks)
    assert _count(kept) == len(generic_kept.blocks)
    assert {"blocks", "horizon"}.isdisjoint(vars(scanned))
    for c, o in ((kept, generic_kept), (scanned, generic)):
        assert (c.blocks, c.upper, c.horizon) == (o.blocks, o.upper, o.horizon)
        assert component_ratios(c) == component_ratios(o)


@pytest.mark.parametrize(
    "family",
    _POINT_DESCRIPTORS
    + ['{"variant":"BlowupOf","base":{"variant":"ExampleFamily","alpha":"2/3"},"q":"3/2"}'],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_blowup_report_of_a_point_family_builds_no_block_end(capsys, monkeypatch, family, fmt):
    argv = ["blowup", "--family", family, "--depth", "12", "--format", fmt, "--q", "2", "--q", "3"]
    want = cli.main(argv), capsys.readouterr()

    def refuse(lo, hi):
        raise AssertionError("built a block end")

    monkeypatch.setattr(tailset, "_interval", refuse)
    assert (cli.main(argv), capsys.readouterr()) == want


@settings(max_examples=200, deadline=None, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from((F(5, 4), F(3, 2), F(2), F(3))))
def test_component_ratios_from_the_reduced_ends_are_the_view_quotients(rng, q):
    # a chain with touching ends blown up, whose gap ratios can be 1: the
    # ratios of its reduced ends against the quotients of its view ints
    blown = blow_up_chain(random_mixed_chain(rng, touch=0.5), q)
    for c in (blown, cc1_components(blown)):
        assert component_ratios(c) == _view_ratios(c)


@st.composite
def _scanned_family_and_q(draw):
    """A point family and a q > 1: an int, any rational, or one made of the
    family's own terms, so that the replayed steps take gcds above 1 and
    some ends come out with denominator 1."""
    f = draw(_point_families.filter(lambda f: isinstance(f, _PointFamily)))
    terms = [f.x0.numerator, f.x0.denominator]
    terms += [t for r in itertools.islice(f._ratios(4), 3) for t in r]
    n, d = draw(st.sampled_from(terms)), draw(st.sampled_from(terms))
    shared = F(max(n, d) * draw(st.integers(1, 3)), min(n, d))
    q = draw(st.one_of(st.integers(2, 6).map(F), _fractions(1, 4), st.just(shared)))
    return f, q if q > 1 else q + 1


@settings(max_examples=300, deadline=None, database=None)
@given(_scanned_family_and_q(), st.integers(1, 10))
# x0 = 9/2 and q = 2: the first step cancels the 2, x0*q = 9 prints as an
# int, and rho = 2/3 makes the ends below share factors with q
@example((GeometricLadder(F(9, 2), F(2, 3)), F(2)), 6)
def test_replayed_end_text_is_format_rational(case, depth):
    f, q = case
    scanned = expand(BlowupOf(f, q), depth)
    for c in (scanned, cc1_components(scanned)):
        assert component_ends_text(c) == [
            (format_rational(b.lo), format_rational(b.hi)) for b in c.blocks
        ]


@pytest.mark.parametrize(
    "family",
    _POINT_DESCRIPTORS
    + [
        '{"variant":"GeometricLadder","x0":"9/2","rho":"2/3"}',
        '{"variant":"ExampleFamily","alpha":"5/13"}',
        '{"variant":"PatternLadder","x0":"4/3","ratios":["3/4","1/6"],"decay":"2/9"}',
    ],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_blowup_report_is_the_generic_blow_ups(capsys, monkeypatch, family, fmt):
    # the report from the scan, with its replayed text, against the one
    # from blow_up_chain of the expanded points, printed by format_rational
    argv = ["blowup", "--family", family, "--depth", "10", "--format", fmt]
    argv += ["--q", "2", "--q", "3/2", "--q", "3", "--q", "9/4"]
    want = cli.main(argv), capsys.readouterr()

    def generic(self, depth):
        assert isinstance(self.base, _PointFamily)
        return blow_up_chain(self.base._expand(depth), self.q)

    monkeypatch.setattr(BlowupOf, "_expand", generic)
    assert (cli.main(argv), capsys.readouterr()) == want


@pytest.mark.parametrize("family", _POINT_DESCRIPTORS)
@pytest.mark.parametrize(
    "command",
    [
        ("blowup", "--q", "2", "--q", "3/2"),
        ("decompose", "--n", "1", "--q", "3"),
        ("decompose", "--n", "2", "--q", "2"),
    ],
    ids=" ".join,
)
def test_blowup_and_decompose_never_expand_the_point_family(capsys, monkeypatch, family, command):
    argv = [command[0], "--family", family, "--depth", "12", "--format", "json", *command[1:]]
    want = cli.main(argv), capsys.readouterr()

    def refuse(self, depth):
        raise AssertionError("expanded a point family")

    monkeypatch.setattr(tailset._PointFamily, "_expand", refuse)
    assert (cli.main(argv), capsys.readouterr()) == want


def test_blocks_within_open_window():
    blocks = (Interval(F(1, 2), 1), Point(F(1, 4)), Interval(F(1, 16), F(1, 8)))
    assert blocks_within(blocks, F(1, 4), F(3, 4)) == (Interval(F(1, 2), F(3, 4)),)
    assert blocks_within(blocks, F(1, 8), 1) == (Interval(F(1, 2), 1), Point(F(1, 4)))
    assert blocks_within(blocks, 0, F(1, 8)) == (Interval(F(1, 16), F(1, 8)),)


def test_blocks_subset_edge_cases():
    outer = (Interval(F(1, 4), 1),)
    assert blocks_subset((Interval(F(1, 4), 1),), outer)
    assert blocks_subset((Point(F(1, 2)),), outer)
    assert not blocks_subset((Point(F(1, 4)),), outer)  # open endpoint
    assert not blocks_subset((Interval(F(1, 8), F(1, 2)),), outer)
    assert blocks_subset((), outer)


def test_inclusion_lemma_trivial_and_random():
    rng = random.Random(12)
    a = GeometricLadder(1, F(1, 2))
    report = check_inclusion_lemma(a, a, t=F(1, 2), q=2, depth=16)
    assert report.precondition_holds and report.conclusion_holds and report.passed
    for _ in range(300):
        base = random_mixed_chain(rng)
        keep = tuple(b for b in base.blocks if rng.random() < 0.6)
        sub = Chain(keep, upper=base.upper, horizon=base.horizon)
        q = F(rng.choice((3, 4, 10)), 2)
        t = base.upper * F(rng.randint(1, 4), 4)
        report = check_inclusion_lemma(
            ExplicitChain(base), ExplicitChain(sub), t=t, q=q, depth=4
        )
        assert report.precondition_holds
        assert report.passed


def test_inclusion_lemma_reports_failed_precondition():
    a = ExplicitChain(Chain((), upper=1, horizon=0))
    b = ExplicitChain(Chain((Point(F(1, 2)),), upper=1, horizon=0))
    report = check_inclusion_lemma(a, b, t=1, q=2, depth=4)
    assert not report.precondition_holds
    assert report.conclusion_holds is None
    assert not report.passed


def test_inclusion_lemma_scale_is_exact():
    # B occupies [t, upper], A is empty; below t they agree, but blown B
    # reaches down to t/q, so any window wider than (0, t/q) catches it
    t, h = F(1, 2), F(4)
    b = ExplicitChain(Chain((Interval(t, h), Point(t)), upper=h, horizon=0))
    a = ExplicitChain(Chain((), upper=h, horizon=0))
    q = F(2)
    ok = check_inclusion_lemma(a, b, t=t, q=q, depth=4)
    assert ok.passed
    for scale in (1 / q + F(1, 1000), F(3, 4), F(1)):
        bad = check_inclusion_lemma(a, b, t=t, q=q, depth=4, scale=scale)
        assert bad.precondition_holds
        assert bad.conclusion_holds is False
        assert not bad.passed


def test_find_covering_blowup_geometric():
    q, t = find_covering_blowup(GeometricLadder(1, F(1, 2)), depth=20)
    assert (q, t) == (4, 1)
    # the blown chain really is gap-free from q*horizon up to t
    chain = expand(GeometricLadder(1, F(1, 2)), 20)
    blown = blow_up_chain(chain, q)
    assert any(
        block_inf(b) <= q * chain.horizon and t <= block_sup(b) for b in blown.blocks
    )


def test_find_covering_blowup_refuses_porous_families(monkeypatch):
    calls = []

    def counting_expand(f, depth):
        calls.append(f)
        return expand(f, depth)

    monkeypatch.setattr(blowup, "expand", counting_expand)
    # a certified index of 1 settles the answer without building the chain
    porous = [
        SuperGeometricLadder(1, F(1, 2)),
        ExampleFamily(F(1, 2)),
        PatternLadder(1, (F(1, 2), F(1, 8)), F(1, 2)),
        BlowupOf(SuperGeometricLadder(1, F(1, 2)), 2),
    ]
    for f in porous:
        assert find_covering_blowup(f, depth=20) is None
    assert calls == []
    assert find_covering_blowup(GeometricLadder(1, F(1, 2)), depth=20) == (4, 1)
    assert len(calls) == 1


def _cover_on_the_expanded_chain(f, depth):
    # the covering search on blow_up_chain(expand(f, depth), q), for a
    # family with a certified index below 1 or with none, where the margin
    # comes from the deepest probes
    chain = expand(f, depth)
    margin = f.porosity_index()
    if margin is None:
        margin = max((r for _, r in probe_ratios(chain, PROBE_WINDOW)), default=F(0))
        if margin >= SP_EVIDENCE_RATIO:
            return None
    q = 2 / (1 - margin)
    anchor = q * chain.horizon
    for b in blow_up_chain(chain, q).blocks:
        if block_inf(b) <= anchor < block_sup(b):
            t = min(chain.upper, block_sup(b))
            return (q, t) if t > anchor else None
    return None


# families built from point families: a point family certifies its index,
# a blown GeometricLadder and a union of two point families certify none
_scanned_builds = st.one_of(
    _scanned_families,
    st.builds(
        BlowupOf,
        st.builds(GeometricLadder, _fractions(0, 4), _fractions(0, 1)),
        st.sampled_from(_NESTING_QS) | _fractions(1, 3),
    ),
    st.lists(_scanned_families, min_size=2, max_size=2).map(lambda parts: UnionOf(tuple(parts))),
)


@settings(max_examples=200, deadline=None, database=None)
@given(_scanned_builds, st.integers(1, 24))
def test_find_covering_blowup_scans_point_families(f, depth):
    # each family blows itself up on its scans, with no blow_up_chain pass,
    # and finds the cover blow_up_chain of its expanded chain gives; of the
    # point families only GeometricLadder certifies an index below 1, and
    # the rest refuse
    with mock.patch.object(blowup, "blow_up_chain", wraps=blow_up_chain) as passes:
        found = find_covering_blowup(f, depth)
    assert passes.call_count == 0
    if f.porosity_index() == 1:
        assert found is None
    else:
        assert found == _cover_on_the_expanded_chain(f, depth)


def test_find_covering_blowup_full_interval():
    eps = F(1, 1000)
    f = ExplicitChain(Chain((Interval(eps, 1),), upper=1, horizon=eps))
    q, t = find_covering_blowup(f, depth=4)
    assert q == 2
    assert t == 1


def test_find_covering_blowup_without_a_certified_index():
    # an ExplicitChain part takes the union's certified index away, so q
    # comes from the deepest probe ratios
    geo = GeometricLadder(1, F(1, 2))
    f = UnionOf((geo, ExplicitChain(expand(geo, 20))))
    assert f.porosity_index() is None
    q, t = find_covering_blowup(f, depth=20)
    assert (q, t) == (4, 1)
    # a real cover: the blown blocks, merged by the Fraction oracle, leave
    # no gap from q*horizon up to t
    chain = expand(f, 20)
    merged = merge_blocks([blow_up_block(b, q) for b in chain.blocks])
    assert any(block_inf(b) <= q * chain.horizon and t <= block_sup(b) for b in merged)
    # probe ratios near 1 are evidence of strong porosity: no cover
    sup = SuperGeometricLadder(1, F(1, 2))
    assert find_covering_blowup(UnionOf((sup, ExplicitChain(expand(sup, 40)))), 32) is None


def test_find_covering_blowup_without_a_component_at_the_anchor():
    # a horizon at 0 puts the anchor q*horizon at 0, below every block, and
    # the tail gap down to 0 spans a whole probe: no cover, blocks or not
    points = tuple(Point(F(3, 4) ** k) for k in range(6))
    mixed = (Interval(F(1, 2), F(1)), Point(F(1, 4)), Interval(F(1, 16), F(1, 8)))
    for blocks in [(), points, mixed]:
        assert find_covering_blowup(ExplicitChain(Chain(blocks, upper=1, horizon=0)), 4) is None
    # the component at q*horizon is capped by the upper edge below it
    high = ExplicitChain(Chain((Point(1), Point(F(9, 10))), upper=1, horizon=F(9, 10)))
    assert find_covering_blowup(high, 4) is None
    # a point at the horizon blows up to end at q*horizon, the open end
    low = ExplicitChain(Chain((Point(F(1, 2)),), upper=1, horizon=F(1, 2)))
    assert find_covering_blowup(low, 4) is None
