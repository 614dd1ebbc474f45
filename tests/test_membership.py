import itertools
import random
from fractions import Fraction as F

import pytest

from porosity_lab.blowup import blow_up_chain, cc1_components
from porosity_lab.membership import (
    CofiniteTail,
    DecompositionResult,
    HypothesisFailure,
    Verdict,
    decompose_csp,
    is_sp,
    reproduce_example,
    verdict_to_json,
)
from porosity_lab.membership import test_csp as csp_verdict
from porosity_lab.membership import test_i_csp as i_csp_verdict
from porosity_lab.membership import test_ihat_sp as ihat_sp_verdict
from porosity_lab.rational import INF
from porosity_lab.tailset import (
    UNKNOWN,
    BlowupOf,
    Chain,
    ExampleFamily,
    ExplicitChain,
    ExplicitLimit,
    GeometricLadder,
    Interval,
    PatternLadder,
    Point,
    SuperGeometricLadder,
    UnionOf,
    blowup_certificate,
    expand,
    lambda_gap,
)

GEO = GeometricLadder(F(1), F(1, 2))
SUP = SuperGeometricLadder(F(1), F(1, 2))
EXA = ExampleFamily(F(1, 2))
PAT = PatternLadder(F(1), (F(1, 2), F(1, 8)), F(1, 4))
QS = (F(2),)


def verdicts(f, depth=24):
    return (
        is_sp(f, depth),
        csp_verdict(f, depth),
        i_csp_verdict(f, QS, 8, depth),
        ihat_sp_verdict(f, QS, depth),
    )


def test_verdict_constructors():
    with pytest.raises(ValueError):
        Verdict.definite(True, UNKNOWN, "no")
    d = Verdict.definite(False, ExplicitLimit(F(2), False), "why")
    assert d.is_definite and not d.value and d.depth is None
    e = Verdict.empirical(True, 16, "bounded", "so far")
    assert not e.is_definite and e.certificate is UNKNOWN


def test_verdict_json_shapes():
    d = Verdict.definite(True, ExplicitLimit(INF, True), "why")
    assert verdict_to_json(d) == {
        "kind": "definite",
        "value": True,
        "certificate": {
            "kind": "ExplicitLimit",
            "limsup_beta": "inf",
            "gamma_tends_to_infinity": True,
        },
        "note": "why",
    }
    e = Verdict.empirical(False, 16, "oscillating", "noisy")
    assert verdict_to_json(e) == {
        "kind": "empirical",
        "value_at_depth": False,
        "depth": 16,
        "trend": "oscillating",
        "note": "noisy",
    }


# the table every other test leans on: (SP, CSP, I(CSP), Ihat(SP))
FAMILY_TABLE = [
    (GEO, (False, False, False, False)),
    (SUP, (True, True, True, True)),
    (EXA, (True, False, False, True)),
    (PAT, (True, True, True, True)),
]


@pytest.mark.parametrize("f,expected", FAMILY_TABLE)
def test_certified_family_verdicts(f, expected):
    got = verdicts(f)
    assert all(v.is_definite for v in got)
    assert tuple(v.value for v in got) == expected


def test_bounded_away_sets_belong_everywhere():
    f = ExplicitChain(Chain((Point(F(1, 2)), Point(F(1, 4))), upper=1, horizon=0))
    for v in (csp_verdict(f),):
        assert v.is_definite and v.value
    # the asymptotic tests insist on accumulation at 0, except the cover test
    with pytest.raises(ValueError):
        is_sp(f)
    with pytest.raises(ValueError):
        ihat_sp_verdict(f, QS)
    with pytest.raises(ValueError):
        i_csp_verdict(f, QS)


def test_explicit_chain_with_horizon_is_empirical_for_csp():
    ch = expand(SUP, 24)
    v = csp_verdict(ExplicitChain(ch), 24)
    assert v.kind == "empirical" and v.value and v.trend == "monotone-increasing"
    bad = csp_verdict(ExplicitChain(expand(GEO, 24)), 24)
    assert bad.kind == "empirical"
    assert not bad.value


def test_blowup_peels_to_base_verdict():
    for f, expected in FAMILY_TABLE:
        wrapped = BlowupOf(f, F(3))
        got = verdicts(wrapped)
        assert all(v.is_definite for v in got)
        assert tuple(v.value for v in got) == expected


def test_union_with_bad_part_is_definitely_out():
    u = UnionOf((SUP, GEO))
    got = verdicts(u)
    assert all(v.is_definite for v in got)
    assert tuple(v.value for v in got) == (False, False, False, False)


def test_union_of_members_is_definite_only_for_ideals():
    u = UnionOf((SUP, PAT))
    v_sp, v_csp, v_icsp, v_ihat = verdicts(u)
    assert v_icsp.is_definite and v_icsp.value
    assert v_ihat.is_definite and v_ihat.value
    # full porosity follows from sitting inside the ideal hull; complete
    # porosity has no such rescue and stays evidence-only
    assert v_sp.is_definite and v_sp.value
    assert v_csp.kind == "empirical"


def test_q_list_must_be_sensible():
    with pytest.raises(ValueError):
        ihat_sp_verdict(SUP, ())
    with pytest.raises(ValueError):
        i_csp_verdict(SUP, (F(1),))


# a closed form, its blow-up and a union left to the empirical fallbacks:
# every engine checks its arguments before any of them is decided
ARGUMENT_CHECK_FAMILIES = [
    GEO,
    BlowupOf(GEO, F(2)),
    UnionOf((SUP, ExplicitChain(Chain((Point(F(1, 2)), Point(F(1, 5))), F(1, 2), F(1, 5))))),
]


@pytest.mark.parametrize("f", ARGUMENT_CHECK_FAMILIES)
def test_every_engine_checks_depth_and_q_on_every_path(f):
    engines = (
        lambda: is_sp(f, 0),
        lambda: csp_verdict(f, 0),
        lambda: i_csp_verdict(f, QS, 8, 0),
        lambda: ihat_sp_verdict(f, QS, 0),
    )
    for engine in engines:
        with pytest.raises(ValueError, match="depth must be at least 1"):
            engine()
    for q_list in ((), (1,)):
        with pytest.raises(ValueError, match="need at least one q > 1"):
            ihat_sp_verdict(f, q_list)
        with pytest.raises(ValueError, match="need at least one q > 1"):
            i_csp_verdict(f, q_list)


@pytest.mark.parametrize("f", ARGUMENT_CHECK_FAMILIES)
def test_i_csp_checks_M_on_every_path(f):
    # the window offset M counts from 0, as the CLI's --M does
    with pytest.raises(ValueError, match="M must be at least 0"):
        i_csp_verdict(f, QS, -1, 16)
    assert i_csp_verdict(f, QS, 0, 4).depth in (None, 4)


def test_reproduce_example_checks_M():
    with pytest.raises(ValueError, match="M must be at least 0"):
        reproduce_example(F(1, 2), 8, (F(2),), M_max=-1)


def random_family(rng, wrap=True):
    kind = rng.randrange(4)
    if kind == 0:
        f = GeometricLadder(F(1), F(rng.randrange(1, 10), 10))
    elif kind == 1:
        f = SuperGeometricLadder(F(1), F(1, rng.randrange(2, 6)))
    elif kind == 2:
        f = ExampleFamily(F(rng.randrange(1, 10), 10))
    else:
        n = rng.randrange(1, 4)
        ratios = tuple(F(1, rng.randrange(2, 17)) for _ in range(n))
        f = PatternLadder(F(1), ratios, F(1, rng.randrange(2, 6)))
    if wrap and rng.random() < 0.3:
        f = BlowupOf(f, F(rng.randrange(3, 9), 2))
    if wrap and rng.random() < 0.3:
        f = UnionOf((f, random_family(rng, wrap=False)))
    return f


def test_hierarchy_among_definite_verdicts():
    rng = random.Random(31)
    for _ in range(60):
        f = random_family(rng)
        v_sp, v_csp, v_icsp, v_ihat = verdicts(f, depth=16)
        # CSP within I(CSP) within Ihat(SP) within SP
        chain = [v_csp, v_icsp, v_ihat, v_sp]
        for lower, upper in zip(chain, chain[1:]):
            if lower.is_definite and lower.value:
                assert upper.is_definite and upper.value
            if upper.is_definite and not upper.value:
                assert lower.is_definite and not lower.value


def test_union_with_unknown_part_goes_empirical():
    # one part carries no certificate, so only finite evidence remains
    known = expand(SUP, 20)
    u = UnionOf((SUP, ExplicitChain(known)))
    v = is_sp(u, 20)
    assert v.kind == "empirical"
    # the merged chain is still the supergeometric ladder, so the deepest
    # probes look fully porous
    assert v.value


def test_i_csp_evidence_of_a_diverging_window_is_empirical_true():
    # the copy takes the union's certificate away; the gaps of the blown
    # chain still grow, and the windowed maxima diverge from M = 0
    u = UnionOf((SUP, ExplicitChain(expand(SUP, 40))))
    v = i_csp_verdict(u, QS, 8, 32)
    assert (v.kind, v.value, v.depth) == ("empirical", True, 32)
    assert v.trend == "monotone-increasing"
    assert v.note.endswith("q=2: window M=0 diverges")


def blocks_then_tail(blocks, ratio, decay, tail):
    """An ExplicitChain of growing blocks united with a tail below it.

    Block j holds j+1 points at the in-block ratio, and block j+1 starts
    decay**(j+1) below the last point of block j.  The chain's horizon is
    its last point x, where tail(x) takes over."""
    points, x = [], F(1)
    for j in range(blocks):
        points.append(x)
        for _ in range(j):
            x *= ratio
            points.append(x)
        x *= decay ** (j + 1)
    last = points[-1]
    return UnionOf((ExplicitChain(Chain(tuple(map(Point, points)), F(1), last)), tail(last)))


def test_i_csp_evidence_needs_the_ihat_sp_evidence():
    # 13 blocks of 1..13 points, 91 in all: the blown gaps diverge from
    # M = 0, but the blown blocks stop adding components and their width
    # ratios keep setting records, so the set is not even in Ihat(SP)
    u = blocks_then_tail(13, F(1, 2), F(1, 2), lambda x: SuperGeometricLadder(x, F(1, 2)))
    assert len(u.parts[0].chain.blocks) == 91
    ihat = ihat_sp_verdict(u, QS, 32)
    assert (ihat.kind, ihat.value) == ("empirical", False)
    v = i_csp_verdict(u, QS, 8, 32)
    assert (v.kind, v.value, v.depth) == ("empirical", False, 32)
    assert "q=2: window M=0 diverges but " in v.note
    assert "(stalled)" in v.note


def nesting_cases():
    tails = (
        lambda x: SuperGeometricLadder(x, F(1, 2)),
        lambda x: PatternLadder(x, (F(1, 2),), F(1, 2)),
    )
    for blocks, ratio, decay, tail in itertools.product(
        (6, 9, 13), (F(1, 2), F(2, 3)), (F(1, 2), F(1, 4)), tails
    ):
        yield blocks_then_tail(blocks, ratio, decay, tail)
    # a ladder next to a copy of its own expansion: no certificate, and the
    # evidence for both classes holds
    for f in (SUP, PAT, SuperGeometricLadder(F(1), F(1, 3))):
        for copy_depth in (16, 40):
            yield UnionOf((f, ExplicitChain(expand(f, copy_depth))))


def test_empirical_i_csp_stays_inside_ihat_sp():
    # I(CSP) lies inside Ihat(SP): no report may read the one true and the
    # other false, whether a verdict is Definite or Empirical
    in_icsp = 0
    for f in nesting_cases():
        for q_list in ((F(2),), (F(3, 2),), (F(3, 2), F(3))):
            for depth in (16, 32):
                icsp = i_csp_verdict(f, q_list, 8, depth)
                ihat = ihat_sp_verdict(f, q_list, depth)
                assert ihat.value or not icsp.value, (f, q_list, depth)
                in_icsp += icsp.value and icsp.kind == "empirical"
    assert in_icsp >= 1


# ---------------------------------------------------------------------------
# the worked example


def test_reproduce_example_verdict_pair():
    rep = reproduce_example(F(1, 2), 12, (F(3, 2), F(3), F(10)))
    assert rep.ihat_sp.is_definite and rep.ihat_sp.value
    assert rep.i_csp.is_definite and not rep.i_csp.value


# (alpha, q) -> (m, sum-form beta bound)
EXAMPLE_BOUNDS = [
    (F(1, 2), F(3, 2), 1, F(3)),
    (F(1, 2), F(3), 2, F(7)),
    (F(1, 2), F(10), 4, F(31)),
    (F(9, 10), F(3, 2), 4, F(40951, 6561)),
]


@pytest.mark.parametrize("alpha,q,m,total", EXAMPLE_BOUNDS)
def test_reproduce_example_reported_bounds(alpha, q, m, total):
    rep = reproduce_example(alpha, 10, (q,), M_max=3)
    (b,) = rep.bounds
    assert b.m == m
    assert b.beta_limsup == total
    assert b.window_liminf == tuple((1 / alpha) ** (m + M + 1) for M in range(4))


def test_reproduce_example_exact_beta_is_attained():
    # alpha = 1/2, q = 3: the largest still-merging step count is 3, so the
    # per-block cluster has width ratio 9 * 2^(3*4/2) = 576, visible verbatim
    # among the deep components
    rep = reproduce_example(F(1, 2), 14, (F(3),), M_max=2)
    (b,) = rep.bounds
    assert b.beta_limsup_exact == 576
    comps = cc1_components(expand(BlowupOf(ExampleFamily(F(1, 2)), F(3)), 14)).blocks
    betas = [c.hi / c.lo for c in comps]
    assert max(betas) == 576
    deep = betas[len(betas) // 2 :]
    assert max(deep) == 576
    assert deep.count(576) >= 3


@pytest.mark.parametrize("M", [0, 1, 2])
def test_reproduce_example_exact_window_liminf_is_attained(M):
    # the flattest windows sit just below each cluster; their maxima repeat
    # the exact liminf value block after block while early windows are larger
    alpha, q = F(1, 2), F(3)
    rep = reproduce_example(alpha, 14, (q,), M_max=M)
    (b,) = rep.bounds
    exact = b.window_liminf_exact[M]
    assert exact == alpha ** -(3 + M + 1) / (q * q)
    comps = cc1_components(expand(BlowupOf(ExampleFamily(alpha), q), 14)).blocks
    gammas = [comps[i].lo / comps[i + 1].hi for i in range(len(comps) - 1)]
    windows = [max(gammas[i : i + M + 1]) for i in range(len(gammas) - M)]
    deep = windows[len(windows) // 2 :]
    assert min(deep) == exact
    assert deep.count(exact) >= 2
    # and the reported closed form really does sit above the exact value
    assert exact <= b.window_liminf[M]


def test_reported_window_bound_dominates_exact_everywhere():
    rng = random.Random(37)
    for _ in range(100):
        alpha = F(rng.randrange(1, 20), 20)
        q = F(rng.randrange(21, 200), 20)
        rep = reproduce_example(alpha, 2, (q,), M_max=4)
        (b,) = rep.bounds
        for reported, exact in zip(b.window_liminf, b.window_liminf_exact):
            assert exact <= reported


def test_reproduce_example_input_checks():
    with pytest.raises(ValueError):
        reproduce_example(F(3, 2), 8, QS)
    with pytest.raises(ValueError):
        reproduce_example(F(1, 2), 8, (F(1, 2),))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_pattern_structure():
    r = decompose_csp(PAT, 2, F(2), depth=16)
    assert isinstance(r, DecompositionResult)
    assert len(r.parts) == 2 * 2 + 2
    assert isinstance(r.parts[-1], CofiniteTail)
    comps = cc1_components(expand(BlowupOf(PAT, F(2)), 16)).blocks
    # separators sit N+1 apart at most 2N+1
    for a, b in zip(r.block_indices, r.block_indices[1:]):
        assert 1 <= b - a <= 2 * 2 + 1
    # parts never share a component and tile the indices between the first
    # and last separator
    seen = []
    for part in r.parts[:-1]:
        seen.extend(part.chain.blocks)
    assert len(seen) == len(set(seen))
    lo_idx, hi_idx = r.block_indices[0], r.block_indices[-1]
    assert sorted(seen, key=lambda blk: -blk.lo) == list(comps[lo_idx:hi_idx])
    # the tail cut and the verified floor are the separators' left endpoints
    assert r.parts[-1].cut == comps[lo_idx - 1].lo
    assert r.cover_verified_to == comps[hi_idx - 1].lo
    assert all(v.kind == "empirical" for v in r.part_verdicts)


def gamma_divergence_indices(result, bound):
    """For each interval part of a decomposition, the first position in its
    gap-ratio sequence from which every later value exceeds `bound` (None
    when the sequence never clears it, 0 when it always does)."""
    out = []
    for part in result.parts[:-1]:
        blocks = part.chain.blocks
        gammas = [blocks[i].lo / blocks[i + 1].hi for i in range(len(blocks) - 1)]
        pos = 0
        for i, g in enumerate(gammas):
            if g <= bound:
                pos = i + 1
        out.append(pos if pos < len(gammas) or not gammas else None)
    return tuple(out)


def test_decompose_pattern_parts_have_diverging_gaps():
    r = decompose_csp(PAT, 1, F(2), depth=20)
    assert isinstance(r, DecompositionResult)
    marks = gamma_divergence_indices(r, F(10) ** 6)
    assert all(m is not None for m in marks)
    for part, mark in zip(r.parts[:-1], marks):
        blocks = part.chain.blocks
        gammas = [blocks[i].lo / blocks[i + 1].hi for i in range(len(blocks) - 1)]
        assert all(g > F(10) ** 6 for g in gammas[mark:])


def test_decompose_supergeometric_all_n():
    for n in (1, 2, 3):
        r = decompose_csp(SUP, n, F(2), depth=24)
        assert isinstance(r, DecompositionResult)
        assert len(r.parts) == 2 * n + 2


def test_decompose_example_reports_bounded_window():
    for n in range(1, 6):
        r = decompose_csp(EXA, n, F(2), depth=16)
        assert isinstance(r, HypothesisFailure)
        # m = 2 for q = 2, so the stuck window value is 2^(n+3)
        assert r.window_bound == F(2) ** (n + 3)
        assert "inside a block" in r.reason


def test_decompose_geometric_fails_hypotheses():
    fused = decompose_csp(GEO, 1, F(2), depth=16)
    assert isinstance(fused, HypothesisFailure)
    assert "fuse" in fused.reason
    flat = decompose_csp(GEO, 1, F(5, 4), depth=16)
    assert isinstance(flat, HypothesisFailure)
    assert flat.window_bound == 1 / (F(5, 4) ** 2 * F(1, 2))


def test_decompose_explicit_chain_goes_empirical():
    ch = expand(SUP, 24)
    r = decompose_csp(ExplicitChain(ch), 1, F(2), depth=24)
    assert isinstance(r, DecompositionResult)
    short = decompose_csp(ExplicitChain(expand(SUP, 6)), 3, F(2), depth=6)
    assert isinstance(short, HypothesisFailure)


def test_decompose_refuses_width_ratios_that_keep_setting_records():
    # clusters of j = 1..15 points spaced by 3/4: the blown clusters grow
    # wider with j, so the record width ratio sits in the deep half
    points, x = [], F(1)
    for j in range(1, 16):
        for _ in range(j):
            points.append(Point(x))
            x *= F(3, 4)
        x *= F(2) ** -(j + 4)
    chain = ExplicitChain(Chain(tuple(points), F(1), points[-1].x))
    r = decompose_csp(chain, 1, F(2))
    assert isinstance(r, HypothesisFailure)
    assert r.reason == "width ratios keep setting records"
    assert r.window_bound is None


def test_decompose_input_validation():
    with pytest.raises(ValueError):
        decompose_csp(PAT, 0, F(2))
    with pytest.raises(ValueError):
        decompose_csp(PAT, 1, F(1))
    with pytest.raises(ValueError):
        decompose_csp(PAT, 1, F(2), depth=0)


def test_decompose_blowup_of_pattern():
    r = decompose_csp(BlowupOf(PAT, F(3, 2)), 2, F(2), depth=16)
    assert isinstance(r, DecompositionResult)
    assert len(r.parts) == 6


# every constructor and engine that takes a number from outside, given one
# binary float among exact arguments
FLOAT_INPUTS = {
    "Point": lambda: Point(0.3),
    "Interval.lo": lambda: Interval(0.25, F(1, 2)),
    "Interval.hi": lambda: Interval(F(1, 4), 0.5),
    "Chain.upper": lambda: Chain((), upper=1.0, horizon=F(1, 2)),
    "Chain.horizon": lambda: Chain((), upper=1, horizon=0.5),
    "GeometricLadder.x0": lambda: GeometricLadder(1.0, F(1, 2)),
    "GeometricLadder.rho": lambda: GeometricLadder(1, 0.1),
    "SuperGeometricLadder": lambda: SuperGeometricLadder(1, 0.5),
    "ExampleFamily": lambda: ExampleFamily(0.5),
    "PatternLadder.x0": lambda: PatternLadder(1.0, (F(1, 2),), F(1, 4)),
    "PatternLadder.ratios": lambda: PatternLadder(1, (F(1, 2), 0.125), F(1, 4)),
    "PatternLadder.decay": lambda: PatternLadder(1, (F(1, 2),), 0.25),
    "BlowupOf": lambda: BlowupOf(GEO, 1.5),
    "blow_up_chain": lambda: blow_up_chain(expand(GEO, 4), 1.5),
    "blowup_certificate": lambda: blowup_certificate(GEO, 2.0),
    "lambda_gap": lambda: lambda_gap(expand(GEO, 4), 0.5),
    "test_ihat_sp": lambda: ihat_sp_verdict(GEO, (1.5,)),
    "test_i_csp": lambda: i_csp_verdict(GEO, (F(2), 1.5)),
    "decompose_csp": lambda: decompose_csp(PAT, 1, 1.5),
    "reproduce_example.alpha": lambda: reproduce_example(0.5, 8, (F(2),)),
    "reproduce_example.q": lambda: reproduce_example(F(1, 2), 8, (2.0,)),
}


@pytest.mark.parametrize("build", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_floats_are_refused(build):
    with pytest.raises(ValueError, match=r"^not an exact rational: \d+\.\d+$"):
        build()


def test_ints_and_strings_are_read_exactly():
    assert GeometricLadder(1, "1/10") == GeometricLadder(F(1), F(1, 10))
    assert Point("0.3").x == F(3, 10) and BlowupOf(GEO, 2).q == F(2)
    assert ihat_sp_verdict(GEO, ("3/2",)) == ihat_sp_verdict(GEO, (F(3, 2),))
    assert decompose_csp(PAT, 1, 3) == decompose_csp(PAT, 1, F(3))
    assert reproduce_example("1/2", 8, (2, "3")) == reproduce_example(F(1, 2), 8, (F(2), F(3)))
