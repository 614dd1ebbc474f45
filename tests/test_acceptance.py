"""Acceptance gate: one test per criterion, one printed PASS line each.

Every check here re-derives its expected values independently (hand-built
tables, brute-force scans, closed forms computed a second way) and compares
exactly; no tolerance knobs anywhere.
"""

import random
import time
from fractions import Fraction as F

import pytest
from fraction_oracles import blow_up_block
from test_membership import gamma_divergence_indices
from transfer_lemma import blocks_subset, check_inclusion_lemma

from porosity_lab.blowup import blow_up_chain, cc1_components
from porosity_lab.ideal_core import check_prime_iff_maximal, check_theorem_istar_eq_ihat
from porosity_lab.membership import (
    DecompositionResult,
    HypothesisFailure,
    decompose_csp,
    is_sp,
    reproduce_example,
)
from porosity_lab.membership import test_i_csp as i_csp_verdict
from porosity_lab.membership import test_ihat_sp as ihat_sp_verdict
from porosity_lab.tailset import (
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
    block_inf,
    component_ratios,
    expand,
    lambda_gap,
    porosity_profile,
    probe_ratios,
)

# classic counts of down-closed families (empty family included)
DOWN_FAMILY_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168}


@pytest.fixture(scope="module")
def foundation_reports():
    started = time.monotonic()
    reports = {n: check_theorem_istar_eq_ihat(n) for n in (1, 2, 3)}
    return reports, time.monotonic() - started


def test_criterion_1_foundations_exhaustive(foundation_reports):
    reports, elapsed = foundation_reports
    for n, report in reports.items():
        assert report.scanned == DOWN_FAMILY_COUNTS[n]
        assert report.counterexamples == ()
    assert elapsed < 60
    print(
        "criterion 1: PASS, star = hat on all qualifying down sets for n in 1..3, "
        f"{sum(r.scanned for r in reports.values())} families in {elapsed:.2f}s"
    )


def test_criterion_1_extended_n4():
    started = time.monotonic()
    report = check_theorem_istar_eq_ihat(4)
    elapsed = time.monotonic() - started
    assert report.scanned == DOWN_FAMILY_COUNTS[4]
    assert report.ok
    assert elapsed < 600
    print(f"criterion 1 (extended): PASS, 168 families at n=4 in {elapsed:.2f}s")


def test_criterion_2_lemma_and_corollary(foundation_reports):
    reports, _ = foundation_reports
    for report in reports.values():
        assert report.lemma_counterexamples == ()
        assert report.corollary_counterexamples == ()
    print(
        "criterion 2: PASS, membership-in-some-maximal-ideal and the "
        "support-exclusion corollary hold on the same corpus"
    )


def test_criterion_3_prime_equals_maximal():
    for n in (1, 2, 3, 4):
        report = check_prime_iff_maximal(n)
        assert report.counterexamples == ()
        assert report.prime_count == n
        assert report.maximal_count == n
    print("criterion 3: PASS, prime = maximal with n of each for n in 1..4")


# smallest m with q < (1/alpha)^m, tabulated by hand
HAND_M = {
    (F(1, 2), F(3, 2)): 1,
    (F(1, 2), F(3)): 2,
    (F(1, 2), F(10)): 4,
    (F(9, 10), F(3, 2)): 4,
    (F(9, 10), F(3)): 11,
    (F(9, 10), F(10)): 22,
}


def test_criterion_4_example_reproduction():
    for (alpha, q), m in HAND_M.items():
        started = time.monotonic()
        rep = reproduce_example(alpha, 12, (q,), M_max=8)
        elapsed = time.monotonic() - started
        assert elapsed < 10
        assert rep.ihat_sp.is_definite and rep.ihat_sp.value
        assert rep.i_csp.is_definite and not rep.i_csp.value
        (b,) = rep.bounds
        # the independent evaluation: a geometric sum in closed form rather
        # than the term-by-term accumulation inside the library
        r = 1 / alpha
        assert r ** (m - 1) <= q < r ** m
        assert b.m == m
        assert b.beta_limsup == (r ** (m + 1) - 1) / (r - 1)
        for M in range(9):
            assert b.window_liminf[M] == r ** (m + M + 1)
            assert b.window_liminf_exact[M] <= b.window_liminf[M]
    print(
        "criterion 4: PASS, certified bounds match hand-evaluated sums for "
        "alpha in {1/2, 9/10} x q in {3/2, 3, 10}"
    )


def _random_chain(rng):
    coords = sorted(
        {F(rng.randrange(1, 4000), 4000) for _ in range(rng.randrange(2, 12))},
        reverse=True,
    )
    blocks = []
    i = 0
    while i < len(coords):
        if rng.random() < 0.4 and i + 1 < len(coords):
            blocks.append(Interval(coords[i + 1], coords[i]))
            i += 2
        else:
            blocks.append(Point(coords[i]))
            i += 1
    return Chain(tuple(blocks), upper=F(1), horizon=0)


def test_criterion_5_blowup_property_suite():
    rng = random.Random(20260815)
    violations = []
    for trial in range(1000):
        chain = _random_chain(rng)
        q = F(rng.randrange(5, 40), 4)
        blown = blow_up_chain(chain, q)
        # the set sits inside its own blow-up
        if not blocks_subset(chain.blocks, blown.blocks):
            violations.append(("subset", trial))
        # monotone in the set
        sub = Chain(chain.blocks[::2], chain.upper, chain.horizon)
        if not blocks_subset(blow_up_chain(sub, q).blocks, blown.blocks):
            violations.append(("monotone-set", trial))
        # monotone in q
        bigger = blow_up_chain(chain, q + F(rng.randrange(1, 8), 4))
        if not blocks_subset(blown.blocks, bigger.blocks):
            violations.append(("monotone-q", trial))
        # blown points have width ratio at least q^2
        for b in chain.blocks:
            if isinstance(b, Point):
                img = blow_up_block(b, q)
                if img.hi / img.lo < q * q:
                    violations.append(("beta", trial))
        # component count above a: a * q^(2K) <= 1
        comps = cc1_components(blown).blocks
        for a in (F(1, 100), F(1, 10)):
            k = sum(1 for c in comps if c.lo >= a)
            if k and a * q ** (2 * k) > 1:
                violations.append(("count", trial))
        # inclusion transfer at scale 1/q for a genuine subset pair
        report = check_inclusion_lemma(
            ExplicitChain(chain), ExplicitChain(sub), chain.upper, q, depth=8
        )
        if not (report.precondition_holds and report.passed):
            violations.append(("inclusion", trial))
    # the exactness counterexample: nothing below t, everything from t on;
    # any scale beyond 1/q lets blown mass leak into the window
    t, top = F(1, 2), F(4)
    empty = ExplicitChain(Chain((), upper=top, horizon=0))
    full_tail = ExplicitChain(
        Chain((Interval(t, top), Point(t)), upper=top, horizon=0)
    )
    for q in (F(3, 2), F(2), F(5)):
        good = check_inclusion_lemma(empty, full_tail, t, q, depth=8)
        if not good.passed:
            violations.append(("exactness-pass", q))
        for scale in (1 / q + F(1, 1000), F(1)):
            bad = check_inclusion_lemma(empty, full_tail, t, q, depth=8, scale=scale)
            if bad.passed or not bad.precondition_holds:
                violations.append(("exactness-fail", q, scale))
    assert violations == [], violations[:10]
    print("criterion 5: PASS, 1000 randomized chains, zero violations")


def test_component_ratios_on_random_blown_chains():
    # the criterion-5 chains and geometric ladders, blown up:
    # beta_i = b_i/a_i, gamma_i = a_i/b_{i+1}
    rng = random.Random(20260815)
    blown = [
        cc1_components(blow_up_chain(_random_chain(rng), F(rng.randrange(5, 40), 4)))
        for _ in range(300)
    ]
    rng = random.Random(23)
    for _ in range(30):
        ladder = expand(GeometricLadder(1, F(rng.randint(1, 9), 10)), 12)
        blown.append(blow_up_chain(ladder, F(rng.randint(5, 20), 4)))
    for chain in blown:
        comps = chain.blocks
        betas, gammas = component_ratios(chain)
        assert len(betas) == len(comps)
        assert len(gammas) == max(len(comps) - 1, 0)
        for beta, c in zip(betas, comps):
            assert beta * c.lo == c.hi
        for gamma, a, b in zip(gammas, comps, comps[1:]):
            assert gamma * b.hi == a.lo
        assert all(beta > 1 for beta in betas) and all(gamma >= 1 for gamma in gammas)


def test_probe_ratios_match_rescan_on_random_chains():
    # the criterion-5 chains, as drawn, cut at their deepest block and blown
    # up: the one-pass sweep gives lambda_gap at every probe
    rng = random.Random(20260815)
    for _ in range(300):
        chain = _random_chain(rng)
        cut = Chain(chain.blocks, chain.upper, block_inf(chain.blocks[-1]))
        blown = blow_up_chain(chain, F(rng.randrange(5, 40), 4))
        for c in (chain, cut, blown):
            assert probe_ratios(c) == [
                (h, lambda_gap(c, h).value / h)
                for h in (block_inf(b) for b in c.blocks)
                if h > c.horizon
            ]


def _certified_corpus():
    families = [
        GeometricLadder(F(1), F(1, 2)),
        GeometricLadder(F(1), F(2, 3)),
        GeometricLadder(F(2), F(9, 10)),
        GeometricLadder(F(1, 3), F(1, 5)),
        GeometricLadder(F(1), F(99, 100)),
        SuperGeometricLadder(F(1), F(1, 2)),
        SuperGeometricLadder(F(1), F(1, 3)),
        SuperGeometricLadder(F(3, 2), F(2, 5)),
        SuperGeometricLadder(F(1), F(9, 10)),
        ExampleFamily(F(1, 2)),
        ExampleFamily(F(1, 3)),
        ExampleFamily(F(9, 10)),
        ExampleFamily(F(3, 4)),
        PatternLadder(F(1), (F(1, 2), F(1, 8)), F(1, 4)),
        PatternLadder(F(1), (F(1, 8),), F(1, 2)),
        PatternLadder(F(2, 3), (F(1, 16), F(1, 16)), F(1, 3)),
        PatternLadder(F(1), (F(1, 2), F(1, 2), F(1, 32)), F(1, 5)),
        UnionOf((SuperGeometricLadder(F(1), F(1, 2)), PatternLadder(F(1), (F(1, 8),), F(1, 2)))),
        UnionOf((GeometricLadder(F(1), F(1, 2)), ExampleFamily(F(1, 2)))),
        BlowupOf(ExampleFamily(F(1, 2)), F(2)),
        BlowupOf(SuperGeometricLadder(F(1), F(1, 2)), F(7, 2)),
        BlowupOf(GeometricLadder(F(1), F(3, 4)), F(3)),
    ]
    assert len(families) >= 20
    return families


def test_criterion_6_verdict_invariance_under_blowup():
    qs = (F(3, 2), F(2), F(5))
    disagreements = []
    for f in _certified_corpus():
        for q in qs:
            wrapped = BlowupOf(f, q)
            pairs = [
                ("SP", is_sp(f, 16), is_sp(wrapped, 16)),
                ("Ihat", ihat_sp_verdict(f, qs, 16), ihat_sp_verdict(wrapped, qs, 16)),
                ("I_CSP", i_csp_verdict(f, qs, 8, 16), i_csp_verdict(wrapped, qs, 8, 16)),
            ]
            for label, base, blown in pairs:
                if base.is_definite and blown.is_definite and base.value != blown.value:
                    disagreements.append((label, f, q))
    assert disagreements == []
    print(
        "criterion 6: PASS, 22 certified families x 3 factors, verdicts "
        "invariant under blow-up"
    )


# ten synthetic families built to need a window of exactly N+1 at q = 2:
# a gap merges there when its ratio exceeds 1/4, so each ratio at or below
# 1/4 leaves one more component per group
SYNTHETIC_DECOMPOSITIONS = [
    (1, PatternLadder(F(1), (F(1, 8),), F(1, 4))),
    (1, PatternLadder(F(1), (F(1, 2), F(1, 8)), F(1, 4))),
    (1, PatternLadder(F(2, 3), (F(1, 3), F(1, 16)), F(1, 5))),
    (1, PatternLadder(F(1), (F(1, 2), F(1, 2), F(1, 8)), F(1, 8))),
    (2, PatternLadder(F(1), (F(1, 8), F(1, 8)), F(1, 4))),
    (2, PatternLadder(F(1), (F(1, 2), F(1, 8), F(1, 16)), F(1, 4))),
    (2, PatternLadder(F(1), (F(1, 8), F(1, 2), F(1, 8)), F(1, 5))),
    (3, PatternLadder(F(1), (F(1, 8), F(1, 8), F(1, 8)), F(1, 4))),
    (3, PatternLadder(F(1), (F(1, 2), F(1, 8), F(1, 8), F(1, 16)), F(1, 4))),
    (3, PatternLadder(F(1), (F(1, 16), F(1, 16), F(1, 2), F(1, 8)), F(1, 6))),
]


def test_criterion_7_decomposition_oracle():
    assert len(SYNTHETIC_DECOMPOSITIONS) == 10
    bound = F(10) ** 6
    for n, family in SYNTHETIC_DECOMPOSITIONS:
        result = decompose_csp(family, n, F(2), depth=24)
        assert isinstance(result, DecompositionResult), (family, result)
        assert len(result.parts) == 2 * n + 2
        comps = cc1_components(expand(BlowupOf(family, F(2)), 24)).blocks
        gathered = []
        for part in result.parts[:-1]:
            gathered.extend(part.chain.blocks)
        assert len(gathered) == len(set(gathered))
        lo_idx, hi_idx = result.block_indices[0], result.block_indices[-1]
        assert sorted(gathered, key=lambda blk: -blk.lo) == list(comps[lo_idx:hi_idx])
        # everything at or above the verified floor is accounted for
        assert all(c.lo >= result.cover_verified_to for c in comps[:hi_idx])
        marks = gamma_divergence_indices(result, bound)
        populated = 0
        for part, mark in zip(result.parts[:-1], marks):
            assert mark is not None, (family, n)
            blocks = part.chain.blocks
            gammas = [
                blocks[i].lo / blocks[i + 1].hi for i in range(len(blocks) - 1)
            ]
            assert all(g > bound for g in gammas[mark:])
            if gammas[mark:]:
                populated += 1
        # slots past the segment length stay empty and diverge vacuously,
        # but at least one slot per window position must carry evidence
        assert populated >= n + 1, (family, n, populated)
    for n in range(1, 6):
        failure = decompose_csp(ExampleFamily(F(1, 2)), n, F(2), depth=16)
        assert isinstance(failure, HypothesisFailure)
        assert failure.window_bound == F(2) ** (n + 3)
    print(
        "criterion 7: PASS, 10 synthetic decompositions cover exactly with "
        "diverging parts; the block family fails hypotheses for every N <= 5"
    )


def test_criterion_8_porosity_oracle():
    for rho in (F(1, 2), F(9, 10), F(99, 100)):
        for x0 in (F(1), F(2, 3)):
            f = GeometricLadder(x0, rho)
            certified = f.porosity_index()
            assert certified == 1 - rho
            profile = porosity_profile(f, 30)
            assert profile.p_plus == certified
            ratios = [r for _, r in profile.samples]
            assert ratios, "scan must produce probes"
            assert max(ratios) == 1 - rho
            assert set(ratios) == {1 - rho}
    print("criterion 8: PASS, certified porosity equals the depth-30 gap scan")
