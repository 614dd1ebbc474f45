"""Verdict engines for the four porosity classes and the constructive
decomposition into completely-coverable parts.

The classes nest: CSP inside I(CSP) inside Ihat(SP) inside SP.  SP and CSP
are closed under subsets; I(CSP) and Ihat(SP) are ideals, so they are also
closed under finite unions.  Every engine returns a Verdict: Definite when a
family-level closed form settles the matter for every blow-up factor,
Empirical (value at the inspected depth plus a trend) when only finite
evidence exists.  Sampled q values alone never produce a Definite verdict: a
finite prefix cannot certify a limsup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple, Union

from .blowup import cc1_components
from .rational import INF, RationalLike, format_rational, is_finite
from .tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    UNKNOWN,
    BlowupOf,
    Chain,
    ExampleFamily,
    ExplicitChain,
    ExplicitLimit,
    GeometricLadder,
    PatternLadder,
    SuperGeometricLadder,
    TailCertificate,
    TailFamily,
    UnionOf,
    _POINT_FAMILIES,
    _merge_cutoff,
    block_inf,
    block_sup,
    blowup_certificate,
    certificate_to_json,
    component_ratios,
    expand,
    probe_ratios,
)

__all__ = [
    "Verdict",
    "verdict_to_json",
    "is_sp",
    "test_ihat_sp",
    "test_csp",
    "test_i_csp",
    "CofiniteTail",
    "DecompositionResult",
    "HypothesisFailure",
    "decompose_csp",
    "ExampleQBounds",
    "ExampleReport",
    "reproduce_example",
]

# ---------------------------------------------------------------------------
# empirical cutoffs (documented so Empirical verdicts are reproducible; the
# probe-ratio cutoffs SP_EVIDENCE_RATIO and PROBE_WINDOW live in tailset)

# trend classification looks at this many trailing values
TREND_WINDOW = 12
# a windowed gap maximum must clear this to count as diverging evidence
GAMMA_GROWTH_CUT = Fraction(1000)
# candidate cover factor for the empirical ladder search
COVER_Q = Fraction(4)
# successive cover-cluster heads must shrink below this ratio at depth
HEAD_RATIO_CUT = Fraction(1, 16)


def classify_trend(values) -> str:
    """Coarse trend of the trailing values: monotone-increasing when they
    only ever go up, bounded when they hold still or settle downward,
    oscillating otherwise."""
    vals = list(values)[-TREND_WINDOW:]
    if len(vals) < 2:
        return "bounded"
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
        return "monotone-increasing"
    if all(d <= 0 for d in diffs):
        return "bounded"
    return "oscillating"


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    """Outcome of an asymptotic membership test.

    kind "definite": value holds for the true infinite set, backed by a
    closed-form certificate and a derivation note.  kind "empirical": value
    observed at the stated depth, with the trend of the certifying quantity
    (named in the note) over the deepest samples.
    """

    kind: str
    value: bool
    certificate: TailCertificate
    note: str
    depth: Optional[int] = None
    trend: Optional[str] = None

    @staticmethod
    def definite(value: bool, certificate: TailCertificate, note: str) -> "Verdict":
        if certificate is UNKNOWN:
            raise ValueError("a definite verdict needs a real certificate")
        return Verdict("definite", value, certificate, note)

    @staticmethod
    def empirical(value: bool, depth: int, trend: str, note: str) -> "Verdict":
        return Verdict("empirical", value, UNKNOWN, note, depth=depth, trend=trend)

    @property
    def is_definite(self) -> bool:
        return self.kind == "definite"


def verdict_to_json(v: Verdict) -> dict:
    if v.is_definite:
        return {
            "kind": v.kind,
            "value": v.value,
            "certificate": certificate_to_json(v.certificate),
            "note": v.note,
        }
    return {
        "kind": v.kind,
        "value_at_depth": v.value,
        "depth": v.depth,
        "trend": v.trend,
        "note": v.note,
    }


def _require_accumulation(f: TailFamily) -> None:
    if not f.has_zero_accumulation:
        raise ValueError("0 is not an accumulation point of the family")


def _bounded_away(f: TailFamily) -> bool:
    # a completely known finite chain keeps clear of 0; such sets belong to
    # every class at once
    return isinstance(f, ExplicitChain) and f.chain.horizon == 0


_TRIVIAL_NOTE = "bounded away from 0: the whole tail (0, min E) is one free gap"


def _via(inner: Verdict, prefix: str) -> Verdict:
    # a verdict on the base family carried over to a family built from it
    return replace(inner, note=prefix + inner.note)


def _sunk_by_part(part_verdicts, rule: str) -> Optional[Verdict]:
    # for a class closed under subsets, a part certified outside it puts the
    # union outside too
    for i, pv in enumerate(part_verdicts):
        if pv.is_definite and not pv.value:
            return Verdict.definite(False, pv.certificate, f"{rule}; part {i}: " + pv.note)
    return None


def _windowed_maxima(gammas, m: int) -> list:
    # maxima of the gap ratios over every window of m+1 consecutive entries
    return [max(gammas[i : i + m + 1]) for i in range(len(gammas) - m)]


def _width_record_early(betas) -> bool:
    # bounded-width evidence: the record width ratio was already attained in
    # the shallow half
    split = len(betas) // 2
    return split >= 1 and max(betas[split:]) <= max(betas[:split])


# ---------------------------------------------------------------------------
# SP


def _sp_verdict(f: TailFamily, depth: int) -> Verdict:
    if _bounded_away(f):
        return Verdict.definite(True, ExplicitLimit(INF, True), _TRIVIAL_NOTE)
    if isinstance(f, GeometricLadder):
        return Verdict.definite(
            False,
            ExplicitLimit(1 / f.rho, False),
            "free gaps (x_{n+1}, x_n) all have width ratio 1/rho; "
            f"the porosity index is pinned at 1 - rho = {format_rational(1 - f.rho)} < 1",
        )
    if isinstance(f, SuperGeometricLadder):
        return Verdict.definite(
            True,
            ExplicitLimit(INF, True),
            "gap ratio x_{n+1}/x_n = rho^(n+1) -> 0: relative gaps open completely",
        )
    if isinstance(f, ExampleFamily):
        return Verdict.definite(
            True,
            ExplicitLimit(INF, True),
            "the joint below block j has gap ratio alpha^(j+1) -> 0",
        )
    if isinstance(f, PatternLadder):
        return Verdict.definite(
            True,
            ExplicitLimit(INF, True),
            "the joint below group g has gap ratio prod(ratios) * decay^(g+1) -> 0",
        )
    if isinstance(f, BlowupOf):
        return _via(_sp_verdict(f.base, depth), "via blow-up invariance of full porosity: ")
    if isinstance(f, UnionOf):
        sunk = _sunk_by_part(
            [_sp_verdict(p, depth) for p in f.parts],
            "supersets of a non-porous set are non-porous",
        )
        if sunk is not None:
            return sunk
        # full porosity is not preserved by unions, but the ideal hull inside
        # it is: a union certified there is certified here
        hull = _ihat_verdict(f, (Fraction(2),), depth)
        if hull.is_definite and hull.value:
            return Verdict.definite(
                True, hull.certificate, "contained in the ideal hull: " + hull.note
            )
        return _empirical_sp(f, depth)
    return _empirical_sp(f, depth)


def _empirical_sp(f: TailFamily, depth: int) -> Verdict:
    ratios = [r for _, r in probe_ratios(expand(f, depth))]
    if not ratios:
        return Verdict.empirical(False, depth, "bounded", "no probes above the horizon")
    deepest = ratios[-PROBE_WINDOW:]
    value = max(deepest) >= SP_EVIDENCE_RATIO
    return Verdict.empirical(
        value,
        depth,
        classify_trend(ratios),
        "trend of the gap-to-height probe ratios; "
        f"deepest window peaks at {format_rational(max(deepest))}",
    )


def is_sp(f: TailFamily, depth: int = 32) -> Verdict:
    """Is the set strongly porous at 0 (relative free gaps approaching the
    whole height)?"""
    _require_accumulation(f)
    return _sp_verdict(f, depth)


# ---------------------------------------------------------------------------
# Ihat(SP)


def _ihat_verdict(f: TailFamily, q_list, depth: int) -> Verdict:
    if _bounded_away(f):
        return Verdict.definite(True, ExplicitLimit(INF, True), _TRIVIAL_NOTE)
    if isinstance(f, SuperGeometricLadder):
        return Verdict.definite(
            True,
            blowup_certificate(f, _representative_q(q_list)),
            "for every q > 1 the blown points eventually separate: the chain is "
            "infinite and every width ratio settles at q^2 (q0 = 1)",
        )
    if isinstance(f, ExampleFamily):
        return Verdict.definite(
            True,
            blowup_certificate(f, _representative_q(q_list)),
            "for every q > 1 each late block contributes one cluster plus isolated "
            "components; width ratios stay below a bound depending only on alpha "
            "and q (q0 = 1)",
        )
    if isinstance(f, PatternLadder):
        return Verdict.definite(
            True,
            blowup_certificate(f, _representative_q(q_list)),
            "for every q > 1 the blown groups repeat an identical finite pattern: "
            "infinitely many components with periodic width ratios (q0 = 1)",
        )
    if isinstance(f, GeometricLadder):
        return Verdict.definite(
            False,
            ExplicitLimit(INF, False),
            "any q with q^2 * rho > 1 fuses all points into a single component, "
            "so the component chain is finite (the set is not even porous: "
            f"index {format_rational(1 - f.rho)})",
        )
    if isinstance(f, BlowupOf):
        return _via(_ihat_verdict(f.base, q_list, depth), "via blow-up invariance of the class: ")
    if isinstance(f, UnionOf):
        return _combine_ideal(f, [_ihat_verdict(p, q_list, depth) for p in f.parts],
                              lambda: _empirical_ihat(f, q_list, depth))
    return _empirical_ihat(f, q_list, depth)


def _representative_q(q_list) -> Fraction:
    qs = [Fraction(q) for q in q_list]
    if not qs or any(q <= 1 for q in qs):
        raise ValueError("need at least one q > 1")
    return min(qs)


def _combine_ideal(f, part_verdicts, fallback) -> Verdict:
    # both ideal classes are closed downward and under finite unions
    sunk = _sunk_by_part(part_verdicts, "an ideal is closed downward")
    if sunk is not None:
        return sunk
    if all(pv.is_definite for pv in part_verdicts):
        first = part_verdicts[0]
        return Verdict.definite(
            True,
            first.certificate,
            "an ideal is closed under finite unions and every part belongs: "
            + "; ".join(f"part {i}: {pv.note}" for i, pv in enumerate(part_verdicts)),
        )
    return fallback()


def _empirical_ihat(f: TailFamily, q_list, depth: int) -> Verdict:
    _representative_q(q_list)
    value = True
    notes = []
    trend = "bounded"
    for q in q_list:
        q = Fraction(q)
        comps = cc1_components(expand(BlowupOf(f, q), depth))
        shallow = cc1_components(expand(BlowupOf(f, q), max(1, depth // 2)))
        growing = len(comps) > len(shallow)
        betas, _ = component_ratios(comps)
        stable = _width_record_early(betas)
        value = value and growing and stable
        trend = classify_trend(betas)
        notes.append(
            f"q={format_rational(q)}: {len(comps)} components"
            f" ({'growing' if growing else 'stalled'}),"
            f" width-ratio record {'early' if stable else 'still moving'}"
        )
    return Verdict.empirical(
        value, depth, trend, "trend of component width ratios; " + "; ".join(notes)
    )


def test_ihat_sp(f: TailFamily, q_list=(Fraction(2),), depth: int = 32) -> Verdict:
    """Is the set in the intersection of maximal ideals inside the porous
    sets?  Characterized by: for every q > 1 the component chain of the
    blow-up in (0, 1] is infinite and its width ratios stay bounded."""
    _require_accumulation(f)
    return _ihat_verdict(f, q_list, depth)


# ---------------------------------------------------------------------------
# CSP


def _csp_verdict(f: TailFamily, depth: int) -> Verdict:
    if _bounded_away(f):
        return Verdict.definite(True, ExplicitLimit(INF, True), _TRIVIAL_NOTE)
    if isinstance(f, SuperGeometricLadder):
        return Verdict.definite(
            True,
            ExplicitLimit(INF, True),
            "the points are their own cover ladder: x_{n+1}/x_n = rho^(n+1) -> 0 "
            "and any q > 1 makes (x/q, qx) swallow x",
        )
    if isinstance(f, PatternLadder):
        span = Fraction(1)
        for r in f.ratios:
            span *= r
        return Verdict.definite(
            True,
            ExplicitLimit(INF, True),
            "cover ladder at the group heads with q = 2/prod(ratios) = "
            f"{format_rational(2 / span)}: each interval swallows its whole group "
            "and successive heads shrink by decay^(g+1) -> 0",
        )
    if isinstance(f, GeometricLadder):
        return Verdict.definite(
            False,
            ExplicitLimit(1 / f.rho, False),
            "consecutive points keep the fixed ratio rho, so any cover interval "
            "holds boundedly many of them and successive cover centers cannot "
            "shrink to ratio 0",
        )
    if isinstance(f, ExampleFamily):
        return Verdict.definite(
            False,
            ExplicitLimit(1 / f.alpha, False),
            "block heads repeat the gap ratio alpha: ever longer stretches force "
            "cover centers with ratio at least alpha infinitely often",
        )
    if isinstance(f, BlowupOf):
        return _via(
            _csp_verdict(f.base, depth),
            "a cover witness rescales under blow-up (q' = q * q_w): ",
        )
    if isinstance(f, UnionOf):
        sunk = _sunk_by_part(
            [_csp_verdict(p, depth) for p in f.parts],
            "subsets of completely porous sets are completely porous, so a "
            "bad part sinks the union",
        )
        if sunk is not None:
            return sunk
        # complete porosity is not closed under unions: keep it empirical
        return _empirical_csp(f, depth)
    return _empirical_csp(f, depth)


def _empirical_csp(f: TailFamily, depth: int) -> Verdict:
    chain = expand(f, depth)
    blocks = chain.blocks
    if not blocks:
        return Verdict.empirical(True, depth, "bounded", "nothing known above the horizon")
    # greedy ladder search with the fixed candidate factor COVER_Q: a block
    # joins the running cluster while the gap stays bridgeable and the span
    # stays coverable by one interval (both within COVER_Q^2); the witness
    # looks real when successive cluster heads shrink ever faster
    cap = COVER_Q * COVER_Q
    clusters = []
    head = block_sup(blocks[0])
    low = block_inf(blocks[0])
    for b in blocks[1:]:
        if low <= cap * block_sup(b) and head <= cap * block_inf(b):
            low = block_inf(b)
        else:
            clusters.append(head)
            head, low = block_sup(b), block_inf(b)
    clusters.append(head)
    ratios = [clusters[i + 1] / clusters[i] for i in range(len(clusters) - 1)]
    growth = [1 / r for r in ratios]
    value = (
        len(ratios) >= 3
        and ratios[-1] <= HEAD_RATIO_CUT
        and classify_trend(growth) == "monotone-increasing"
    )
    return Verdict.empirical(
        value,
        depth,
        classify_trend(growth),
        f"trend of inverse cover-head ratios with candidate factor "
        f"{format_rational(COVER_Q)}; {len(clusters)} clusters",
    )


def test_csp(f: TailFamily, depth: int = 32) -> Verdict:
    """Is the set completely porous: coverable near 0 by intervals
    (x_n/q, q*x_n) around a ladder with x_{n+1}/x_n -> 0?"""
    return _csp_verdict(f, depth)


# ---------------------------------------------------------------------------
# I(CSP)


def _window_liminf_exact(alpha: Fraction, q: Fraction, M: int) -> Fraction:
    # exact liminf of the windowed gap maxima for the blown block family:
    # the flattest windows sit deep inside a block, right after the cluster
    k = _merge_cutoff(alpha, q)
    return alpha ** (-(k + M + 1)) / (q * q)


def _icsp_verdict(f: TailFamily, q_list, M_max: int, depth: int) -> Verdict:
    if _bounded_away(f):
        return Verdict.definite(True, ExplicitLimit(INF, True), _TRIVIAL_NOTE)
    if isinstance(f, SuperGeometricLadder):
        return Verdict.definite(
            True,
            blowup_certificate(f, _representative_q(q_list)),
            "M = 0 works for every q > 1: the gap ratios rho^-(n+1)/q^2 diverge "
            "on their own (q0 = 1)",
        )
    if isinstance(f, PatternLadder):
        single_m = len(f.ratios)
        return Verdict.definite(
            True,
            blowup_certificate(f, _representative_q(q_list)),
            f"M = {single_m} works for every q > 1: each group contributes at "
            "most M bounded gap ratios before the diverging joint, so every "
            "window of size M+1 catches a joint (q0 = 1)",
        )
    if isinstance(f, ExampleFamily):
        q0 = _representative_q(q_list)
        return Verdict.definite(
            False,
            blowup_certificate(f, q0),
            "no (q, M) works: windows of any size M+1 land entirely inside a "
            "block infinitely often, where the gap maxima stay at "
            "alpha^-(k*+M+1)/q^2 < infinity",
        )
    if isinstance(f, GeometricLadder):
        return Verdict.definite(
            False,
            ExplicitLimit(INF, False),
            "below the class of porous sets nothing qualifies: the set is not "
            f"porous (index {format_rational(1 - f.rho)}); for small q the gap "
            "ratios are even constant at 1/(q^2 rho)",
        )
    if isinstance(f, BlowupOf):
        return _via(
            _icsp_verdict(f.base, q_list, M_max, depth), "via blow-up invariance of the class: "
        )
    if isinstance(f, UnionOf):
        return _combine_ideal(
            f,
            [_icsp_verdict(p, q_list, M_max, depth) for p in f.parts],
            lambda: _empirical_icsp(f, q_list, M_max, depth),
        )
    return _empirical_icsp(f, q_list, M_max, depth)


def _empirical_icsp(f: TailFamily, q_list, M_max: int, depth: int) -> Verdict:
    _representative_q(q_list)
    value = True
    notes = []
    trend = "bounded"
    for q in q_list:
        q = Fraction(q)
        _, gammas = component_ratios(cc1_components(expand(BlowupOf(f, q), depth)))
        found = None
        for m_try in range(M_max + 1):
            if len(gammas) <= m_try + 3:
                break
            window = _windowed_maxima(gammas, m_try)
            if (
                classify_trend(window) == "monotone-increasing"
                and window[-1] >= GAMMA_GROWTH_CUT
            ):
                found = m_try
                trend = classify_trend(window)
                break
        if found is None:
            value = False
            trend = classify_trend(gammas)
            notes.append(f"q={format_rational(q)}: no window up to {M_max} diverges")
        else:
            notes.append(f"q={format_rational(q)}: window M={found} diverges")
    return Verdict.empirical(
        value, depth, trend, "trend of windowed gap maxima; " + "; ".join(notes)
    )


def test_i_csp(
    f: TailFamily, q_list=(Fraction(2),), M_max: int = 8, depth: int = 32
) -> Verdict:
    """Is the set a finite union of completely porous sets?  Characterized
    by: some window size M and threshold q0 make the windowed maxima of the
    blown gap ratios diverge for every q > q0, with bounded width ratios."""
    _require_accumulation(f)
    return _icsp_verdict(f, q_list, M_max, depth)


# ---------------------------------------------------------------------------
# the constructive decomposition


@dataclass(frozen=True)
class CofiniteTail:
    """The symbolic set {0} union (cut, infinity): everything from the cut
    upward plus the origin.  Trivially coverable, carried as-is."""

    cut: Fraction


@dataclass(frozen=True)
class HypothesisFailure:
    """Why the decomposition hypotheses do not hold at this depth; when the
    obstruction is a certified bound on the windowed gap maxima, its value
    is included."""

    reason: str
    n: int
    q: Fraction
    depth: int
    window_bound: Optional[RationalLike] = None


@dataclass(frozen=True)
class DecompositionResult:
    """2N+2 parts: 2N+1 interval subsequences of the component chain plus a
    cofinite tail.  block_indices holds the separating component indices
    (1-based, one per block of N+1 components); the union of all parts
    covers the source set exactly above cover_verified_to."""

    parts: Tuple[object, ...]
    n: int
    q: Fraction
    block_indices: Tuple[int, ...]
    cover_verified_to: Fraction
    part_verdicts: Tuple[Verdict, ...]

    def gamma_divergence_indices(self, bound) -> Tuple[Optional[int], ...]:
        """For each interval part, the first position in its gap-ratio
        sequence from which every later value exceeds `bound` (None when the
        sequence never clears it, 0 when it always does)."""
        out = []
        for part in self.parts[:-1]:
            _, gammas = component_ratios(part.chain.blocks)
            pos = 0
            for i, g in enumerate(gammas):
                if g <= bound:
                    pos = i + 1
            out.append(pos if pos < len(gammas) or not gammas else None)
        return tuple(out)


def decompose_csp(
    f: TailFamily, n: int, q, depth: int = 32
) -> Union[DecompositionResult, HypothesisFailure]:
    """Split the blown component chain into 2N+2 completely-coverable parts.

    Components are grouped into consecutive blocks of N+1; inside each block
    the index with the widest following gap separates the segments.  Each
    segment has between 1 and 2N+1 components; slot j collects the j-th
    component of every segment, so the slots never share a component.  The
    final part is the cofinite tail above the first separator.

    Requires: width ratios bounded and the size-(N+1) windowed gap maxima
    diverging.  A failure is returned, not raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    if depth < 1:
        raise ValueError("depth must be at least 1")

    failure = _certified_hypothesis_failure(f, n, q, depth)
    if failure is not None:
        return failure

    blown = expand(BlowupOf(f, q), depth)
    comps = cc1_components(blown)
    t = len(comps)
    if t < 3 * (n + 1):
        return HypothesisFailure(
            f"only {t} components at this depth; need {3 * (n + 1)}", n, q, depth
        )

    betas, gammas = component_ratios(comps)  # gammas[i - 1] follows component i
    if not isinstance(f, _POINT_FAMILIES):
        # no closed form: check the windowed maxima empirically at depth
        maxima = _windowed_maxima(gammas, n)
        if classify_trend(maxima) != "monotone-increasing" or maxima[-1] < GAMMA_GROWTH_CUT:
            return HypothesisFailure(
                "windowed gap maxima show no divergence at this depth",
                n,
                q,
                depth,
                window_bound=min(maxima[-TREND_WINDOW:]),
            )
        if not _width_record_early(betas):
            return HypothesisFailure("width ratios keep setting records", n, q, depth)

    blocks = (t - 1) // (n + 1)
    seps = []
    for k in range(blocks):
        lo = k * (n + 1) + 1
        window = range(lo, lo + n + 1)
        seps.append(max(window, key=lambda i: (gammas[i - 1], -i)))

    segments = [list(range(seps[k] + 1, seps[k + 1] + 1)) for k in range(blocks - 1)]
    for seg in segments:
        assert 1 <= len(seg) <= 2 * n + 1

    slots = [[] for _ in range(2 * n + 1)]
    covered = set()
    for seg in segments:
        for j, idx in enumerate(seg):
            slots[j].append(idx)
        covered.update(seg)
    # exact cover on the known region: the segments tile the indices between
    # the first and last separator, the tail holds everything above
    assert covered == set(range(seps[0] + 1, seps[-1] + 1))
    assert all(comps[i].lo >= comps[seps[0] - 1].lo for i in range(seps[0]))

    parts = []
    for indices in slots:
        chosen = tuple(comps[i - 1] for i in indices)
        upper = chosen[0].hi if chosen else comps[0].hi
        parts.append(ExplicitChain(Chain(chosen, upper=upper, horizon=blown.horizon)))
    parts.append(CofiniteTail(comps[seps[0] - 1].lo))

    verdicts = tuple(test_csp(p, depth) for p in parts[:-1])
    return DecompositionResult(
        parts=tuple(parts),
        n=n,
        q=q,
        block_indices=tuple(seps),
        cover_verified_to=comps[seps[-1] - 1].lo,
        part_verdicts=verdicts,
    )


def _certified_hypothesis_failure(
    f: TailFamily, n: int, q: Fraction, depth: int
) -> Optional[HypothesisFailure]:
    # obstructions the point families' closed forms certify at every depth
    if isinstance(f, ExampleFamily):
        m = _smallest_exponent(f.alpha, q)
        return HypothesisFailure(
            "windowed gap maxima stay bounded: windows of size N+1 land inside "
            "a block infinitely often",
            n,
            q,
            depth,
            window_bound=(1 / f.alpha) ** (m + n + 1),
        )
    if isinstance(f, GeometricLadder):
        if q * q * f.rho > 1:
            return HypothesisFailure(
                "all points fuse into one component", n, q, depth
            )
        return HypothesisFailure(
            "gap ratios are constant", n, q, depth, window_bound=1 / (q * q * f.rho)
        )
    if isinstance(f, PatternLadder):
        cert = blowup_certificate(f, q)
        needed = len(cert.beta_pattern) - 1
        if n < needed:
            slack = max(g for g in cert.gamma_pattern if is_finite(g))
            return HypothesisFailure(
                f"each group carries {needed} bounded gap ratios in a row; windows "
                f"of size {n + 1} miss the diverging joint infinitely often",
                n,
                q,
                depth,
                window_bound=slack,
            )
    return None


# ---------------------------------------------------------------------------
# the worked example


def _smallest_exponent(alpha: Fraction, q: Fraction) -> int:
    # smallest positive m with q < (1/alpha)^m
    m = 1
    power = 1 / alpha
    while power <= q:
        power /= alpha
        m += 1
    return m


@dataclass(frozen=True)
class ExampleQBounds:
    """Certified bounds for one blow-up factor: the width-ratio bound
    sum_{k=0..m} alpha^-k with the smallest m satisfying q < (1/alpha)^m,
    the exact width-ratio limsup, and for each window size M both the
    reported liminf bound (1/alpha)^(m+M+1) and the exact liminf."""

    q: Fraction
    m: int
    beta_limsup: Fraction
    beta_limsup_exact: Fraction
    window_liminf: Tuple[Fraction, ...]
    window_liminf_exact: Tuple[Fraction, ...]


@dataclass(frozen=True)
class ExampleReport:
    alpha: Fraction
    depth: int
    ihat_sp: Verdict
    i_csp: Verdict
    bounds: Tuple[ExampleQBounds, ...]


def reproduce_example(alpha, depth: int, q_list, M_max: int = 8) -> ExampleReport:
    """Evaluate the separating family: inside the ideal hull of the porous
    sets, outside the finite unions of completely porous ones, with the
    certified bounds spelled out for every requested q and window size."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    f = ExampleFamily(alpha)
    ihat = test_ihat_sp(f, q_list, depth)
    icsp = test_i_csp(f, q_list, M_max, depth)
    if not (ihat.is_definite and ihat.value and icsp.is_definite and not icsp.value):
        raise RuntimeError("the separating example lost its certificates")
    bounds = []
    for q in q_list:
        q = Fraction(q)
        m = _smallest_exponent(alpha, q)
        k = _merge_cutoff(alpha, q)
        bounds.append(
            ExampleQBounds(
                q=q,
                m=m,
                beta_limsup=sum((1 / alpha) ** j for j in range(m + 1)),
                beta_limsup_exact=q * q * alpha ** (-(k * (k + 1) // 2)),
                window_liminf=tuple(
                    (1 / alpha) ** (m + M + 1) for M in range(M_max + 1)
                ),
                window_liminf_exact=tuple(
                    _window_liminf_exact(alpha, q, M) for M in range(M_max + 1)
                ),
            )
        )
    return ExampleReport(alpha, depth, ihat, icsp, tuple(bounds))
