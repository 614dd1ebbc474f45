"""Verdict engines for the four porosity classes and the constructive
decomposition into completely-coverable parts.

The classes nest: CSP inside I(CSP) inside Ihat(SP) inside SP.  SP and CSP
are closed under subsets; I(CSP) and Ihat(SP) are ideals, so they are also
closed under finite unions.  Every engine returns a Verdict: Definite when a
family-level closed form settles the matter for every blow-up factor,
Empirical (value at the inspected depth plus a trend) when only finite
evidence exists.  Sampled q values alone never produce a Definite verdict: a
finite prefix cannot certify a limsup.

A verdict is certified first: closed forms and the combinator rules (blow-up
invariance, a part sinking a union, ideal closure, the SP ideal hull) read
only the certified verdicts of the parts.  When none applies, the empirical
fallback runs once, on the family asked about (the base of a blow-up), never
on the parts of a union.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from ._record import Record
from .blowup import cc1_components
from .rational import INF, RationalLike, _ratio, format_rational
from .tailset import (
    PROBE_WINDOW,
    SP_EVIDENCE_RATIO,
    UNKNOWN,
    BlowupOf,
    ExampleFamily,
    ExplicitChain,
    ExplicitLimit,
    TailCertificate,
    TailFamily,
    UnionOf,
    _PointFamily,
    _View,
    _chain,
    _check_q,
    _gap_ratios,
    _width_ratios,
    certificate_to_json,
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
    oscillating otherwise.  Neighbours are compared, never subtracted."""
    vals = list(values)[-TREND_WINDOW:]
    pairs = list(zip(vals, vals[1:]))
    if all(a <= b for a, b in pairs) and any(a < b for a, b in pairs):
        return "monotone-increasing"
    if all(a >= b for a, b in pairs):
        return "bounded"
    return "oscillating"


# ---------------------------------------------------------------------------
# verdicts


class Verdict(Record):
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
    depth: int | None = None
    trend: str | None = None

    @staticmethod
    def definite(value: bool, certificate: TailCertificate, note: str) -> "Verdict":
        if certificate is UNKNOWN:
            raise ValueError("a definite verdict needs a real certificate")
        return Verdict("definite", value, certificate, note, None, None)

    @staticmethod
    def empirical(value: bool, depth: int, trend: str, note: str) -> "Verdict":
        return Verdict("empirical", value, UNKNOWN, note, depth, trend)

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


def _windowed_maxima(gammas, m: int) -> list:
    # maxima of the gap ratios over every window of m+1 consecutive entries
    return [max(gammas[i : i + m + 1]) for i in range(len(gammas) - m)]


def _width_record_early(betas) -> bool:
    # bounded-width evidence: the record width ratio was already attained in
    # the shallow half
    split = len(betas) // 2
    return split >= 1 and max(betas[split:]) <= max(betas[:split])


# ---------------------------------------------------------------------------
# one ladder for the four classes: a point family answers by its closed
# form; the combinators' rules below are stated once for every class


# what an engine was asked: blow-up factors (a tuple, or None), largest
# window offset M and depth (SP and CSP read only the depth)
_Query = namedtuple("_Query", "q_list M_max depth")


def _query(depth: int, q_list=None, M_max: int = 0) -> _Query:
    """The one argument check of the four engines: a q list, when the class
    reads one, holds at least one q and every q exceeds 1; depth is at
    least 1, and M at least 0."""
    if q_list is not None:
        q_list = tuple(map(Fraction, q_list))
        if not q_list or any(q <= 1 for q in q_list):
            raise ValueError("need at least one q > 1")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if M_max < 0:
        raise ValueError("M must be at least 0")
    return _Query(q_list, M_max, depth)


class _ClassRules(Record):
    """How one class is decided: the point families' rule, the note a
    blow-up puts in front, the rule named when a part sinks a union, whether
    the class is an ideal (closed under finite unions), and the empirical
    fallback."""

    closed_form: Callable
    blowup_note: str
    sink_note: str
    ideal: bool
    empirical: Callable


def _peel(c: _ClassRules, f: TailFamily) -> tuple[str, TailFamily]:
    """Every class is invariant under blow-up, so the base of a blow-up
    decides; each layer stripped puts the class's note in front."""
    prefix = ""
    while type(f) is BlowupOf:
        prefix += c.blowup_note
        f = f.base
    return prefix, f


def _decide(c: _ClassRules, f: TailFamily, query: _Query) -> Verdict:
    # the one empirical fallback runs on the family asked about, and a
    # blow-up carries the base's evidence over
    prefix, f = _peel(c, f)
    verdict = _certified(c, f, query) or c.empirical(f, query)
    return verdict._replace(note=prefix + verdict.note) if prefix else verdict


def _certified(c: _ClassRules, f: TailFamily, query: _Query) -> Verdict | None:
    """The Definite verdict a closed form or a combinator rule gives, else
    None."""
    prefix, f = _peel(c, f)
    combinator = _COMBINATORS.get(type(f))
    if combinator is None:
        verdict = Verdict.definite(*c.closed_form(f, query))
    else:
        verdict = combinator(c, f, query)
    if verdict is None or not prefix:
        return verdict
    return verdict._replace(note=prefix + verdict.note)


_TRIVIAL_NOTE = "bounded away from 0: the whole tail (0, min E) is one free gap"


def _explicit(c: _ClassRules, f: ExplicitChain, query: _Query) -> Verdict | None:
    # a completely known finite chain keeps clear of 0; such sets belong to
    # every class at once
    if f.chain.horizon == 0:
        return Verdict.definite(True, ExplicitLimit(INF, True), _TRIVIAL_NOTE)
    return None


def _union(c: _ClassRules, f: UnionOf, query: _Query) -> Verdict | None:
    # only certified part verdicts decide anything here, so no part runs its
    # empirical fallback
    verdicts = [_certified(c, p, query) for p in f.parts]
    # every class is closed under subsets, so a part certified outside it
    # puts the union outside too
    for i, pv in enumerate(verdicts):
        if pv is not None and not pv.value:
            return Verdict.definite(False, pv.certificate, f"{c.sink_note}; part {i}: " + pv.note)
    if c.ideal and None not in verdicts:
        # a part bounded away from 0 has no tail at 0 to certify
        tails = [pv.certificate for p, pv in zip(f.parts, verdicts) if p.has_zero_accumulation]
        return Verdict.definite(
            True,
            (tails or [verdicts[0].certificate])[0],
            "an ideal is closed under finite unions and every part belongs: "
            + "; ".join(f"part {i}: {pv.note}" for i, pv in enumerate(verdicts)),
        )
    if c is _SP:
        # full porosity is not preserved by unions, but the ideal hull inside
        # it is: a union certified there is certified here
        hull = _certified(_IHAT_SP, f, query._replace(q_list=(Fraction(2),)))
        if hull is not None and hull.value:
            return Verdict.definite(
                True, hull.certificate, "contained in the ideal hull: " + hull.note
            )
    return None


_COMBINATORS = {ExplicitChain: _explicit, UnionOf: _union}


# ---------------------------------------------------------------------------
# SP


# the empirical SP verdict reads no probe above these
_SP_PROBES = max(TREND_WINDOW, PROBE_WINDOW)


def _empirical_sp(f: TailFamily, query: _Query) -> Verdict:
    depth = query.depth
    ratios = [r for _, r in probe_ratios(expand(f, depth), _SP_PROBES)]
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


_SP = _ClassRules(
    lambda f, query: f.sp_rule(),
    "via blow-up invariance of full porosity: ",
    "supersets of a non-porous set are non-porous",
    False,
    _empirical_sp,
)


def is_sp(f: TailFamily, depth: int = 32) -> Verdict:
    """Is the set strongly porous at 0 (relative free gaps approaching the
    whole height)?"""
    _require_accumulation(f)
    return _decide(_SP, f, _query(depth))


# ---------------------------------------------------------------------------
# Ihat(SP)


def _empirical_ihat(f: TailFamily, query: _Query) -> Verdict:
    q_list, _, depth = query
    value = True
    notes = []
    trend = "bounded"
    for q in q_list:
        comps = cc1_components(expand(BlowupOf(f, q), depth))
        shallow = cc1_components(expand(BlowupOf(f, q), max(1, depth // 2)))
        growing = len(comps.blocks) > len(shallow.blocks)
        betas = _width_ratios(comps)
        stable = _width_record_early(betas)
        value = value and growing and stable
        trend = classify_trend(betas)
        notes.append(
            f"q={format_rational(q)}: {len(comps.blocks)} components"
            f" ({'growing' if growing else 'stalled'}),"
            f" width-ratio record {'early' if stable else 'still moving'}"
        )
    return Verdict.empirical(
        value, depth, trend, "trend of component width ratios; " + "; ".join(notes)
    )


_IDEAL_SINK = "an ideal is closed downward"
_IHAT_SP = _ClassRules(
    lambda f, query: f.ihat_rule(min(query.q_list)),
    "via blow-up invariance of the class: ",
    _IDEAL_SINK,
    True,
    _empirical_ihat,
)


def test_ihat_sp(f: TailFamily, q_list=(Fraction(2),), depth: int = 32) -> Verdict:
    """Is the set in the intersection of maximal ideals inside the porous
    sets?  Characterized by: for every q > 1 the component chain of the
    blow-up in (0, 1] is infinite and its width ratios stay bounded."""
    _require_accumulation(f)
    return _decide(_IHAT_SP, f, _query(depth, q_list))


# ---------------------------------------------------------------------------
# CSP


def _empirical_csp(f: TailFamily, query: _Query) -> Verdict:
    depth = query.depth
    chain = expand(f, depth)
    if not chain.blocks:
        return Verdict.empirical(True, depth, "bounded", "nothing known above the horizon")
    # greedy ladder search with the fixed candidate factor COVER_Q: a block
    # joins the running cluster while the gap stays bridgeable and the span
    # stays coverable by one interval (both within COVER_Q^2); the witness
    # looks real when successive cluster heads shrink ever faster (on ints)
    _, lo, hi, _ = chain._view
    n, d = (COVER_Q * COVER_Q).as_integer_ratio()
    clusters = []
    head, low = hi[0], lo[0]
    for k in range(1, len(lo)):
        if low * d <= n * hi[k] and head * d <= n * lo[k]:
            low = lo[k]
        else:
            clusters.append(head)
            head, low = hi[k], lo[k]
    clusters.append(head)
    growth = list(map(_ratio, clusters, clusters[1:]))
    trend = classify_trend(growth)
    value = (
        len(growth) >= 3
        and clusters[-1] * HEAD_RATIO_CUT.denominator <= HEAD_RATIO_CUT.numerator * clusters[-2]
        and trend == "monotone-increasing"
    )
    return Verdict.empirical(
        value,
        depth,
        trend,
        f"trend of inverse cover-head ratios with candidate factor "
        f"{format_rational(COVER_Q)}; {len(clusters)} clusters",
    )


# complete porosity is not closed under unions: a union no part sinks
# stays empirical
_CSP = _ClassRules(
    lambda f, query: f.csp_rule(),
    "a cover witness rescales under blow-up (q' = q * q_w): ",
    "subsets of completely porous sets are completely porous, so a "
    "bad part sinks the union",
    False,
    _empirical_csp,
)


def test_csp(f: TailFamily, depth: int = 32) -> Verdict:
    """Is the set completely porous: coverable near 0 by intervals
    (x_n/q, q*x_n) around a ladder with x_{n+1}/x_n -> 0?"""
    return _decide(_CSP, f, _query(depth))


# ---------------------------------------------------------------------------
# I(CSP)


def _empirical_icsp(f: TailFamily, query: _Query) -> Verdict:
    q_list, M_max, depth = query
    value = True
    notes = []
    trend = "bounded"
    for q in q_list:
        gammas = _gap_ratios(cc1_components(expand(BlowupOf(f, q), depth)))
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


_I_CSP = _ClassRules(
    lambda f, query: f.icsp_rule(min(query.q_list)),
    "via blow-up invariance of the class: ",
    _IDEAL_SINK,
    True,
    _empirical_icsp,
)


def test_i_csp(
    f: TailFamily, q_list=(Fraction(2),), M_max: int = 8, depth: int = 32
) -> Verdict:
    """Is the set a finite union of completely porous sets?  Characterized
    by: some window size M and threshold q0 make the windowed maxima of the
    blown gap ratios diverge for every q > q0, with bounded width ratios."""
    _require_accumulation(f)
    return _decide(_I_CSP, f, _query(depth, q_list, M_max))


# ---------------------------------------------------------------------------
# the constructive decomposition


class CofiniteTail(Record):
    """The symbolic set {0} union (cut, infinity): everything from the cut
    upward plus the origin.  Trivially coverable, carried as-is."""

    cut: Fraction


class HypothesisFailure(Record):
    """Why the decomposition hypotheses do not hold at this depth; when the
    obstruction is a certified bound on the windowed gap maxima, its value
    is included."""

    reason: str
    n: int
    q: Fraction
    depth: int
    window_bound: RationalLike | None = None


class DecompositionResult(Record):
    """2N+2 parts: 2N+1 interval subsequences of the component chain plus a
    cofinite tail.  block_indices holds the separating component indices
    (1-based, one per block of N+1 components); the union of all parts
    covers the source set exactly above cover_verified_to."""

    parts: tuple[object, ...]
    n: int
    q: Fraction
    block_indices: tuple[int, ...]
    cover_verified_to: Fraction
    part_verdicts: tuple[Verdict, ...]

    def gamma_divergence_indices(self, bound) -> tuple[int | None, ...]:
        """For each interval part, the first position in its gap-ratio
        sequence from which every later value exceeds `bound` (None when the
        sequence never clears it, 0 when it always does)."""
        out = []
        for part in self.parts[:-1]:
            gammas = _gap_ratios(part.chain)
            pos = 0
            for i, g in enumerate(gammas):
                if g <= bound:
                    pos = i + 1
            out.append(pos if pos < len(gammas) or not gammas else None)
        return tuple(out)


def decompose_csp(
    f: TailFamily, n: int, q, depth: int = 32
) -> DecompositionResult | HypothesisFailure:
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
    q = _check_q(q)
    if depth < 1:
        raise ValueError("depth must be at least 1")

    # a point family's closed form settles the hypotheses at every depth
    closed_form = isinstance(f, _PointFamily)
    obstruction = f.decomposition_obstruction(n, q) if closed_form else None
    if obstruction is not None:
        reason, bound = obstruction
        return HypothesisFailure(reason, n, q, depth, bound)

    chain = cc1_components(expand(BlowupOf(f, q), depth))
    comps = chain.blocks
    t = len(comps)
    if t < 3 * (n + 1):
        return HypothesisFailure(
            f"only {t} components at this depth; need {3 * (n + 1)}", n, q, depth, None
        )

    gammas = _gap_ratios(chain)  # gammas[i - 1] follows component i
    if not closed_form:
        # check the windowed maxima empirically at depth
        maxima = _windowed_maxima(gammas, n)
        if classify_trend(maxima) != "monotone-increasing" or maxima[-1] < GAMMA_GROWTH_CUT:
            return HypothesisFailure(
                "windowed gap maxima show no divergence at this depth",
                n,
                q,
                depth,
                min(maxima[-TREND_WINDOW:]),
            )
        if not _width_record_early(_width_ratios(chain)):
            return HypothesisFailure("width ratios keep setting records", n, q, depth, None)

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
    D, lo, hi, horizon = chain._view
    for indices in slots:
        chosen = tuple(comps[i - 1] for i in indices)
        upper = chosen[0].hi if chosen else comps[0].hi
        # a subsequence of the blown components, all above their horizon
        view = _View(
            D, tuple(lo[i - 1] for i in indices), tuple(hi[i - 1] for i in indices), horizon
        )
        parts.append(ExplicitChain(_chain(chosen, upper, chain.horizon, view)))
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


# ---------------------------------------------------------------------------
# the worked example


class ExampleQBounds(Record):
    """The figures for one blow-up factor: sum_{k=0..m} alpha^-k with the
    smallest m satisfying q < (1/alpha)^m, reported as the width-ratio bound
    but no bound (`ExampleFamily.beta_limsup`), the exact width-ratio
    limsup, and for each window size M the liminf bound (1/alpha)^(m+M+1)
    and the exact liminf."""

    q: Fraction
    m: int
    beta_limsup: Fraction
    beta_limsup_exact: Fraction
    window_liminf: tuple[Fraction, ...]
    window_liminf_exact: tuple[Fraction, ...]


class ExampleReport(Record):
    alpha: Fraction
    depth: int
    ihat_sp: Verdict
    i_csp: Verdict
    bounds: tuple[ExampleQBounds, ...]


def reproduce_example(alpha, depth: int, q_list, M_max: int = 8) -> ExampleReport:
    """Evaluate the separating family: inside the ideal hull of the porous
    sets, outside the finite unions of completely porous ones, with the
    certified bounds spelled out for every requested q and window size."""
    f = ExampleFamily(alpha)
    ihat = test_ihat_sp(f, q_list, depth)
    icsp = test_i_csp(f, q_list, M_max, depth)
    if not (ihat.is_definite and ihat.value and icsp.is_definite and not icsp.value):
        raise RuntimeError("the separating example lost its certificates")
    windows = range(M_max + 1)
    bounds = tuple(
        ExampleQBounds(
            q=q,
            m=f.smallest_exponent(q),
            beta_limsup=f.beta_limsup(q),
            beta_limsup_exact=f.blowup_certificate(q).limsup_beta,
            window_liminf=tuple(f.window_liminf(q, M) for M in windows),
            window_liminf_exact=tuple(f.window_liminf_exact(q, M) for M in windows),
        )
        for q in map(Fraction, q_list)
    )
    return ExampleReport(f.alpha, depth, ihat, icsp, bounds)
