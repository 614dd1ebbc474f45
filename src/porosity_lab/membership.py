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
from .rational import INF, RationalLike, format_rational
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
    _check_depth,
    _check_q,
    _count,
    _exact,
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
    return _trend(list(zip(vals, vals[1:])))


def _trend(pairs: list) -> str:
    # classify_trend of the values whose neighbours (a, b) compare as the
    # pairs do
    if all(a <= b for a, b in pairs) and any(a < b for a, b in pairs):
        return "monotone-increasing"
    if all(a >= b for a, b in pairs):
        return "bounded"
    return "oscillating"


def _head_trend(heads) -> str:
    """classify_trend of the last TREND_WINDOW ratios h_k/h_{k+1} of
    positive heads, with no ratio built: neighbours compare as their integer
    parts, or where those tie, as h_k*h_{k+2} against h_{k+1}^2.  View ints
    share a factor as long as the chain's D, and a floor division with a
    short quotient takes time linear in their length, a gcd or a product
    more."""
    h = heads[-TREND_WINDOW - 1 :]
    whole = [a // b for a, b in zip(h, h[1:])]
    steps = zip(whole, whole[1:], h, h[1:], h[2:])
    return _trend([(p, q) if p != q else (a * c, b * b) for p, q, a, b, c in steps])


def _diverges(maxima) -> bool:
    """Windowed gap maxima that rise monotonically and clear GAMMA_GROWTH_CUT."""
    return classify_trend(maxima) == "monotone-increasing" and maxima[-1] >= GAMMA_GROWTH_CUT


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
    depth: int | None
    trend: str | None

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
        q_list = tuple(map(_exact, q_list))
        if not q_list or any(q <= 1 for q in q_list):
            raise ValueError("need at least one q > 1")
    _check_depth(depth)
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


def _ihat_evidence(f: TailFamily, q: Fraction, query: _Query) -> tuple[bool, str, str]:
    # a blown chain still growing with depth, its record width ratio set early
    comps = cc1_components(expand(BlowupOf(f, q), query.depth))
    shallow = cc1_components(expand(BlowupOf(f, q), max(1, query.depth // 2)))
    count = _count(comps)
    growing = count > _count(shallow)
    betas = _width_ratios(comps)
    stable = _width_record_early(betas)
    note = f"{count} components ({'growing' if growing else 'stalled'}),"
    note += f" width-ratio record {'early' if stable else 'still moving'}"
    return growing and stable, classify_trend(betas), note


def _per_q(quantity: str, evidence: Callable, f: TailFamily, query: _Query) -> Verdict:
    # the empirical fallback of a class that reads q: true when the evidence
    # holds at every q, with the last q's trend and every q's note
    value, notes = True, [f"trend of {quantity}"]
    for q in query.q_list:
        holds, trend, note = evidence(f, q, query)
        value = value and holds
        notes.append(f"q={format_rational(q)}: {note}")
    return Verdict.empirical(value, query.depth, trend, "; ".join(notes))


_IDEAL_SINK = "an ideal is closed downward"
_IHAT_SP = _ClassRules(
    lambda f, query: f.ihat_rule(min(query.q_list)),
    "via blow-up invariance of the class: ",
    _IDEAL_SINK,
    True,
    lambda f, query: _per_q("component width ratios", _ihat_evidence, f, query),
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
    # looks real when successive cluster heads shrink ever faster, read off
    # the view ints of the last heads (`_head_trend`)
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
    trend = _head_trend(clusters)
    value = (
        len(clusters) >= 4
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


def _icsp_evidence(f: TailFamily, q: Fraction, query: _Query) -> tuple[bool, str, str]:
    # the first window up to M whose gap maxima diverge, on top of the
    # Ihat(SP) evidence at q: I(CSP) lies inside Ihat(SP)
    gammas = _gap_ratios(cc1_components(expand(BlowupOf(f, q), query.depth)))
    for m in range(min(query.M_max, len(gammas) - 4) + 1):
        if _diverges(_windowed_maxima(gammas, m)):
            holds, _, note = _ihat_evidence(f, q, query)
            tail = "" if holds else f" but {note}"
            return holds, "monotone-increasing", f"window M={m} diverges{tail}"
    return False, classify_trend(gammas), f"no window up to {query.M_max} diverges"


_I_CSP = _ClassRules(
    lambda f, query: f.icsp_rule(min(query.q_list)),
    "via blow-up invariance of the class: ",
    _IDEAL_SINK,
    True,
    lambda f, query: _per_q("windowed gap maxima", _icsp_evidence, f, query),
)


def test_i_csp(
    f: TailFamily, q_list=(Fraction(2),), M_max: int = 8, depth: int = 32
) -> Verdict:
    """Is the set a finite union of completely porous sets?  Characterized
    by: some window size M and threshold q0 make the windowed maxima of the
    blown gap ratios diverge for every q > q0, with bounded width ratios.
    The Empirical evidence at a q is Ihat(SP)'s (`test_ihat_sp`) plus a
    window up to M whose maxima diverge."""
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
    window_bound: RationalLike | None


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
    _check_depth(depth)

    # a point family's closed form settles the hypotheses at every depth
    closed_form = isinstance(f, _PointFamily)
    obstruction = f.decomposition_obstruction(n, q) if closed_form else None
    if obstruction is not None:
        reason, bound = obstruction
        return HypothesisFailure(reason, n, q, depth, bound)

    chain = cc1_components(expand(BlowupOf(f, q), depth))
    t = _count(chain)
    if t < 3 * (n + 1):
        return HypothesisFailure(
            f"only {t} components at this depth; need {3 * (n + 1)}", n, q, depth, None
        )

    gammas = _gap_ratios(chain)  # gammas[i - 1] follows component i
    if not closed_form:
        # check the windowed maxima empirically at depth
        maxima = _windowed_maxima(gammas, n)
        if not _diverges(maxima):
            return HypothesisFailure(
                "windowed gap maxima show no divergence at this depth",
                n,
                q,
                depth,
                min(maxima[-TREND_WINDOW:]),
            )
        if not _width_record_early(_width_ratios(chain)):
            return HypothesisFailure("width ratios keep setting records", n, q, depth, None)

    comps = chain.blocks
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
    # both window bounds grow by 1/alpha from each M to the next, so only
    # M = 0 reads the family's per-q values
    inv = 1 / f.alpha
    bounds = []
    for q in map(_exact, q_list):
        window, exact = [f.window_liminf(q, 0)], [f.window_liminf_exact(q, 0)]
        for _ in range(M_max):
            window.append(window[-1] * inv)
            exact.append(exact[-1] * inv)
        bounds.append(
            ExampleQBounds(
                q=q,
                m=f.smallest_exponent(q),
                beta_limsup=f.beta_limsup(q),
                beta_limsup_exact=f.blowup_certificate(q).limsup_beta,
                window_liminf=tuple(window),
                window_liminf_exact=tuple(exact),
            )
        )
    return ExampleReport(f.alpha, depth, ihat, icsp, tuple(bounds))
