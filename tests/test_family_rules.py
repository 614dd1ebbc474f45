"""The closed-form rules behind Definite verdicts, pinned and checked.

The pinned grid hashes everything a family's closed forms decide (the four
verdicts, the blow-up certificates, the porosity index and the
decomposition outcome), so any change to a rule, a note or a certificate
shows up as a changed digest.  The certificate audit checks the closed
forms against the exact component chain of the blown family at depth.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import UNION_ANALYZE, UNION_EXPLICIT, run_cli

from porosity_lab import membership
from porosity_lab.blowup import cc1_components
from porosity_lab.membership import (
    CofiniteTail,
    DecompositionResult,
    Verdict,
    decompose_csp,
    is_sp,
    verdict_to_json,
)
from porosity_lab.membership import test_csp as csp_verdict
from porosity_lab.membership import test_i_csp as i_csp_verdict
from porosity_lab.membership import test_ihat_sp as ihat_sp_verdict
from porosity_lab.rational import INF, format_rational
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
    _PointFamily,
    blowup_certificate,
    certificate_to_json,
    component_ratios,
    expand,
    family_from_json,
    family_to_json,
    porosity_profile,
    probe_ratios,
)

QS = (F(3, 2), F(2), F(3))
DEPTH = 12
M_MAX = 4

# two parameter sets per point family; the first PatternLadder touches
# q^2 r = 1 at q = 2
POINT_FAMILIES = {
    "geometric-1/2": GeometricLadder(1, F(1, 2)),
    "geometric-1/5": GeometricLadder(F(3, 4), F(1, 5)),
    "super-geometric-2/3": SuperGeometricLadder(1, F(2, 3)),
    "super-geometric-1/3": SuperGeometricLadder(F(1, 2), F(1, 3)),
    "example-1/2": ExampleFamily(F(1, 2)),
    "example-3/5": ExampleFamily(F(3, 5)),
    "pattern-touching": PatternLadder(1, (F(1, 2), F(1, 4)), F(1, 2)),
    "pattern-2/3": PatternLadder(F(3, 4), (F(2, 3),), F(3, 5)),
}
BOUNDED_AWAY = ExplicitChain(
    Chain((Point(1), Interval(F(1, 3), F(1, 2))), upper=1, horizon=0)
)
GRID = {
    **POINT_FAMILIES,
    **{f"blowup-{name}": BlowupOf(f, 2) for name, f in POINT_FAMILIES.items()},
    "union-super-geometric-pattern": UnionOf(
        (POINT_FAMILIES["super-geometric-2/3"], POINT_FAMILIES["pattern-touching"])
    ),
    "union-geometric-example": UnionOf(
        (POINT_FAMILIES["geometric-1/2"], POINT_FAMILIES["example-1/2"])
    ),
    "union-example-bounded-away": UnionOf((POINT_FAMILIES["example-1/2"], BOUNDED_AWAY)),
}

# sha256 of _rules_record(f) per case, recorded once: a changed digest
# means a changed verdict, note, certificate or decomposition outcome, so
# re-record one only for a deliberate change of what a rule reports
PINNED = {
    "blowup-example-1/2": "b71b9d33378b8019907f4b62db92d4d59b85932126781395ad2141020eb0709f",
    "blowup-example-3/5": "d51996af5ce156066b7596f6b47b1b341fda319eb446ea0b7155d2a86c01a2c7",
    "blowup-geometric-1/2": "9c135874cf14fe4204c01f801baa70e065341abf3a02dadb718e5e933c6260f4",
    "blowup-geometric-1/5": "292fc905f172324a6eb8d792f1b85952193c913dcd4b3c1a298b2ce67e46b201",
    "blowup-pattern-2/3": "ad5ac20e5e447a58f0ab5a17e793e0a9b848f7b50395fd205ffdf938d0ab6a39",
    "blowup-pattern-touching": "e3419d7595f77dba72ec894809ffd657d24f1da7ff4b625457db945d3afa3443",
    "blowup-super-geometric-1/3": "57bf20930865762d0bda7194465e0ef44ca67a58a77dfa649eb23c7dd3be9911",
    "blowup-super-geometric-2/3": "7b1e9f28c57f420e9cab2ee21c2f6bb5e7fcbbf681d4750ad839bf2b6382ae28",
    "example-1/2": "b812fe2dab8380bccd23b8c84e9ffe4f685a420b0ea5ea5a250bc7259df9b0e0",
    "example-3/5": "d2adeae89aee876d982e36d2048833379b176b4798d59f382456c0b4b2b51b52",
    "geometric-1/2": "aa470c5ba2db5903b5642a3f75f46ae1c2d74c74af839e3618997a6a9d84619b",
    "geometric-1/5": "21095b80e9e7d39a22ba0da78cae431b253f032ece6bc54e086c63b5c075a159",
    "pattern-2/3": "aabfb88b9329aef991ec07ec15117d2e8e86caa5a722094f4ec1c33e0da93b77",
    "pattern-touching": "c945c554a4bd9405cfd0a4df0ef2b0b950adbf92371c18837790bf6294e3526f",
    "super-geometric-1/3": "20c5fa14eb06a9ad4b47fc8d851a5b9c678273e64dbfe80e57c612ba1d4f7371",
    "super-geometric-2/3": "8e456b4dd83e85f06313e9c7933b897758c544dfdd80fb713bcc38a32b072629",
    "union-example-bounded-away": "86c1171dc5d23b9daa3c945aaed337d0ca40ca4808b2e4293bbe30de14ac66a9",
    "union-geometric-example": "2786dc0ad97978625871d1b43ee950e7f48eb4735f0c10f3fe83f7d21f36bbd5",
    "union-super-geometric-pattern": "4a9d4389363af59c7246eff0f7c9c547298dd50047e9370bb481bc1de1a6c710",
}


def _decomposition(f, n):
    out = decompose_csp(f, n, 2, DEPTH)
    if isinstance(out, DecompositionResult):
        return {"block_indices": list(out.block_indices)}
    bound = None if out.window_bound is None else format_rational(out.window_bound)
    return {"reason": out.reason, "window_bound": bound}


def _rules_record(f) -> dict:
    p_plus = f.porosity_index()
    return {
        "SP": verdict_to_json(is_sp(f, DEPTH)),
        "CSP": verdict_to_json(csp_verdict(f, DEPTH)),
        "I_CSP": verdict_to_json(i_csp_verdict(f, QS, M_MAX, DEPTH)),
        "Ihat_SP": verdict_to_json(ihat_sp_verdict(f, QS, DEPTH)),
        "certificates": [certificate_to_json(blowup_certificate(f, q)) for q in QS],
        "p_plus": None if p_plus is None else format_rational(p_plus),
        "decompose": [_decomposition(f, n) for n in (1, 2)],
    }


def _digest(f) -> str:
    text = json.dumps(_rules_record(f), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRID))
def test_pinned_rules(name):
    assert _digest(GRID[name]) == PINNED[name]


# ---------------------------------------------------------------------------
# certified first: a union reads only its parts' certified verdicts


def _eager(c, f, query):
    """The verdict ladder that decides every part in full, empirical
    fallback included, and then reads only the Definite part verdicts."""
    if type(f) is ExplicitChain:
        if f.chain.horizon == 0:
            return Verdict.definite(True, ExplicitLimit(INF, True), membership._TRIVIAL_NOTE)
        return c.empirical(f, query)
    if type(f) is BlowupOf:
        inner = _eager(c, f.base, query)
        return inner._replace(note=c.blowup_note + inner.note)
    if type(f) is UnionOf:
        verdicts = [_eager(c, p, query) for p in f.parts]
        for i, pv in enumerate(verdicts):
            if pv.is_definite and not pv.value:
                return Verdict.definite(
                    False, pv.certificate, f"{c.sink_note}; part {i}: " + pv.note
                )
        if c.ideal and all(pv.is_definite for pv in verdicts):
            tails = [pv for p, pv in zip(f.parts, verdicts) if p.has_zero_accumulation]
            return Verdict.definite(
                True,
                (tails + verdicts)[0].certificate,
                "an ideal is closed under finite unions and every part belongs: "
                + "; ".join(f"part {i}: {pv.note}" for i, pv in enumerate(verdicts)),
            )
        if c is membership._SP:
            hull = _eager(membership._IHAT_SP, f, query._replace(q_list=(F(2),)))
            if hull.is_definite and hull.value:
                return Verdict.definite(
                    True, hull.certificate, "contained in the ideal hull: " + hull.note
                )
        return c.empirical(f, query)
    return Verdict.definite(*c.closed_form(f, query))


def _assert_engines_match_eager(f, qs, m_max, depth):
    query = membership._Query
    engines = {
        "SP": (membership._SP, query((), 0, depth), lambda: is_sp(f, depth)),
        "CSP": (membership._CSP, query((), 0, depth), lambda: csp_verdict(f, depth)),
        "I_CSP": (
            membership._I_CSP,
            query(qs, m_max, depth),
            lambda: i_csp_verdict(f, qs, m_max, depth),
        ),
        "Ihat_SP": (membership._IHAT_SP, query(qs, 0, depth), lambda: ihat_sp_verdict(f, qs, depth)),
    }
    for name, (rules, q, engine) in engines.items():
        if name != "CSP" and not f.has_zero_accumulation:
            with pytest.raises(ValueError, match="accumulation"):
                engine()
            continue
        assert verdict_to_json(engine()) == verdict_to_json(_eager(rules, f, q)), name


@pytest.mark.parametrize("name", sorted(GRID))
def test_pinned_grid_verdicts_match_eager_ladder(name):
    _assert_engines_match_eager(GRID[name], QS, M_MAX, DEPTH)


def _explicit_chains():
    # points in (0, 1], known down to 0 or only down to the lowest point
    coords = st.lists(
        st.fractions(min_value=F(1, 40), max_value=1, max_denominator=40),
        min_size=1,
        max_size=6,
        unique=True,
    ).map(lambda xs: sorted(xs, reverse=True))
    return st.builds(
        lambda xs, known_to_0: ExplicitChain(
            Chain(tuple(map(Point, xs)), upper=xs[0], horizon=0 if known_to_0 else xs[-1])
        ),
        coords,
        st.booleans(),
    )


_NESTED = st.recursive(
    st.sampled_from(list(POINT_FAMILIES.values())) | _explicit_chains(),
    lambda inner: st.builds(UnionOf, st.lists(inner, min_size=1, max_size=3).map(tuple))
    | st.builds(BlowupOf, inner, st.sampled_from(QS)),
    max_leaves=5,
)
_EXPLICIT_NEAR = ExplicitChain(Chain((Point(F(1, 2)), Point(F(1, 5))), upper=F(1, 2), horizon=F(1, 5)))


@settings(max_examples=120, deadline=None, database=None)
@given(_NESTED, st.sampled_from(((F(3, 2),), (F(2), F(5, 4)))), st.integers(1, 6))
@example(UnionOf((POINT_FAMILIES["example-1/2"], _EXPLICIT_NEAR)), (F(2),), 6)
@example(UnionOf((POINT_FAMILIES["geometric-1/2"], _EXPLICIT_NEAR)), (F(2),), 6)
@example(BlowupOf(UnionOf((BOUNDED_AWAY, POINT_FAMILIES["pattern-2/3"])), 2), (F(2),), 4)
@example(BlowupOf(UnionOf((_EXPLICIT_NEAR, BOUNDED_AWAY)), 3), (F(3, 2),), 3)
def test_nested_unions_and_blowups_match_eager_ladder(f, qs, depth):
    _assert_engines_match_eager(f, qs, 2, depth)


@settings(max_examples=200, deadline=None, database=None)
@given(_NESTED, st.sampled_from(((F(3, 2),), (F(2), F(5, 4)))), st.integers(1, 6))
@example(UnionOf((UnionOf((BOUNDED_AWAY,)), POINT_FAMILIES["super-geometric-2/3"])), (F(2),), 4)
def test_definite_verdicts_keep_the_classes_nested(f, qs, depth):
    # CSP in I(CSP) in Ihat(SP) in SP: no Definite true verdict may sit
    # inside a class whose wider class is Definite false
    if not f.has_zero_accumulation:
        return
    nested = (
        csp_verdict(f, depth),
        i_csp_verdict(f, qs, 2, depth),
        ihat_sp_verdict(f, qs, depth),
        is_sp(f, depth),
    )
    for i, inner in enumerate(nested):
        for outer in nested[i + 1 :]:
            assert not (
                inner.is_definite and inner.value and outer.is_definite and not outer.value
            ), (inner, outer)
    icsp, ihat = nested[1], nested[2]
    if ihat.is_definite and ihat.value:
        cert = ihat.certificate
        betas = cert.beta_pattern if isinstance(cert, EventuallyPeriodic) else (cert.limsup_beta,)
        assert all(b != INF for b in betas), ihat
    if icsp.is_definite and icsp.value:
        cert = icsp.certificate
        if isinstance(cert, EventuallyPeriodic):
            assert INF in cert.gamma_pattern, icsp
        else:
            assert cert.gamma_tends_to_infinity, icsp


def test_union_explicit_runs_each_fallback_once(capsys, monkeypatch):
    calls = []
    for name in ("_SP", "_IHAT_SP", "_CSP", "_I_CSP"):
        rules = getattr(membership, name)

        def counting(f, query, run=rules.empirical, name=name):
            calls.append((name, f))
            return run(f, query)

        monkeypatch.setattr(membership, name, rules._replace(empirical=counting))
    code, out, _ = run_cli(capsys, *UNION_ANALYZE)
    assert code == 0 and out.count("empirical") == 4
    union = family_from_json(json.loads(UNION_EXPLICIT))
    assert sorted(name for name, _ in calls) == ["_CSP", "_IHAT_SP", "_I_CSP", "_SP"]
    assert all(f == union for _, f in calls)


# ---------------------------------------------------------------------------
# closed forms never fall back to finite evidence

DEFINITE_GRID = (
    [GeometricLadder(1, rho) for rho in (F(1, 3), F(1, 2), F(4, 5))]
    + [SuperGeometricLadder(F(3, 4), rho) for rho in (F(1, 3), F(1, 2), F(4, 5))]
    + [ExampleFamily(alpha) for alpha in (F(1, 3), F(1, 2), F(4, 5))]
    + [
        PatternLadder(1, ratios, decay)
        for ratios, decay in (((F(1, 2),), F(1, 2)), ((F(1, 4), F(3, 4)), F(2, 3)))
    ]
)


@pytest.mark.parametrize("qs", [(F(3, 2),), (F(2), F(5, 4))])
@pytest.mark.parametrize("f", DEFINITE_GRID + [BlowupOf(f, 3) for f in DEFINITE_GRID], ids=repr)
def test_closed_form_families_are_always_definite(f, qs):
    verdicts = (
        is_sp(f, 4),
        csp_verdict(f, 4),
        i_csp_verdict(f, qs, 8, 4),
        ihat_sp_verdict(f, qs, 4),
    )
    assert all(v.is_definite for v in verdicts)


# the decomposition theorem on point families: I(CSP) holds exactly when
# some N splits the blown set into 2N+2 completely porous parts.  N runs
# to 5, so no group holds more than five gaps, and depth 24 leaves every
# family enough components for N = 5.
DECOMPOSITION_FAMILIES = (
    [
        GeometricLadder(1, rho)
        for rho in (F(1, 16), F(1, 9), F(1, 4), F(1, 3), F(4, 9), F(1, 2), F(2, 3), F(4, 5))
    ]
    + [SuperGeometricLadder(F(3, 4), rho) for rho in (F(1, 9), F(1, 3), F(1, 2), F(2, 3), F(4, 5))]
    + [
        ExampleFamily(alpha)
        for alpha in (F(1, 9), F(1, 3), F(1, 2), F(3, 5), F(2, 3), F(4, 5), F(9, 10))
    ]
    + [
        PatternLadder(1, ratios, decay)
        for ratios, decay in (
            ((), F(1, 2)),
            ((F(1, 2),), F(1, 2)),
            ((F(2, 3),), F(3, 5)),
            ((F(4, 25),), F(1, 2)),
            ((F(1, 2), F(1, 4)), F(1, 2)),
            ((F(9, 10), F(4, 5)), F(1, 2)),
            ((F(1, 4), F(1, 2), F(3, 4)), F(2, 3)),
            ((F(1, 9), F(4, 9), F(1, 16), F(9, 16)), F(1, 3)),
            ((F(1, 10), F(1, 11), F(1, 12), F(1, 13), F(1, 14)), F(1, 2)),
        )
    ]
)


@pytest.mark.parametrize("q", QS, ids=repr)
@pytest.mark.parametrize("f", DECOMPOSITION_FAMILIES, ids=repr)
def test_definite_icsp_iff_some_decomposition_succeeds(f, q):
    verdict = i_csp_verdict(f, (q,), M_MAX, 24)
    assert verdict.is_definite
    outcomes = [decompose_csp(f, n, q, 24) for n in range(1, 6)]
    succeeds = any(isinstance(out, DecompositionResult) for out in outcomes)
    assert verdict.value == succeeds, outcomes


def test_family_to_json_rejects_non_families():
    with pytest.raises(TypeError):
        family_to_json(CofiniteTail(F(1, 2)))
    with pytest.raises(TypeError):
        family_to_json(Chain((Point(1),), upper=1, horizon=1))


# ---------------------------------------------------------------------------
# certificate audit: closed forms against the blown chain at depth

AUDIT_QS = (F(5, 4), F(3, 2), F(2), F(5, 2), F(3))


def _blown_ratios(f, q, depth):
    return component_ratios(cc1_components(expand(BlowupOf(f, q), depth)))


# ---------------------------------------------------------------------------
# the closed forms as each family once wrote them out by hand: the oracles
# for what `_PointFamily` derives from one late block of ratios


def _merge_cutoff(alpha, q):
    """Largest k >= 0 with alpha**k * q**2 > 1: the first k gaps of a late
    ExampleFamily block merge under the q-blow-up."""
    k = 0
    value = q * q
    while value * alpha > 1:
        value *= alpha
        k += 1
    return k


def _oracle_certificate(f, q):
    if type(f) is GeometricLadder:
        if q * q * f.rho > 1:
            return UNKNOWN
        return ExplicitLimit(q * q, False)
    if type(f) is SuperGeometricLadder:
        return ExplicitLimit(q * q, True)
    if type(f) is ExampleFamily:
        k = _merge_cutoff(f.alpha, q)
        return ExplicitLimit(q * q * f.alpha ** F(-k * (k + 1), 2), False)
    qq = q * q
    betas, gammas = [], []
    width = qq
    for r in f.ratios:
        if r * qq > 1:
            width /= r
        else:
            betas.append(width)
            gammas.append(1 / (r * qq))
            width = qq
    betas.append(width)
    gammas.append(INF)
    return EventuallyPeriodic(tuple(betas), tuple(gammas))


def _oracle_obstruction(f, n, q):
    if type(f) is GeometricLadder:
        if q * q * f.rho > 1:
            return "all points fuse into one component", None
        return "gap ratios are constant", 1 / (q * q * f.rho)
    if type(f) is SuperGeometricLadder:
        return None
    if type(f) is ExampleFamily:
        return (
            "windowed gap maxima stay bounded: windows of size N+1 land inside "
            "a block infinitely often",
            f.window_liminf(q, n),
        )
    cert = _oracle_certificate(f, q)
    needed = len(cert.beta_pattern) - 1
    if n >= needed:
        return None
    return (
        f"each group carries {needed} bounded gap ratios in a row; windows "
        f"of size {n + 1} miss the diverging joint infinitely often",
        max(g for g in cert.gamma_pattern if g is not INF),
    )


def _oracle_window_liminf_exact(f, q, M):
    return f.alpha ** (-(_merge_cutoff(f.alpha, q) + M + 1)) / (q * q)


def _oracle_rules(f, q):
    """The porosity index, then (value, certificate) for SP, CSP, Î(SP) and
    I(CSP) at q."""
    blown = blowup_certificate(f, q)
    if type(f) is GeometricLadder:
        flat, finite = ExplicitLimit(1 / f.rho, False), ExplicitLimit(INF, False)
        return 1 - f.rho, (False, flat), (False, flat), (False, finite), (False, finite)
    full = ExplicitLimit(INF, True)
    if type(f) is ExampleFamily:
        heads = ExplicitLimit(1 / f.alpha, False)
        return F(1), (True, full), (False, heads), (True, blown), (False, blown)
    return F(1), (True, full), (True, full), (True, blown), (True, blown)


ORACLE_QS = AUDIT_QS + (F(4, 3), F(4))
# each q^2 r = 1 below touches at one q of ORACLE_QS: 1/4 at 2, 1/9 at 3,
# 4/9 at 3/2, 9/16 at 4/3, 4/25 at 5/2, 1/16 at 4
ORACLE_FAMILIES = (
    [
        GeometricLadder(F(3, 4), rho)
        for rho in (F(1, 16), F(1, 9), F(4, 25), F(1, 4), F(4, 9), F(9, 16), F(4, 5))
    ]
    + [SuperGeometricLadder(1, rho) for rho in (F(1, 9), F(1, 2), F(5, 6))]
    # alpha = 1/16 and 1/9 keep every gap open (alpha q^2 <= 1) at small q
    + [
        ExampleFamily(alpha)
        for alpha in (F(1, 16), F(1, 9), F(1, 3), F(1, 2), F(3, 5), F(4, 5), F(9, 10))
    ]
    + [
        PatternLadder(1, ratios, decay)
        for ratios, decay in (
            ((), F(1, 2)),
            ((F(1, 2), F(1, 4)), F(1, 2)),
            ((F(9, 10), F(4, 5)), F(1, 2)),  # every in-group ratio merges for q >= 3/2
            ((F(1, 4), F(1, 2), F(3, 4)), F(2, 3)),
            ((F(1, 9), F(4, 9), F(1, 16), F(9, 16)), F(1, 3)),
            ((F(4, 25), F(1, 20), F(1, 30), F(1, 40), F(1, 50)), F(1, 2)),
        )
    ]
)


@pytest.mark.parametrize("q", ORACLE_QS, ids=repr)
@pytest.mark.parametrize("f", ORACLE_FAMILIES, ids=repr)
def test_late_block_derivation_matches_hand_written_forms(f, q):
    cert = blowup_certificate(f, q)
    assert cert == _oracle_certificate(f, q)
    assert certificate_to_json(cert) == certificate_to_json(_oracle_certificate(f, q))
    for n in range(1, 5):
        assert f.decomposition_obstruction(n, q) == _oracle_obstruction(f, n, q)
    if type(f) is ExampleFamily:
        for M in range(5):
            assert f.window_liminf_exact(q, M) == _oracle_window_liminf_exact(f, q, M)


@pytest.mark.parametrize("q", ORACLE_QS, ids=repr)
@pytest.mark.parametrize("f", ORACLE_FAMILIES, ids=repr)
def test_late_block_derivation_matches_hand_written_rules(f, q):
    index, *expected = _oracle_rules(f, q)
    assert type(f.porosity_index()) is F and f.porosity_index() == index
    derived = (f.sp_rule(), f.csp_rule(), f.ihat_rule(q), f.icsp_rule(q))
    for (value, cert, note), (want_value, want_cert) in zip(derived, expected):
        assert value is want_value
        assert cert == want_cert
        assert certificate_to_json(cert) == certificate_to_json(want_cert)
        assert type(note) is str and note
    # the least and largest late ratios are read once, at one q: they must
    # be the same at every q
    ratios = [F(n, d) for n, d in f._late_block(q)]
    assert [F(*r) for r in f._late_range] == [min(ratios), max(ratios)]


@pytest.mark.parametrize("depth", [1, 2, DEPTH, 30])
@pytest.mark.parametrize("f", ORACLE_FAMILIES, ids=repr)
def test_profile_scan_is_the_probe_sweep_on_the_oracle_grid(f, depth):
    assert porosity_profile(f, depth).samples == tuple(probe_ratios(expand(f, depth)))


def test_point_families_state_no_class_rule_by_hand():
    derived = {"porosity_index", "sp_rule", "csp_rule", "ihat_rule", "icsp_rule"}
    for cls in (GeometricLadder, SuperGeometricLadder, ExampleFamily, PatternLadder):
        mro = cls.__mro__
        for own in mro[: mro.index(_PointFamily)]:
            assert derived.isdisjoint(vars(own)), own.__name__
        # one note table per family, one note per class
        assert set(vars(cls)["_notes"]) == {"SP", "CSP", "Ihat_SP", "I_CSP"}


def test_oracle_grid_reaches_the_edge_cases():
    cases = [(f, q) for f in ORACLE_FAMILIES for q in ORACLE_QS]
    ladders = [(f, q) for f, q in cases if type(f) is GeometricLadder]
    assert any(q * q * f.rho > 1 for f, q in ladders)
    assert any(q * q * f.rho == 1 for f, q in ladders)
    examples = [(f, q) for f, q in cases if type(f) is ExampleFamily]
    assert any(_merge_cutoff(f.alpha, q) == 0 for f, q in examples)
    assert any(q * q * f.alpha == 1 for f, q in examples)
    patterns = [(f, q) for f, q in cases if type(f) is PatternLadder]
    assert any(f.ratios and all(q * q * r > 1 for r in f.ratios) for f, q in patterns)
    assert any(f.ratios == () for f, q in patterns)
    assert any(q * q * r == 1 for f, q in patterns for r in f.ratios)


def _limit_cases():
    # (family, q, depth, how many of the deepest components are late)
    for rho in (F(1, 3), F(1, 2), F(2, 3), F(5, 6)):
        for q in AUDIT_QS:
            yield SuperGeometricLadder(1, rho), q, 24, 8
    for rho in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
        for q in AUDIT_QS:
            if q * q * rho <= 1:  # q^2 rho = 1 touches: no two blow-ups merge
                yield GeometricLadder(F(3, 4), rho), q, 24, 8
    for alpha in (F(1, 3), F(1, 2), F(2, 3), F(4, 5)):
        for q in AUDIT_QS:
            # blocks past the merge cutoff k hold a cluster plus j - k
            # isolated components; at depth j = k + 4 the last two blocks,
            # 5 + 4 components, are late
            yield ExampleFamily(alpha), q, _merge_cutoff(alpha, q) + 4, 9


@pytest.mark.parametrize("f, q, depth, late", list(_limit_cases()), ids=repr)
def test_explicit_limit_matches_late_betas(f, q, depth, late):
    cert = blowup_certificate(f, q)
    betas, gammas = _blown_ratios(f, q, depth)
    assert len(betas) > late
    assert max(betas[-late:]) == cert.limsup_beta
    late_gammas = gammas[-(late - 1) :]
    increasing = all(a < b for a, b in zip(late_gammas, late_gammas[1:]))
    assert increasing == cert.gamma_tends_to_infinity


@pytest.mark.parametrize(
    "alpha, q",
    [(a, q) for a in (F(1, 3), F(1, 2), F(3, 5), F(2, 3), F(3, 4)) for q in (F(3, 2), F(2), F(3))],
    ids=repr,
)
def test_window_liminf_exact_matches_late_windows(alpha, q):
    # the flattest windows of M+1 gap ratios sit inside a block, right after
    # its cluster; the later half of the chain at depth 14 reaches them
    f = ExampleFamily(alpha)
    _, gammas = _blown_ratios(f, q, 14)
    for M in range(5):
        windows = [max(gammas[i : i + M + 1]) for i in range(len(gammas) - M)]
        assert min(windows[len(windows) // 2 :]) == f.window_liminf_exact(q, M)
        assert f.window_liminf(q, M) >= f.window_liminf_exact(q, M)


def _pattern_cases():
    # q^2 r = 1 (blown points that share an endpoint and stay apart) comes up
    # for r = 1/4 at q = 2, r = 1/9 at q = 3 and r = 4/25 at q = 5/2
    patterns = (
        ((F(1, 2), F(1, 4)), F(1, 2)),
        ((F(2, 3),), F(3, 5)),
        ((F(1, 4), F(1, 2), F(3, 4)), F(2, 3)),
        ((F(1, 9), F(4, 9)), F(1, 3)),
        ((F(4, 25),), F(1, 2)),
    )
    for ratios, decay in patterns:
        for q in AUDIT_QS:
            yield PatternLadder(1, ratios, decay), q


@pytest.mark.parametrize("f, q", list(_pattern_cases()), ids=repr)
def test_eventually_periodic_matches_last_full_period(f, q):
    cert = blowup_certificate(f, q)
    assert isinstance(cert, EventuallyPeriodic)
    period = len(cert.beta_pattern)
    betas, gammas = _blown_ratios(f, q, 12)
    t = len(betas)
    assert t >= 3 * period
    # the deepest group and the one above it repeat the width pattern
    assert betas[t - period :] == betas[t - 2 * period : t - period] == cert.beta_pattern
    # the gaps after the components of the last group with a gap below it,
    # and of the group before that
    last = gammas[t - 2 * period : t - period]
    before = gammas[t - 3 * period : t - 2 * period]
    finite = [g for g in cert.gamma_pattern if g != INF]
    for g, now, earlier in zip(cert.gamma_pattern, last, before):
        if g == INF:
            assert now > earlier and now > max(finite, default=0)
        else:
            assert now == earlier == g

