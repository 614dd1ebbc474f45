"""Output checks for every op.

Each outcome gets a digest.  For the default seed the digest must equal the
golden recorded at the commit the benchmark was written against
(goldens.json); for every seed the outcome must also satisfy the invariants
below.  A check returns None when the outcome is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

SCHEMA = "porosity-lab/1"
DOWN_SET_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168}


class CliOutcome:
    """Exit code and captured streams of one cli.main call."""

    __slots__ = ("rc", "out", "err")

    def __init__(self, rc, out: str, err: str):
        self.rc, self.out, self.err = rc, out, err


# ---------------------------------------------------------------------------
# digests


def _int_bytes(n: int) -> bytes:
    # str() of a big int hits the interpreter's digit limit; bytes do not
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def _frac_bytes(x) -> bytes:
    if x is None:
        return b"none;"
    x = Fraction(x)
    return _int_bytes(x.numerator) + b"/" + _int_bytes(x.denominator) + b";"


def _canonical(outcome) -> bytes:
    if isinstance(outcome, CliOutcome):
        return f"{outcome.rc}\n{outcome.out}\0{outcome.err}".encode()
    if hasattr(outcome, "samples"):  # PorosityProfile
        return b"".join(_frac_bytes(h) + _frac_bytes(r) for h, r in outcome.samples) + _frac_bytes(outcome.p_plus)
    if hasattr(outcome, "maximal_ideals"):  # IdealReport
        fams = (outcome.gamma, *outcome.maximal_ideals, outcome.i_hat, outcome.i_star)
        return repr([sorted(f.members) for f in fams] + [outcome.equal]).encode()
    if outcome is None or isinstance(outcome, tuple):  # find_covering_blowup
        return b"".join(_frac_bytes(x) for x in (outcome or (None,)))
    raise TypeError(f"no digest for {type(outcome).__name__}")


def digest(outcome) -> str:
    return hashlib.sha256(_canonical(outcome)).hexdigest()[:16]


# ---------------------------------------------------------------------------
# invariants


def _rationals_descend(comps) -> bool:
    prev_lo = None
    for c in comps:
        lo, hi = Fraction(c["lo"]), Fraction(c["hi"])
        if not 0 < lo < hi <= 1:
            return False
        if prev_lo is not None and hi > prev_lo:
            return False
        prev_lo = lo
    return True


def _check_report(op, report: dict):
    command = op.info["command"]
    if report.get("schema") != SCHEMA or report.get("command") != command:
        return "schema or command field wrong"
    if command == "analyze":
        verdicts = report["verdicts"]
        if set(verdicts) != {"SP", "CSP", "I_CSP", "Ihat_SP"}:
            return "analyze lacks a verdict"
        if any(v["kind"] not in ("definite", "empirical") for v in verdicts.values()):
            return "verdict kind unknown"
    elif command == "blowup":
        for prof in report["profiles"]:
            comps = prof["components"]
            if not _rationals_descend(comps):
                return "blown components do not descend inside (0, 1]"
            if len(prof["betas"]) != len(comps) or len(prof["gammas"]) != max(0, len(comps) - 1):
                return "beta/gamma counts do not match the components"
    elif command == "decompose":
        n = report["n"]
        if "hypothesis_failure" not in report and len(report["parts"]) != 2 * n + 2:
            return "decomposition does not have 2N+2 parts"
    elif command == "reproduce-example":
        v = report["verdicts"]
        if v["Ihat_SP"] != {**v["Ihat_SP"], "kind": "definite", "value": True}:
            return "example left Ihat(SP)"
        if v["I_CSP"] != {**v["I_CSP"], "kind": "definite", "value": False}:
            return "example entered I(CSP)"
    elif command == "verify-foundations":
        if report["families_scanned"] != DOWN_SET_COUNTS[report["n"]]:
            return "wrong number of down sets"
        if report["ideal_counterexamples"] or report["prime_maximal_counterexamples"]:
            return "foundations counterexample"
    return None


def _check_cli_ok(op, o: CliOutcome):
    command = op.info["command"]
    allowed = (0, 2) if command == "decompose" else (0,)
    if o.rc not in allowed:
        return f"exit {o.rc} ({o.err.strip()[:80]})"
    if o.err or not o.out.strip():
        return "unexpected stderr or empty stdout"
    if op.info.get("fmt") == "json":
        try:
            report = json.loads(o.out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return _check_report(op, report)
    if command == "analyze" and not [l for l in o.out.splitlines() if l.startswith("SP: ")]:
        return "text report lacks the SP line"
    return None


def _check_cli_error(op, o: CliOutcome):
    lines = o.err.splitlines()
    if o.rc != 1 or o.out or len(lines) != 1 or not lines[0].startswith("error: "):
        return f"want exit 1 and one error line, got exit {o.rc} with {len(lines)} stderr lines"
    return None


def _check_profile(op, p):
    spec = op.info["spec"]
    hs = [h for h, _ in p.samples]
    if not hs or any(a <= b for a, b in zip(hs, hs[1:])):
        return "probe heights do not descend"
    if any(not 0 <= r <= 1 for _, r in p.samples):
        return "gap ratio outside [0, 1]"
    want = 1 - Fraction(spec["rho"]) if spec["variant"] == "GeometricLadder" else Fraction(1)
    if p.p_plus != want:
        return f"p_plus {p.p_plus}, want {want}"
    return None


def _check_covering(op, result):
    # a geometric ladder has the certified index 1 - rho, so the search
    # must return q = 1/(1 - s) with s = (1 + p+)/2, i.e. q = 2/rho
    rho, x0 = Fraction(op.info["spec"]["rho"]), Fraction(op.info["spec"]["x0"])
    if result is None:
        return "no covering blow-up found for a geometric ladder"
    q, t = result
    if q != 2 / rho or not 0 < t <= x0:
        return f"covering blow-up ({q}, {t}) off the closed form"
    return None


def _check_ideal_report(op, rep):
    # closed form: the ideals inside a down set gamma are the power sets
    # P(M), M in gamma, so I-hat is P(intersection of the maximal members)
    members = rep.gamma.members
    support = 0
    for m in members:
        support |= m
    if support in members:
        want = {0}
    else:
        maximal = [m for m in members if not any(m != o and m & o == m for o in members)]
        common = maximal[0]
        for m in maximal[1:]:
            common &= m
        want = {s for s in range(common + 1) if s & common == s}
        if len(rep.maximal_ideals) != len(maximal):
            return "maximal ideal count off the closed form"
    if set(rep.i_hat.members) != want:
        return "I-hat off the closed form"
    if rep.equal != (rep.i_hat.members == rep.i_star.members):
        return "equal flag inconsistent"
    return None


def components(op, o) -> int:
    """Blown components below 1 in a blowup report (0 for other ops)."""
    if op.info.get("command") != "blowup" or not isinstance(o, CliOutcome) or o.rc != 0:
        return 0
    if op.info["fmt"] == "json":
        return sum(len(p["components"]) for p in json.loads(o.out)["profiles"])
    return sum(int(line.split(": ")[1].split()[0]) for line in o.out.splitlines() if line.startswith("q="))


_CHECKS = {
    "cli-ok": _check_cli_ok,
    "cli-error": _check_cli_error,
    "profile": _check_profile,
    "covering": _check_covering,
    "ideal-report": _check_ideal_report,
}


def check(op, outcome):
    """None when the outcome satisfies the op's invariants, else a reason."""
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {str(outcome)[:80]}"
    try:
        return _CHECKS[op.expect](op, outcome)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        return f"malformed output ({type(e).__name__}: {e})"
