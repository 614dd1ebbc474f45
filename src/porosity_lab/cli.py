"""Command-line front end: reproducible reports over the analysis engines.

Five commands: analyze (four class verdicts for one family), blowup (blown
component tables per q), decompose (the 2N+2-part construction),
verify-foundations (exhaustive finite-universe checks), reproduce-example
(the separating block family with its certified bounds).  Reports are
byte-stable for a given argument vector: rationals print as "p/q" strings,
keys are sorted, nothing timestamps.  Exit status 0 means verdicts were
computed, 2 means a hypothesis failure or a counterexample was reported,
1 means the input was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

from .blowup import cc1_components
from .ideal_core import check_prime_iff_maximal, check_theorem_istar_eq_ihat
from .membership import (
    CofiniteTail,
    DecompositionResult,
    decompose_csp,
    is_sp,
    reproduce_example,
    test_csp,
    test_i_csp,
    test_ihat_sp,
    verdict_to_json,
)
from .rational import format_rational, parse_rational
from .tailset import (
    BlowupOf,
    ExampleFamily,
    TailFamily,
    blowup_certificate,
    certificate_to_json,
    certified_porosity_index,
    component_ratios,
    expand,
    family_from_json,
    family_to_json,
)

SCHEMA = "porosity-lab/1"

__all__ = ["RunConfig", "run", "main"]


class InputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: Optional[TailFamily] = None
    q_list: Tuple[Fraction, ...] = (Fraction(2),)
    depth: int = 32
    m_max: int = 8
    n: Optional[int] = None
    alpha: Fraction = Fraction(1, 2)
    fmt: str = "text"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.depth < 1:
            raise InputError("depth must be at least 1")
        if self.m_max < 0:
            raise InputError("M must be at least 0")
        if any(q <= 1 for q in self.q_list) or not self.q_list:
            raise InputError("every q must exceed 1")
        if self.fmt not in ("json", "text"):
            raise InputError("format must be json or text")


def _load_family(text: str) -> TailFamily:
    raw = text.strip()
    if not raw.startswith("{"):
        path = Path(raw)
        if not path.is_file():
            raise InputError(f"no such family file: {raw}")
        raw = path.read_text()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"family is not valid JSON: {e}") from e
    try:
        return family_from_json(data)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"bad family descriptor: {e}") from e


def _common_json(config: RunConfig) -> dict:
    return {
        "schema": SCHEMA,
        "command": config.command,
        "depth": config.depth,
        "seed": config.seed,
    }


def _emit(config: RunConfig, report: dict, text_lines) -> None:
    if config.fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _verdict_text(label: str, v) -> str:
    if v.is_definite:
        return f"{label}: definite {'true' if v.value else 'false'}"
    return (
        f"{label}: empirical {'true' if v.value else 'false'} "
        f"at depth {v.depth} ({v.trend})"
    )


def _cmd_analyze(config: RunConfig) -> int:
    f = _require_family(config)
    try:
        v_sp = is_sp(f, config.depth)
        v_ihat = test_ihat_sp(f, config.q_list, config.depth)
        v_icsp = test_i_csp(f, config.q_list, config.m_max, config.depth)
    except ValueError as e:
        raise InputError(str(e)) from e
    v_csp = test_csp(f, config.depth)

    # the analyze report carries only the certified porosity index; the
    # probe tables live under the blowup command where they are printed
    p_plus = certified_porosity_index(f)
    certs = [
        {"q": format_rational(q), "certificate": certificate_to_json(blowup_certificate(f, q))}
        for q in config.q_list
    ]
    bounds = None
    if isinstance(f, ExampleFamily):
        rep = reproduce_example(f.alpha, config.depth, (min(config.q_list),), config.m_max)
        (b,) = rep.bounds
        bounds = {
            "beta_limsup": format_rational(b.beta_limsup),
            "window_liminf": format_rational(b.window_liminf[config.m_max]),
        }
    report = _common_json(config)
    report.update(
        {
            "family": family_to_json(f),
            "q_list": [format_rational(q) for q in config.q_list],
            "p_plus": None if p_plus is None else format_rational(p_plus),
            "verdicts": {
                "SP": verdict_to_json(v_sp),
                "CSP": verdict_to_json(v_csp),
                "I_CSP": verdict_to_json(v_icsp),
                "Ihat_SP": verdict_to_json(v_ihat),
            },
            "certificates": certs,
            "bounds": bounds,
        }
    )
    lines = [
        _verdict_text("SP", v_sp),
        _verdict_text("CSP", v_csp),
        _verdict_text("I(CSP)", v_icsp),
        _verdict_text("Ihat(SP)", v_ihat),
    ]
    if p_plus is not None:
        lines.append(f"p+: {format_rational(p_plus)}")
    if bounds is not None:
        lines.append(
            f"beta limsup bound: {bounds['beta_limsup']}; "
            f"window liminf bound at M={config.m_max}: {bounds['window_liminf']}"
        )
    _emit(config, report, lines)
    return 0


def _cmd_blowup(config: RunConfig) -> int:
    f = _require_family(config)
    profiles = []
    lines = []
    for q in config.q_list:
        chain = expand(BlowupOf(f, q), config.depth)
        comps = cc1_components(chain)
        betas, gammas = component_ratios(comps)
        cert = blowup_certificate(f, q)
        profiles.append(
            {
                "q": format_rational(q),
                "components": [
                    {"lo": format_rational(c.lo), "hi": format_rational(c.hi)}
                    for c in comps
                ],
                "betas": [format_rational(x) for x in betas],
                "gammas": [format_rational(x) for x in gammas],
                "certificate": certificate_to_json(cert),
            }
        )
        lines.append(f"q={format_rational(q)}: {len(comps)} components below 1")
        for i, c in enumerate(comps):
            gamma = format_rational(gammas[i]) if i < len(gammas) else "-"
            lines.append(
                f"  {i + 1}: ({format_rational(c.lo)}, {format_rational(c.hi)})"
                f" beta={format_rational(betas[i])} gamma={gamma}"
            )
    report = _common_json(config)
    report.update({"family": family_to_json(f), "profiles": profiles})
    _emit(config, report, lines)
    return 0


def _part_to_json(part) -> dict:
    if isinstance(part, CofiniteTail):
        return {"variant": "CofiniteTail", "cut": format_rational(part.cut)}
    return family_to_json(part)


def _cmd_decompose(config: RunConfig) -> int:
    f = _require_family(config)
    if config.n is None:
        raise InputError("decompose needs --n (the part-count parameter)")
    if config.n < 1:
        raise InputError("n must be at least 1")
    result = decompose_csp(f, config.n, config.q_list[0], config.depth)
    report = _common_json(config)
    report["family"] = family_to_json(f)
    report["q"] = format_rational(config.q_list[0])
    report["n"] = config.n
    if not isinstance(result, DecompositionResult):
        report["hypothesis_failure"] = {
            "reason": result.reason,
            "window_bound": None
            if result.window_bound is None
            else format_rational(result.window_bound),
        }
        _emit(
            config,
            report,
            [
                f"hypothesis failure: {result.reason}"
                + (
                    ""
                    if result.window_bound is None
                    else f" (window value {format_rational(result.window_bound)})"
                )
            ],
        )
        return 2
    report.update(
        {
            "block_indices": list(result.block_indices),
            "cover_verified_to": format_rational(result.cover_verified_to),
            "parts": [_part_to_json(p) for p in result.parts],
            "part_verdicts": [verdict_to_json(v) for v in result.part_verdicts],
        }
    )
    lines = []
    for i, part in enumerate(result.parts[:-1]):
        count = len(part.chain.blocks)
        lines.append(f"part {i + 1}: {count} component{'s' if count != 1 else ''}")
    tail = result.parts[-1]
    lines.append(
        f"part {len(result.parts)}: {{0}} u ({format_rational(tail.cut)}, inf)"
    )
    lines.append(f"cover verified above {format_rational(result.cover_verified_to)}")
    _emit(config, report, lines)
    return 0


def _cmd_verify_foundations(config: RunConfig) -> int:
    n = 3 if config.n is None else config.n
    try:
        theorem = check_theorem_istar_eq_ihat(n)
        primes = check_prime_iff_maximal(n)
    except ValueError as e:
        raise InputError(str(e)) from e
    bad = (
        len(theorem.counterexamples)
        + len(theorem.lemma_counterexamples)
        + len(theorem.corollary_counterexamples)
    )
    report = _common_json(config)
    report.update(
        {
            "n": n,
            "families_scanned": theorem.scanned,
            "families_checked": theorem.checked,
            "ideal_counterexamples": bad,
            "ideal_count": primes.ideal_count,
            "prime_count": primes.prime_count,
            "maximal_count": primes.maximal_count,
            "prime_maximal_counterexamples": len(primes.counterexamples),
        }
    )
    lines = [
        f"{theorem.scanned} down-set bases scanned, {bad} counterexamples to I* = Î",
        f"{primes.ideal_count} ideals enumerated, {primes.prime_count} prime, "
        f"{primes.maximal_count} maximal, {len(primes.counterexamples)} mismatches",
    ]
    _emit(config, report, lines)
    return 0 if theorem.ok and primes.ok else 2


def _cmd_reproduce_example(config: RunConfig) -> int:
    if not 0 < config.alpha < 1:
        raise InputError("alpha must lie in (0, 1)")
    rep = reproduce_example(config.alpha, config.depth, config.q_list, config.m_max)
    report = _common_json(config)
    report.update(
        {
            "alpha": format_rational(rep.alpha),
            "q_list": [format_rational(q) for q in config.q_list],
            "verdicts": {
                "Ihat_SP": verdict_to_json(rep.ihat_sp),
                "I_CSP": verdict_to_json(rep.i_csp),
            },
            "bounds": [
                {
                    "q": format_rational(b.q),
                    "m": b.m,
                    "beta_limsup": format_rational(b.beta_limsup),
                    "beta_limsup_exact": format_rational(b.beta_limsup_exact),
                    "window_liminf": [format_rational(x) for x in b.window_liminf],
                    "window_liminf_exact": [
                        format_rational(x) for x in b.window_liminf_exact
                    ],
                }
                for b in rep.bounds
            ],
        }
    )
    lines = [
        f"alpha: {format_rational(rep.alpha)}",
        _verdict_text("Ihat(SP)", rep.ihat_sp),
        _verdict_text("I(CSP)", rep.i_csp),
    ]
    for b in rep.bounds:
        lines.append(
            f"q={format_rational(b.q)}: m={b.m}"
            f" beta_limsup={format_rational(b.beta_limsup)}"
            f" (exact {format_rational(b.beta_limsup_exact)})"
        )
        for M, (w, wx) in enumerate(zip(b.window_liminf, b.window_liminf_exact)):
            lines.append(
                f"  M={M}: window_liminf={format_rational(w)}"
                f" (exact {format_rational(wx)})"
            )
    _emit(config, report, lines)
    return 0


def _require_family(config: RunConfig) -> TailFamily:
    if config.family is None:
        raise InputError(f"{config.command} needs --family")
    return config.family


_COMMANDS = {
    "analyze": _cmd_analyze,
    "blowup": _cmd_blowup,
    "decompose": _cmd_decompose,
    "verify-foundations": _cmd_verify_foundations,
    "reproduce-example": _cmd_reproduce_example,
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # hypothesis failures, so turn parse errors into input errors instead
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="porosity-lab", description=__doc__, add_help=True)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--family", help="family descriptor: JSON file path or inline JSON")
    parser.add_argument("--q", action="append", default=None, help="blow-up factor, repeatable")
    parser.add_argument("--depth", type=int, default=32)
    parser.add_argument("--M", dest="m_max", type=int, default=8, help="largest window size offset")
    parser.add_argument("--n", type=int, default=None, help="universe size / part-count parameter")
    parser.add_argument("--alpha", default="1/2", help="block family parameter in (0, 1)")
    parser.add_argument("--format", dest="fmt", choices=["json", "text"], default="text")
    parser.add_argument("--seed", type=int, default=None, help="echoed into reports for fixtures")
    return parser


def _config_from_args(args) -> RunConfig:
    try:
        q_list = tuple(
            parse_rational(q) for q in (args.q if args.q else ["2"])
        )
        alpha = parse_rational(args.alpha)
    except ValueError as e:
        raise InputError(str(e)) from e
    family = None if args.family is None else _load_family(args.family)
    return RunConfig(
        command=args.command,
        family=family,
        q_list=q_list,
        depth=args.depth,
        m_max=args.m_max,
        n=args.n,
        alpha=alpha,
        fmt=args.fmt,
        seed=args.seed,
    )


def main(argv=None) -> int:
    # exact values routinely run past the interpreter's default cap on
    # printing long integers; every digit belongs in the report
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return run(config)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
