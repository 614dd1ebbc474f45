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
import errno
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

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
    TailFamily,
    blowup_certificate,
    certificate_to_json,
    certified_porosity_index,
    component_ratios,
    expand,
    expand_memo,
    family_from_json,
    family_to_json,
)

SCHEMA = "porosity-lab/1"

__all__ = ["main"]


class InputError(Exception):
    pass


def _is_file(path: str) -> bool:
    """Whether the path names a regular file.  A path that is missing, runs
    through a non-directory or a symlink loop, or cannot be encoded names
    none; any other error reaching the path is raised."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except ValueError:
        return False
    except OSError as e:
        if e.errno in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            return False
        raise


def _load_family(text: str) -> TailFamily:
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            if not _is_file(raw):
                raise InputError(f"no such family file: {raw}")
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read family file: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"family is not valid JSON: {e}") from e
    try:
        return family_from_json(data)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"bad family descriptor: {e}") from e


def _common_json(args) -> dict:
    return {
        "schema": SCHEMA,
        "command": args.command,
        "depth": args.depth,
        "seed": args.seed,
    }


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a report: dicts with
    str keys, lists, tuples, str, int, bool and None, at the indentation
    `pad` (a newline and the blanks of the current level).  json.dumps with
    an indent runs its pure-Python encoder before Python 3.14; this writer
    leaves only the string quoting to json's C function."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + pad + "]"
    raise TypeError(f"not a report value: {value!r}")


def _emit(args, report: dict, text_lines) -> None:
    if args.fmt == "json":
        print(_dumps(report))
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


def _cmd_analyze(args) -> int:
    f = _require_family(args)
    v_sp = is_sp(f, args.depth)
    v_ihat = test_ihat_sp(f, args.q_list, args.depth)
    v_icsp = test_i_csp(f, args.q_list, args.m_max, args.depth)
    v_csp = test_csp(f, args.depth)

    # the analyze report carries only the certified porosity index; the
    # probe tables live under the blowup command where they are printed
    p_plus = certified_porosity_index(f)
    certs = [
        {"q": format_rational(q), "certificate": certificate_to_json(blowup_certificate(f, q))}
        for q in args.q_list
    ]
    bounds = None
    certified = f.certified_bounds(min(args.q_list), args.m_max)
    if certified is not None:
        beta, window = map(format_rational, certified)
        bounds = {"beta_limsup": beta, "window_liminf": window}
    report = _common_json(args)
    report.update(
        {
            "family": family_to_json(f),
            "q_list": [format_rational(q) for q in args.q_list],
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
        lines.append(f"p+: {report['p_plus']}")
    if bounds is not None:
        lines.append(
            f"beta limsup bound: {bounds['beta_limsup']}; "
            f"window liminf bound at M={args.m_max}: {bounds['window_liminf']}"
        )
    _emit(args, report, lines)
    return 0


def _cmd_blowup(args) -> int:
    f = _require_family(args)
    profiles = []
    lines = []
    for q in args.q_list:
        comps = cc1_components(expand(BlowupOf(f, q), args.depth))
        betas, gammas = component_ratios(comps)
        cert = blowup_certificate(f, q)
        profile = {
            "q": format_rational(q),
            "components": [
                {"lo": format_rational(c.lo), "hi": format_rational(c.hi)}
                for c in comps.blocks
            ],
            "betas": [format_rational(x) for x in betas],
            "gammas": [format_rational(x) for x in gammas],
            "certificate": certificate_to_json(cert),
        }
        profiles.append(profile)
        # the text lines reuse the report's strings: each value is formatted once
        lines.append(f"q={profile['q']}: {len(comps.blocks)} components below 1")
        gammas_text = profile["gammas"] + ["-"]  # no gap below the last one
        for i, c in enumerate(profile["components"]):
            lines.append(
                f"  {i + 1}: ({c['lo']}, {c['hi']})"
                f" beta={profile['betas'][i]} gamma={gammas_text[i]}"
            )
    report = _common_json(args)
    report.update({"family": family_to_json(f), "profiles": profiles})
    _emit(args, report, lines)
    return 0


def _part_to_json(part) -> dict:
    if isinstance(part, CofiniteTail):
        return {"variant": "CofiniteTail", "cut": format_rational(part.cut)}
    return family_to_json(part)


def _cmd_decompose(args) -> int:
    f = _require_family(args)
    if args.n is None:
        raise InputError("decompose needs --n (the part-count parameter)")
    result = decompose_csp(f, args.n, args.q_list[0], args.depth)
    report = _common_json(args)
    report["family"] = family_to_json(f)
    report["q"] = format_rational(args.q_list[0])
    report["n"] = args.n
    if not isinstance(result, DecompositionResult):
        bound = None if result.window_bound is None else format_rational(result.window_bound)
        report["hypothesis_failure"] = {"reason": result.reason, "window_bound": bound}
        suffix = "" if bound is None else f" (window value {bound})"
        _emit(args, report, [f"hypothesis failure: {result.reason}{suffix}"])
        return 2
    report["block_indices"] = list(result.block_indices)
    report["cover_verified_to"] = format_rational(result.cover_verified_to)
    if args.fmt == "json":
        # the text lines print no part's components
        report["parts"] = [_part_to_json(p) for p in result.parts]
        report["part_verdicts"] = [verdict_to_json(v) for v in result.part_verdicts]
    lines = []
    for i, part in enumerate(result.parts[:-1]):
        count = len(part.chain.blocks)
        lines.append(f"part {i + 1}: {count} component{'s' if count != 1 else ''}")
    lines.append(
        f"part {len(result.parts)}: {{0}} u ({format_rational(result.parts[-1].cut)}, inf)"
    )
    lines.append(f"cover verified above {report['cover_verified_to']}")
    _emit(args, report, lines)
    return 0


def _cmd_verify_foundations(args) -> int:
    n = 3 if args.n is None else args.n
    theorem = check_theorem_istar_eq_ihat(n)
    primes = check_prime_iff_maximal(n)
    bad = (
        len(theorem.counterexamples)
        + len(theorem.lemma_counterexamples)
        + len(theorem.corollary_counterexamples)
    )
    report = _common_json(args)
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
    _emit(args, report, lines)
    return 0 if theorem.ok and primes.ok else 2


def _cmd_reproduce_example(args) -> int:
    rep = reproduce_example(args.alpha, args.depth, args.q_list, args.m_max)
    report = _common_json(args)
    report.update(
        {
            "alpha": format_rational(rep.alpha),
            "q_list": [format_rational(q) for q in args.q_list],
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
        f"alpha: {report['alpha']}",
        _verdict_text("Ihat(SP)", rep.ihat_sp),
        _verdict_text("I(CSP)", rep.i_csp),
    ]
    for b in report["bounds"]:
        lines.append(
            f"q={b['q']}: m={b['m']}"
            f" beta_limsup={b['beta_limsup']}"
            f" (exact {b['beta_limsup_exact']})"
        )
        for M, (w, wx) in enumerate(zip(b["window_liminf"], b["window_liminf_exact"])):
            lines.append(f"  M={M}: window_liminf={w} (exact {wx})")
    _emit(args, report, lines)
    return 0


def _require_family(args) -> TailFamily:
    if args.family is None:
        raise InputError(f"{args.command} needs --family")
    return args.family


_COMMANDS = {
    "analyze": _cmd_analyze,
    "blowup": _cmd_blowup,
    "decompose": _cmd_decompose,
    "verify-foundations": _cmd_verify_foundations,
    "reproduce-example": _cmd_reproduce_example,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # hypothesis failures, so turn parse errors into input errors instead
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="porosity-lab", description=__doc__, add_help=True)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--family", help="family descriptor: JSON file path or inline JSON")
    parser.add_argument(
        "--q", dest="q_list", metavar="Q", action="append", help="blow-up factor, repeatable"
    )
    parser.add_argument("--depth", type=int, default=32)
    parser.add_argument("--M", dest="m_max", type=int, default=8, help="largest window size offset")
    parser.add_argument("--n", type=int, default=None, help="universe size / part-count parameter")
    parser.add_argument("--alpha", default="1/2", help="block family parameter in (0, 1)")
    parser.add_argument("--format", dest="fmt", choices=["json", "text"], default="text")
    parser.add_argument("--seed", type=int, default=None, help="echoed into reports for fixtures")
    return parser


# parse_args keeps no state between calls, so one parser serves every main
_PARSER = _build_parser()


def _config_from_args(args) -> argparse.Namespace:
    """Read the q list, alpha and family into the namespace, then check
    depth, M and q in that order; argparse has already checked the rest."""
    args.q_list = tuple(parse_rational(q) for q in (args.q_list or ["2"]))
    args.alpha = parse_rational(args.alpha)
    args.family = None if args.family is None else _load_family(args.family)
    if args.depth < 1:
        raise InputError("depth must be at least 1")
    if args.m_max < 0:
        raise InputError("M must be at least 0")
    if any(q <= 1 for q in args.q_list):
        raise InputError("every q must exceed 1")
    return args


# every character str.splitlines breaks at, mapped to its escape sequence
_ESCAPE_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    # exact values routinely run past the interpreter's default cap on
    # printing long integers; every digit belongs in the report, and the
    # caller's cap comes back when the command ends
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _config_from_args(_PARSER.parse_args(argv))
        # the engines of one command look at the same chains many times over;
        # each is built once, and the memo ends with the command
        with expand_memo():
            return _COMMANDS[args.command](args)
    except (InputError, ValueError) as e:
        # the one input boundary: an unusable input, caught by the parser or
        # by any check below it, is one error line, even when the message
        # quotes raw user text that holds a line break
        print(f"error: {str(e).translate(_ESCAPE_LINE_BREAKS)}", file=sys.stderr)
        return 1
    finally:
        if capped:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
