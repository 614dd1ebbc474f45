"""Command-line front end: reproducible reports over the analysis engines.

Five commands: analyze (four class verdicts for one family), blowup (blown
component tables per q), decompose (the 2N+2-part construction),
verify-foundations (exhaustive finite-universe checks), reproduce-example
(the separating block family with its certified bounds).  Reports are
byte-stable for a given argument vector: rationals print as "p/q" strings,
keys are sorted, nothing timestamps.  Exit status 0 means verdicts were
computed, 2 means a hypothesis failure or a counterexample was reported,
1 means the input was unusable.

`main` reads a plain argument vector itself: the command first, then exact
long option names, each followed by a value that does not start with "-";
--q any number of times; --depth, --M, --n and --seed in ASCII digits; and
--format json or text.  Every other vector (-h, --name=value forms,
abbreviations, negative numbers, unknown tokens, a missing value) goes to
argparse, which is imported and set up only then, so its usage and error
lines, exit codes and help text are what the user sees.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .blowup import cc1_components
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
    MAX_NESTING,
    BlowupOf,
    TailFamily,
    blowup_certificate,
    certificate_to_json,
    component_ends_text,
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
    except RecursionError:
        # json gives up on a nesting far deeper than family_from_json takes
        raise InputError(f"bad family descriptor: nested deeper than {MAX_NESTING} families")
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


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a report: dicts with
    str keys, lists, tuples, str, int, bool and None.  json.dumps with an
    indent runs its pure-Python encoder before Python 3.14; this writer
    leaves only the string quoting to json's C function, and joins the
    report's fragments once, at the end."""
    out = []
    _dump(value, "\n", out.append)
    return "".join(out)


def _dump(value, pad: str, put) -> None:
    # `pad` is a newline and the blanks of the current level; `put` takes
    # each fragment in order
    t = type(value)
    if t is str:
        put(encode_basestring_ascii(value))
    elif t is dict:
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(value):
            put(sep)
            put(encode_basestring_ascii(k))
            put(": ")
            _dump(value[k], inner, put)
            sep = "," + inner
        put(pad + "}" if value else "{}")
    elif t is list or t is tuple:
        inner = pad + "  "
        sep = "[" + inner
        for v in value:
            put(sep)
            _dump(v, inner, put)
            sep = "," + inner
        put(pad + "]" if value else "[]")
    elif t is int:
        put(int.__repr__(value))
    elif t is bool:
        put("true" if value else "false")
    elif value is None:
        put("null")
    else:
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

    # the analyze report carries only the certified porosity index; no
    # command prints probe tables (blowup prints components, betas, gammas)
    p_plus = f.porosity_index()
    p_plus = None if p_plus is None else format_rational(p_plus)
    bounds = None
    certified = f.certified_bounds(min(args.q_list), args.m_max)
    if certified is not None:
        beta, window = map(format_rational, certified)
        bounds = {"beta_limsup": beta, "window_liminf": window}
    report = _common_json(args)
    if args.fmt == "json":
        # the text lines print no family, verdict table or certificate
        report.update(
            {
                "family": family_to_json(f),
                "q_list": [format_rational(q) for q in args.q_list],
                "p_plus": p_plus,
                "verdicts": {
                    "SP": verdict_to_json(v_sp),
                    "CSP": verdict_to_json(v_csp),
                    "I_CSP": verdict_to_json(v_icsp),
                    "Ihat_SP": verdict_to_json(v_ihat),
                },
                "certificates": [
                    {
                        "q": format_rational(q),
                        "certificate": certificate_to_json(blowup_certificate(f, q)),
                    }
                    for q in args.q_list
                ],
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
        lines.append(f"p+: {p_plus}")
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
            "components": [{"lo": lo, "hi": hi} for lo, hi in component_ends_text(comps)],
            "betas": [format_rational(x) for x in betas],
            "gammas": [format_rational(x) for x in gammas],
            "certificate": certificate_to_json(cert),
        }
        profiles.append(profile)
        if args.fmt == "json":
            continue
        # the text lines reuse the report's strings: each value is formatted once
        lines.append(f"q={profile['q']}: {len(betas)} components below 1")
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
    (q,) = args.q_list
    result = decompose_csp(f, args.n, q, args.depth)
    report = _common_json(args)
    report["family"] = family_to_json(f)
    report["q"] = format_rational(q)
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
    # only this command reads ideal_core, so only it pays for the import;
    # the checks are looked up on the module, where a wrapper set from
    # outside sees them
    from . import ideal_core

    n = 3 if args.n is None else args.n
    theorem = ideal_core.check_theorem_istar_eq_ihat(n)
    primes = ideal_core.check_prime_iff_maximal(n)
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


# every option: the namespace field it sets, its default, and the rest of
# its argparse declaration.  `_read_argv` reads the same table: a "type" is
# int, and an "action" is --q's append
_OPTIONS = {
    "--family": ("family", None, {"help": "family descriptor: JSON file path or inline JSON"}),
    "--q": (
        "q_list", None, {"metavar": "Q", "action": "append", "help": "blow-up factor, repeatable"}
    ),
    "--depth": ("depth", 32, {"type": int}),
    "--M": ("m_max", 8, {"type": int, "help": "largest window size offset"}),
    "--n": ("n", None, {"type": int, "help": "universe size / part-count parameter"}),
    "--alpha": ("alpha", "1/2", {"help": "block family parameter in (0, 1)"}),
    "--format": ("fmt", "text", {"choices": ["json", "text"]}),
    "--seed": ("seed", None, {"type": int, "help": "echoed into reports for fixtures"}),
}
_DEFAULTS = {field: default for field, default, _ in _OPTIONS.values()}


def _read_argv(argv: list) -> SimpleNamespace | None:
    """The namespace argparse gives for a plain argument vector (see the
    module docstring), or None for any other vector, which argparse then
    reads."""
    if len(argv) % 2 == 0 or type(argv[0]) is not str or argv[0] not in _COMMANDS:
        return None
    fields = dict(_DEFAULTS, command=argv[0])
    q_list = []
    for i in range(1, len(argv), 2):
        name, value = argv[i], argv[i + 1]
        option = _OPTIONS.get(name) if type(name) is str else None
        if option is None or type(value) is not str or value[:1] == "-":
            return None
        field, _, declared = option
        if "action" in declared:
            q_list.append(value)
            continue
        if "type" in declared:
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif "choices" in declared and value not in declared["choices"]:
            return None
        fields[field] = value
    if q_list:
        fields["q_list"] = q_list
    return SimpleNamespace(**fields)


@cache
def _parser():
    """The argparse parser for every argument vector `_read_argv` leaves,
    built on first use; parse_args keeps no state between calls, so one
    serves every main."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad flags; the contract reserves 2
        # for hypothesis failures, so turn parse errors into input errors
        def error(self, message):
            raise InputError(message)

    # the help text describes the commands and reports, not how main reads
    # its argv: the docstring up to that paragraph
    description = __doc__.partition("\n`main` reads")[0]
    parser = _Parser(prog="porosity-lab", description=description, add_help=True)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    for name, (field, default, declared) in _OPTIONS.items():
        parser.add_argument(name, dest=field, default=default, **declared)
    return parser


# the commands that read no family, which refuse one rather than ignore it
_NO_FAMILY = ("verify-foundations", "reproduce-example")


def _config_from_args(args):
    """Refuse a --family the command does not read and a second --q to
    decompose, read the q list, alpha and family into the namespace, then
    check depth, M and q in that order; `_read_argv` or argparse has
    already checked the rest."""
    if args.family is not None and args.command in _NO_FAMILY:
        raise InputError(f"{args.command} takes no --family")
    if args.command == "decompose" and args.q_list is not None and len(args.q_list) > 1:
        raise InputError("decompose takes one --q")
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
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _config_from_args(_read_argv(argv) or _parser().parse_args(argv))
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
