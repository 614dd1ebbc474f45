import collections
import contextlib
import copy
import decimal
import io
import json
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porosity_lab import cli, tailset
from porosity_lab.cli import main
from porosity_lab.tailset import MAX_NESTING

GEO = '{"variant":"GeometricLadder","x0":"1","rho":"1/2"}'
EXA = '{"variant":"ExampleFamily","alpha":"1/2"}'
PAT = '{"variant":"PatternLadder","x0":"1","ratios":["1/2","1/8"],"decay":"1/4"}'
SUP = '{"variant":"SuperGeometricLadder","x0":"1","rho":"1/2"}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_geometric_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", GEO, "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert "SP: definite false" in lines
    assert "Ihat(SP): definite false" in lines
    assert "p+: 1/2" in lines


def test_analyze_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", GEO, "--q", "2", "--format", "json", "--seed", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "porosity-lab/1"
    assert report["command"] == "analyze"
    assert report["seed"] == 5
    assert report["q_list"] == ["2"]
    assert report["p_plus"] == "1/2"
    assert report["bounds"] is None
    assert set(report["verdicts"]) == {"SP", "CSP", "I_CSP", "Ihat_SP"}
    assert report["verdicts"]["SP"] == {
        "kind": "definite",
        "value": False,
        "certificate": {
            "kind": "ExplicitLimit",
            "limsup_beta": "2",
            "gamma_tends_to_infinity": False,
        },
        "note": report["verdicts"]["SP"]["note"],
    }
    assert report["certificates"][0]["q"] == "2"


def test_analyze_example_carries_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", EXA, "--q", "3", "--M", "8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["bounds"] == {"beta_limsup": "7", "window_liminf": "2048"}
    assert report["verdicts"]["Ihat_SP"]["value"] is True
    assert report["verdicts"]["I_CSP"]["value"] is False


def test_verify_foundations_text_line(capsys):
    code, out, _ = run_cli(capsys, "verify-foundations", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "20 down-set bases scanned, 0 counterexamples to I* = Î"


def test_verify_foundations_json(capsys):
    code, out, _ = run_cli(capsys, "verify-foundations", "--n", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["families_scanned"] == 6
    assert report["ideal_counterexamples"] == 0
    assert report["prime_count"] == 2
    assert report["maximal_count"] == 2
    assert report["prime_maximal_counterexamples"] == 0


def test_reproduce_example_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "reproduce-example",
        "--alpha", "1/2", "--q", "3", "--M", "8", "--depth", "10",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["Ihat_SP"]["value"] is True
    assert report["verdicts"]["I_CSP"]["value"] is False
    (bounds,) = report["bounds"]
    assert bounds["m"] == 2
    assert bounds["beta_limsup"] == "7"
    assert len(bounds["window_liminf"]) == 9
    assert bounds["window_liminf"][8] == "2048"


def test_decompose_pattern_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--family", PAT, "--q", "2", "--n", "2", "--depth", "16",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["parts"]) == 6
    assert report["parts"][-1]["variant"] == "CofiniteTail"
    assert all(p["variant"] == "ExplicitChain" for p in report["parts"][:-1])
    assert len(report["block_indices"]) >= 2
    assert "/" in report["cover_verified_to"]


def test_decompose_example_is_hypothesis_failure(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--family", EXA, "--q", "2", "--n", "3", "--depth", "12",
        "--format", "json",
    )
    assert code == 2
    report = json.loads(out)
    assert report["hypothesis_failure"]["window_bound"] == "64"
    assert "parts" not in report


def test_blowup_tables(capsys):
    code, out, _ = run_cli(
        capsys, "blowup", "--family", SUP, "--q", "2", "--depth", "6", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    (profile,) = report["profiles"]
    assert profile["betas"] == ["4", "4", "4", "4"]
    assert len(profile["gammas"]) == 3
    assert profile["certificate"]["kind"] == "ExplicitLimit"
    assert profile["components"][0] == {"lo": "1/16", "hi": "1/4"}


def test_family_from_file(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(GEO)
    code, out, _ = run_cli(capsys, "analyze", "--family", str(fam), "--q", "2")
    assert code == 0
    assert "p+: 1/2" in out


def test_unreadable_family_files_are_input_errors(tmp_path, capsys):
    latin1 = tmp_path / "fam.json"
    latin1.write_bytes(GEO.replace("1/2", "\u00bd").encode("latin-1"))
    cases = [
        (str(latin1), "error: cannot read family file: 'utf-8' codec can't decode"),
        # a name too long to look up is an error of its own, not a missing file
        ("x" * 300, "error: cannot read family file: [Errno"),
        (str(tmp_path), f"error: no such family file: {tmp_path}\n"),
        (str(tmp_path / "none.json"), f"error: no such family file: {tmp_path}/none.json\n"),
        (str(latin1 / "x"), f"error: no such family file: {latin1}/x\n"),
        # os.stat refuses a path holding a NUL byte with ValueError
        ("fam\x00.json", "error: no such family file: fam\x00.json\n"),
    ]
    for family, message in cases:
        code, out, err = run_cli(capsys, "analyze", "--family", family)
        assert code == 1
        assert out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1


def _nested(kind: str, levels: int) -> str:
    """A descriptor with `levels` families on its deepest path: PAT inside
    BlowupOf or UnionOf wrappers, written out without json.dumps, which
    would recurse once per level."""
    head, tail = {
        "BlowupOf": ('{"variant":"BlowupOf","base":', ',"q":"1001/1000"}'),
        "UnionOf": ('{"variant":"UnionOf","parts":[', "," + PAT + "]}"),
    }[kind]
    return head * (levels - 1) + PAT + tail * (levels - 1)


NESTED_COMMANDS = [("analyze",), ("blowup", "--q", "2"), ("decompose", "--n", "1", "--q", "2")]


@pytest.mark.parametrize("kind", ["BlowupOf", "UnionOf"])
@pytest.mark.parametrize("command", NESTED_COMMANDS, ids=lambda c: c[0])
def test_a_family_nested_at_the_limit_is_read(capsys, kind, command):
    family = _nested(kind, MAX_NESTING)
    code, out, err = run_cli(capsys, *command, "--depth", "8", "--family", family)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("kind", ["BlowupOf", "UnionOf"])
@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 5000])
@pytest.mark.parametrize("command", NESTED_COMMANDS, ids=lambda c: c[0])
def test_a_family_nested_too_deep_is_one_error_line(tmp_path, capsys, kind, levels, command):
    # past about 1,000 levels json itself may give up first: the same line
    fam = tmp_path / "fam.json"
    fam.write_text(_nested(kind, levels))
    code, out, err = run_cli(capsys, *command, "--family", str(fam))
    message = f"error: bad family descriptor: nested deeper than {MAX_NESTING} families\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "[1,\n 2]"),
        ("analyze", "--family", GEO, "extra\narg"),
        ("analyze", "--family", "a\rb\x85c\u2028d"),
    ],
)
def test_line_breaks_in_user_text_stay_on_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "\\n" in err or "\\r" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "argv, want",
    [
        (("blowup", "--family", SUP, "--depth", "4"), 0),
        (("analyze", "--family", GEO, "--q", "1"), 1),
        (("no-such-command",), 1),
    ],
)
def test_main_restores_the_digit_limit(capsys, argv, want):
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert run_cli(capsys, *argv)[0] == want
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_blowup_ignores_the_callers_decimal_context(capsys, monkeypatch, fmt):
    # the scanned ends print from decimal text on the package's own exact
    # context: a three-digit context around the call changes no byte, and
    # the caller gets its context back untouched
    argv = ("blowup", "--family", EXA, "--depth", "12", "--q", "2", "--q", "4/3", "--format", fmt)
    want = run_cli(capsys, *argv)
    assert len(want[1]) > 2000  # ends far longer than three digits
    with decimal.localcontext(decimal.Context(prec=3)) as ctx:
        monkeypatch.setattr(decimal, "getcontext", mock.Mock(side_effect=AssertionError))
        assert run_cli(capsys, *argv) == want
        monkeypatch.undo()
        assert decimal.getcontext() is ctx
        assert ctx.prec == 3 and not any(ctx.flags.values())


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--q", "2"),
        ("analyze", "--family", GEO, "--q", "1"),
        ("analyze", "--family", GEO, "--q", "0.5"),
        ("analyze", "--family", "{broken json", "--q", "2"),
        ("analyze", "--family", '{"variant":"NoSuchFamily"}', "--q", "2"),
        ("analyze", "--family", GEO, "--depth", "0"),
        ("decompose", "--family", PAT, "--q", "2"),
        ("reproduce-example", "--alpha", "3/2"),
        ("verify-foundations", "--n", "9"),
        ("no-such-command",),
        ("analyze", "--family", GEO, "--format", "yaml"),
    ],
)
def test_input_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ("verify-foundations", "--n", "2", "--family", GEO),
            "error: verify-foundations takes no --family",
        ),
        (
            ("verify-foundations", "--family", '{"variant":"NoSuchFamily"}'),
            "error: verify-foundations takes no --family",
        ),
        (
            ("reproduce-example", "--alpha", "1/3", "--family", EXA),
            "error: reproduce-example takes no --family",
        ),
        (("reproduce-example", "--family=" + PAT), "error: reproduce-example takes no --family"),
        (
            ("decompose", "--family", PAT, "--n", "2", "--q", "2", "--q", "3"),
            "error: decompose takes one --q",
        ),
        (("decompose", "--family", PAT, "--n", "2", "--q=2", "--q=2"), "error: decompose takes one --q"),
    ],
)
def test_options_a_command_would_not_read_are_refused(capsys, argv, line):
    # a family these commands never load, or a q decompose would never use,
    # is one error line rather than silently ignored
    assert run_cli(capsys, *argv) == (1, "", line + "\n")


# the checks run in one order: an option the command refuses comes first,
# the q list, alpha and family are read next, then depth, M and every q > 1
# are checked, so the first bad input names it
@pytest.mark.parametrize(
    "argv, line",
    [
        (("--family", GEO, "--depth", "0", "--q", "1/2"), "error: depth must be at least 1"),
        (("--family", GEO, "--depth", "0", "--M", "-1"), "error: depth must be at least 1"),
        (("--family", GEO, "--M", "-1", "--q", "1"), "error: M must be at least 0"),
        (("--family", GEO, "--q", "0.5", "--depth", "0"), "error: not an exact rational: '0.5'"),
        (
            ("--family", "{broken", "--depth", "0"),
            "error: family is not valid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)",
        ),
    ],
)
def test_input_errors_are_reported_in_a_fixed_order(capsys, argv, line):
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert (code, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", GEO, "--q", "inf"),
        ("analyze", "--family", '{"variant":"GeometricLadder","x0":"inf","rho":"1/2"}'),
    ],
)
def test_infinite_inputs_are_input_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "not an exact rational" in err


@pytest.mark.parametrize(
    "family, message",
    [
        ('{"variant":"GeometricLadder","x0":1,"rho":"1/2"}', "quoted strings"),
        ('{"variant":"GeometricLadder","x0":"1","rho":0.5}', "quoted strings"),
        (
            '{"variant":"PatternLadder","x0":"1","ratios":"12","decay":"1/4"}',
            "bad family descriptor",
        ),
        # values out of range are bad descriptors too
        ('{"variant":"PatternLadder","x0":"0","ratios":["1/2"],"decay":"1/4"}', "x0 must be positive"),
        ('{"variant":"PatternLadder","x0":"-1","ratios":["1/2"],"decay":"1/4"}', "x0 must be positive"),
        ('{"variant":"PatternLadder","x0":"1","ratios":["1/2"],"decay":"0"}', "decay must lie in (0, 1)"),
        ('{"variant":"PatternLadder","x0":"1","ratios":["1/2"],"decay":"1"}', "decay must lie in (0, 1)"),
        (
            '{"variant":"ExplicitChain","chain":{"blocks":[],"upper":"0","horizon":"0"}}',
            "upper edge must be positive",
        ),
    ],
)
def test_mistyped_descriptor_fields_are_input_errors(capsys, family, message):
    code, out, err = run_cli(capsys, "analyze", "--family", family)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err


_DESCRIPTORS = [json.loads(d) for d in (GEO, EXA, PAT, SUP)] + [
    {
        "variant": "ExplicitChain",
        "chain": {
            "blocks": [{"point": "1/2"}, {"lo": "1/8", "hi": "1/4"}],
            "upper": "1",
            "horizon": "0",
        },
    },
    {"variant": "UnionOf", "parts": [json.loads(GEO), json.loads(EXA)]},
    {"variant": "BlowupOf", "base": json.loads(GEO), "q": "2"},
]

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path to every value inside a descriptor, its root included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mangled_descriptors(draw):
    """A valid descriptor with one of its values, or all of it, replaced by
    an arbitrary JSON value."""
    descriptor = copy.deepcopy(draw(st.sampled_from(_DESCRIPTORS)))
    path = draw(st.sampled_from(list(_paths(descriptor))))
    value = draw(_json_values)
    if not path:
        return value
    node = descriptor
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return descriptor


@settings(max_examples=200, deadline=None, database=None)
@given(
    _mangled_descriptors(),
    st.sampled_from([("analyze",), ("blowup",), ("decompose", "--n", "1")]),
)
# not inline JSON, so read as a file name, and one too long for the file system
@example(
    [
        None,
        [],
        {
            "0": None,
            "00\x1f\x1f\x0b\U00010000": None,
            "00\x1f\x1f\x1f\U00010000": {
                '0"\x1f\x1f\x1f\U00010000': None,
                "\x1f\x1f\x1f\x1f\U00010000\U00010000": None,
                "\x1f\x1f\x1f\x07\x07\U00010000": None,
            },
        },
    ],
    ("analyze",),
)
def test_any_descriptor_gets_a_report_or_one_error_line(descriptor, command):
    argv = [*command, "--family", json.dumps(descriptor), "--depth", "4"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        (
            "decompose",
            "--family",
            '{"variant":"BlowupOf","base":{"variant":"ExampleFamily","alpha":"1/5"},"q":"2"}',
            "--n",
            "1",
        ),
        (
            "blowup",
            "--family",
            '{"variant":"SuperGeometricLadder","x0":"1","rho":"7/11"}',
            "--depth",
            "96",
        ),
    ],
)
def test_reports_print_integers_past_the_default_digit_limit(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # the interpreter refuses to print integers of more than 4,300 digits
    # unless the limit is lifted
    assert max(len(digits) for digits in re.findall(r"\d+", out)) > 4300


def test_reports_are_byte_stable(capsys):
    args = (
        "analyze", "--family", PAT, "--q", "2", "--q", "3",
        "--seed", "11", "--format", "json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first)["seed"] == 11


def _deeply_nested(levels):
    value = 'a "quoted"\n\x00 leaf'
    for i in range(levels):
        value = ({"k": value, "": None}, [i, True]) if i % 2 else [{"z\t": value}]
    return value


# report-shaped values: str keys; strings with non-ASCII letters, control
# characters, quotes, backslashes and line breaks, some made mostly of what
# json escapes; ints past 64 bits.  The writer appends every fragment to one
# list, at every nesting level
_escaped_text = st.text(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f \u00e9\U0001f600a'), max_size=8)
_report_scalars = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.text() | _escaped_text
)
_report_values = st.recursive(
    _report_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6) | _escaped_text, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_report_values)
@example({})
@example([])
@example(())
@example({"b": [], "a": {}, "c": (), "": [[]]})
@example({"s\u00e9\n\x00\x1f\u2028\"\\": ["\U0001f600", "\ud83d", "\x7f", "\u00ff", 0, -1, True, None]})
@example([(1, (2, ())), {"k": ({"x": False},)}])
@example(_deeply_nested(40))
def test_report_writer_is_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_decompose_text_reads_the_json_report(capsys):
    # the text lines, which no longer come from the report's parts, say
    # what the JSON report says
    args = ("decompose", "--family", PAT, "--q", "2", "--n", "2", "--depth", "16")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    report = json.loads(out)
    code, text, _ = run_cli(capsys, *args)
    assert code == 0
    parts = report["parts"]
    lines = []
    for i, part in enumerate(parts[:-1]):
        count = len(part["chain"]["blocks"])
        lines.append(f"part {i + 1}: {count} component{'s' if count != 1 else ''}")
    lines.append(f"part {len(parts)}: {{0}} u ({parts[-1]['cut']}, inf)")
    lines.append(f"cover verified above {report['cover_verified_to']}")
    assert text.splitlines() == lines


def test_analyze_without_accumulation_is_input_error(capsys):
    fam = json.dumps(
        {
            "variant": "ExplicitChain",
            "chain": {
                "blocks": [{"point": "1/2"}, {"point": "1/4"}],
                "upper": "1",
                "horizon": "0",
            },
        }
    )
    code, _, err = run_cli(capsys, "analyze", "--family", fam, "--q", "2")
    assert code == 1
    assert "accumulation" in err


def test_parser_keeps_no_state_between_calls(capsys):
    # argparse's parser is built on first use and kept; a call that fails
    # halfway through parsing must leave nothing behind for the next one.
    # The "=" forms keep every call here on argparse's path
    failing = ("analyze", "--family", SUP, "--q=5", "--q", "7", "--depth", "deep")
    passing = ("analyze", "--family", SUP, "--q=2", "--q", "3/2", "--format=json")
    assert cli._read_argv(list(failing)) is None and cli._read_argv(list(passing)) is None
    code, _, err = run_cli(capsys, *failing)
    assert code == 1 and err.startswith("error:")
    for _ in range(2):
        code, out, _ = run_cli(capsys, *passing)
        assert code == 0
        report = json.loads(out)
        assert report["q_list"] == ["2", "3/2"]
        assert report["depth"] == 32


# the argv reader: every token it meets in a plain argv, and the spellings it
# leaves to argparse
_ARGV_COMMANDS = sorted(cli._COMMANDS) + ["scan", "-h"]
_ARGV_NAMES = list(cli._OPTIONS)
_ARGV_ODD = [
    "-h", "--help", "--", "--dep", "--fam", "--for", "--se", "--q=2", "--q=-3",
    "--depth=4", "--M=2", "--format=json", "--family=" + GEO, "--speed", "--Q", "-q",
]
_ARGV_VALUES = [
    GEO, PAT, "2", "3/2", "5/2", "4", "1", "0", "07", "8", "json", "text", "yaml",
    "1/3", "", "-1", "-3", "-1/2", " 4", "+4", "1_0", "\u0663", "\uff14", "\u00b2", "analyze",
]

# values each option takes, so that plain argv are drawn often
_ARGV_FITTING = {
    "--family": [GEO, PAT],
    "--q": ["2", "3/2", "5/2"],
    "--alpha": ["1/3", "2/5"],
    "--format": ["json", "text"],
    **{name: ["0", "1", "2", "4", "07"] for name in ("--depth", "--M", "--n", "--seed")},
}


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from(_ARGV_COMMANDS))] if draw(st.integers(0, 7)) else []
    pair = st.sampled_from(_ARGV_NAMES).flatmap(
        lambda name: st.tuples(
            st.just(name), st.sampled_from(_ARGV_FITTING[name]) | st.sampled_from(_ARGV_VALUES)
        )
    ).map(list)
    single = st.sampled_from(_ARGV_ODD + _ARGV_NAMES + _ARGV_VALUES).map(lambda token: [token])
    for chunk in draw(st.lists(st.one_of(pair, pair, pair, pair, pair, single), max_size=5)):
        argv += chunk
    if not draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(_ARGV_NAMES)))  # a missing trailing value
    return argv


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse's -h
            code = ("exit", e.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, database=None)
@given(_argvs())
@example(["analyze", "--family", GEO, "--q", "2", "--q", "3/2", "--depth", "8", "--format", "json"])
@example(["reproduce-example", "--alpha", "1/3", "--M", "2", "--depth", "4", "--seed", "07"])
@example(["verify-foundations", "--n", "2", "--n", "1", "--format", "text", "--format", "json"])
@example(["analyze", "--dep", "4", "--q=2", "--family", GEO])
@example(["-h"])
@example(["blowup", "--family", GEO, "-h"])
@example(["analyze", "--family", GEO, "--depth", "-2"])
@example(["analyze", "--family", GEO, "--depth", "\u0663"])
@example(["analyze", "--family", GEO, "--depth", "\u00b2"])
@example(["analyze", "--family", GEO, "--q"])
@example(["analyze", "--family", "-h"])
@example(["analyze", "--family", "", "--format", "yaml"])
@example([])
def test_the_argv_reader_agrees_with_argparse(argv):
    # the reader takes a namespace only where argparse gives the same one,
    # and main answers every argv as the argparse-only path does
    read = cli._read_argv(list(argv))
    if read is not None:
        assert vars(read) == vars(cli._parser().parse_args(list(argv)))
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        via_argparse = _outcome(argv)
    assert _outcome(argv) == via_argparse


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", GEO],
        ["blowup", "--family", PAT, "--q", "2", "--q", "5/2", "--depth", "12", "--format", "text"],
        ["decompose", "--family", PAT, "--n", "2", "--q", "3/2", "--seed", "0"],
        ["reproduce-example", "--alpha", "2/5", "--M", "6", "--q", "3", "--format", "json"],
        ["verify-foundations", "--n", "4"],
    ],
)
def test_plain_argv_skips_argparse(argv):
    assert vars(cli._read_argv(argv)) == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["analyze", "--help"],
        ["analyze", "--family=" + GEO],
        ["analyze", "--fam", GEO],
        ["analyze", "--family", GEO, "--q", "-3"],
        ["analyze", "--family", GEO, "--depth", "+8"],
        ["analyze", "--family", GEO, "--depth", "\u0668"],
        ["analyze", "--family", GEO, "--format", "yaml"],
        ["analyze", "--family"],
        ["analyze", "--family", GEO, "extra"],
        ["--family", GEO, "analyze"],
        ["scan", "--family", GEO],
    ],
)
def test_other_argv_goes_to_argparse(argv):
    assert cli._read_argv(argv) is None


# no closed form, so all four engines fall back to their empirical paths
UNION_EXPLICIT = json.dumps(
    {
        "variant": "UnionOf",
        "parts": [
            json.loads(SUP),
            {
                "variant": "ExplicitChain",
                "chain": {
                    "blocks": [{"point": "1/2"}, {"point": "1/5"}, {"point": "1/13"}],
                    "upper": "1/2",
                    "horizon": "1/13",
                },
            },
        ],
    }
)
UNION_ANALYZE = ("analyze", "--family", UNION_EXPLICIT, "--depth", "24", "--q", "2", "--q", "3/2")


@pytest.fixture
def builds(monkeypatch):
    """How often each (family, depth) chain gets built."""
    counts = collections.Counter()
    for cls in (tailset._PointFamily, tailset.ExplicitChain, tailset.UnionOf, tailset.BlowupOf):
        def counting(self, depth, build=cls._expand):
            counts[self, depth] += 1
            return build(self, depth)

        monkeypatch.setattr(cls, "_expand", counting)
    return counts


def test_one_command_builds_each_chain_once(capsys, builds):
    code, out, _ = run_cli(capsys, *UNION_ANALYZE)
    assert code == 0 and "empirical" in out
    union = tailset.family_from_json(json.loads(UNION_EXPLICIT))
    closed_form, explicit = union.parts
    # the union, its closed-form part, and the union's blow-ups, each at
    # full and at half depth; the explicit chain, the same at every depth,
    # once.  Only the union runs the empirical fallbacks, so the explicit
    # part is never blown up on its own
    at_both = [union, closed_form] + [tailset.BlowupOf(union, q) for q in (2, Fraction(3, 2))]
    assert builds == {
        **{(f, depth): 1 for f in at_both for depth in (24, 12)},
        (explicit, 24): 1,
    }


def test_nothing_is_memoized_across_commands(capsys, builds):
    run_cli(capsys, *UNION_ANALYZE)
    first = dict(builds)
    run_cli(capsys, *UNION_ANALYZE)
    assert builds == {key: 2 * n for key, n in first.items()}


def test_bare_expand_is_not_memoized(builds):
    f = tailset.SuperGeometricLadder(1, Fraction(1, 2))
    tailset.expand(f, 8)
    tailset.expand(f, 8)
    assert builds[f, 8] == 2


def test_memo_ends_with_a_failing_command(capsys, builds):
    # the command fails inside its memo scope
    no_accumulation = json.loads(UNION_EXPLICIT)["parts"][1]
    code, _, err = run_cli(capsys, "analyze", "--family", json.dumps(no_accumulation))
    assert code == 1 and "accumulation" in err
    assert tailset._EXPAND_MEMO.get() is None


@pytest.fixture
def per_q_calls(monkeypatch):
    """How often each per-q method of a point family computes, by (method,
    q)."""
    counts = collections.Counter()
    for cls, name in (
        (tailset._PointFamily, "_late_components"),
        (tailset.ExampleFamily, "_late_block"),
        (tailset.ExampleFamily, "smallest_exponent"),
    ):
        def counting(self, q, compute=getattr(cls, name).__wrapped__, name=name):
            counts[name, q] += 1
            return compute(self, q)

        monkeypatch.setattr(cls, name, tailset._once_per_q(counting))
    return counts


def test_one_command_does_its_per_q_work_once(capsys, per_q_calls):
    qs = (2, Fraction(3, 2))
    argv = ("analyze", "--family", EXA, "--q", "2", "--q", "3/2", "--format", "json")
    assert run_cli(capsys, *argv)[0] == 0
    # every q's certificate, and the smallest q's rules and bounds
    assert per_q_calls == {
        **{("_late_components", q): 1 for q in qs},
        **{("_late_block", q): 1 for q in qs},
        ("smallest_exponent", Fraction(3, 2)): 1,
    }
    per_q_calls.clear()
    argv = ("reproduce-example", "--q", "2", "--q", "3/2", "--M", "8")
    assert run_cli(capsys, *argv)[0] == 0
    names = ("_late_components", "_late_block", "smallest_exponent")
    assert per_q_calls == {(name, q): 1 for q in qs for name in names}


def test_per_q_work_outside_a_command_is_not_memoized(per_q_calls):
    f = tailset.ExampleFamily(Fraction(1, 2))
    f.window_liminf(Fraction(2), 1)
    f.window_liminf(Fraction(2), 2)
    assert per_q_calls == {("smallest_exponent", 2): 2}
