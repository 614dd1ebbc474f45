import collections
import contextlib
import copy
import io
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porosity_lab import cli, tailset
from porosity_lab.cli import main

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
    ]
    for family, message in cases:
        code, out, err = run_cli(capsys, "analyze", "--family", family)
        assert code == 1
        assert out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1


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


# the checks run in one order: the q list, alpha and family are read first,
# then depth, M and every q > 1 are checked, so the first bad input names it
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


# report-shaped values: str keys; strings with non-ASCII letters, control
# characters, quotes, backslashes and line breaks; ints past 64 bits
_report_scalars = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.text()
_report_values = st.recursive(
    _report_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_report_values)
@example({})
@example([])
@example(())
@example({"b": [], "a": {}, "c": (), "": [[]]})
@example({"s\u00e9\n\x00\x1f\u2028\"\\": ["\U0001f600", "\ud83d", "\x7f", "\u00ff", 0, -1, True, None]})
@example([(1, (2, ())), {"k": ({"x": False},)}])
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
    # the parser is built once at import; a call that fails halfway through
    # parsing must leave nothing behind for the next one
    code, _, err = run_cli(capsys, "analyze", "--family", SUP, "--q", "5", "--q", "7", "--depth", "deep")
    assert code == 1 and err.startswith("error:")
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", SUP, "--q", "2", "--q", "3/2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["q_list"] == ["2", "3/2"]
        assert report["depth"] == 32


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
