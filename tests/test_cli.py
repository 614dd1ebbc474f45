import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
