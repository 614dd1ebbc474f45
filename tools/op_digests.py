"""Print one sha256 per benchmark op outcome, to compare two commits.

Runs every op of the three perfbench workloads (and the defect probes) once
at the given seed and prints, per op, its workload, index, kind and the
sha256 of its outcome: a CLI op's exit code, stdout and stderr, a library
op's result, or the type and message of the exception it raised.  The op
lists come from perfbench/ in this checkout, which is only read; the
package comes from --src, so two commits run the same ops.  A second list,
printed as `generic-paths`, is built here and does not depend on the seed:
the paths of families with no ratio-pair scan; point families whose
x0 > 1 puts the cut below 1 several components down, which no workload op
takes: the workloads draw x0 from (1/2, 1); and blown unions at the edge
cases of their merge; and a union whose interval part straddles the union
horizon, so the merge clips it.

    python3 tools/op_digests.py --seed 1 > head.txt
    python3 tools/op_digests.py --seed 1 --src ../base/src > base.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_modules(src: Path) -> dict:
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"porosity_lab.{name}") for name in spans.MODULES}


# intervals, a point on an interval's open end, and two open ends that touch
INTERVAL_CHAIN = {
    "variant": "ExplicitChain",
    "chain": {
        "blocks": [{"lo": "3/4", "hi": "1"}, {"point": "1/2"}, {"lo": "1/4", "hi": "1/2"},
                   {"lo": "1/8", "hi": "1/4"}, {"lo": "1/400", "hi": "1/100"},
                   {"lo": "1/40000", "hi": "1/20000"}, {"point": "1/1000000"}],
        "upper": "1",
        "horizon": "1/10000000",
    },
}
POINT_UNION = {
    "variant": "UnionOf",
    "parts": [{"variant": "GeometricLadder", "x0": "1", "rho": "2/3"},
              {"variant": "GeometricLadder", "x0": "5/6", "rho": "1/2"}],
}
MIXED_UNION = {
    "variant": "UnionOf",
    "parts": [{"variant": "PatternLadder", "x0": "1", "ratios": ["1/2", "1/8"], "decay": "1/4"},
              INTERVAL_CHAIN],
}
# x0 > 1: the blown chains' first components lie above 1
DEEP_CUTS = (
    {"variant": "GeometricLadder", "x0": "40", "rho": "1/2"},
    {"variant": "SuperGeometricLadder", "x0": "9/2", "rho": "2/3"},
    {"variant": "PatternLadder", "x0": "7", "ratios": ["1/3"], "decay": "1/2"},
    {"variant": "BlowupOf", "q": "2",
     "base": {"variant": "BlowupOf", "q": "3/2",
              "base": {"variant": "PatternLadder", "x0": "7", "ratios": ["1/3"], "decay": "1/2"}}},
)
SUPER_UNION = {
    "variant": "UnionOf",
    "parts": [{"variant": "GeometricLadder", "x0": "1", "rho": "1/5"},
              {"variant": "SuperGeometricLadder", "x0": "3/2", "rho": "1/2"}],
}



def _geometric(x0: str, rho: str) -> dict:
    return {"variant": "GeometricLadder", "x0": x0, "rho": rho}


def _union(*parts: dict) -> dict:
    return {"variant": "UnionOf", "parts": list(parts)}


# blown unions of point families, which merge their parts' scans, at their
# edge cases: blown points of two parts that touch end to end at q = 2
# (1/4 = 1/q^2), a point both parts hold, a part wholly below the union
# horizon at depth 12, and a horizon inside an ExampleFamily block and a
# PatternLadder group, one of them in a nested union; and a union with a
# blown part, which keeps the generic blow-up
EXAMPLE = {"variant": "ExampleFamily", "alpha": "1/2"}
PATTERN = {"variant": "PatternLadder", "x0": "1", "ratios": ["1/2", "1/2"], "decay": "1/2"}
EDGE_UNIONS = (
    _union(_geometric("1", "1/9"), _geometric("1/4", "1/9")),
    _union(_geometric("1", "1/2"), _geometric("1/4", "1/3")),
    _union(_geometric("1", "3/5"), _geometric("1/300", "1/2")),
    _union(EXAMPLE, _geometric("1", "1/2")),
    _union(_union(PATTERN, EXAMPLE), _geometric("1", "3/5")),
    _union(_geometric("1", "1/2"), {"variant": "BlowupOf", "base": PATTERN, "q": "3/2"}),
)
# the union horizon 1/32, the ladder's lowest point at depth 6, falls inside
# the interval (1/40, 1/30), which the merge clips to (1/32, 1/30)
STRADDLE_UNION = _union(
    _geometric("1", "1/2"),
    {"variant": "ExplicitChain",
     "chain": {"blocks": [{"lo": "1/40", "hi": "1/30"}], "upper": "1/30", "horizon": "1/100"}},
)


def generic_paths(mods: dict, family_file: Path) -> list:
    """Ops on the paths of families with no ratio-pair scan: the porosity
    profile and covering blow-up of unions, of blown unions and of a chain
    with intervals; the reports on blown unions, whose blow-ups compose;
    and one analyze that reads its family from `family_file`, which this
    writes.  Then the reports on point families whose cut falls deep, and
    the covering blow-up of one blown, which blows up its scanned chain.
    Then the reports on blown unions at their edge cases (`EDGE_UNIONS`),
    which hold the merge of the parts' scans to the generic blow-up.  Last
    the reports on a union whose merge clips an interval at the union
    horizon (`STRADDLE_UNION`)."""
    tailset = mods["tailset"]
    ops = []
    for spec in (POINT_UNION, MIXED_UNION, {"variant": "BlowupOf", "base": SUPER_UNION, "q": "3/2"},
                 INTERVAL_CHAIN):
        f = tailset.family_from_json(spec)
        ops.append(workloads.Op("profile", "profile", fn="tailset.porosity_profile", args=(f, 16)))
        ops.append(workloads.Op("covering", "covering", fn="blowup.find_covering_blowup", args=(f, 16)))
    for base, q0 in ((MIXED_UNION, "3/2"), (SUPER_UNION, "5/4")):
        family = json.dumps({"variant": "BlowupOf", "base": base, "q": q0})
        for argv in (["blowup", "--q", "5/4", "--q", "3/2", "--format", "text"],
                     ["decompose", "--n", "1", "--q", "5/4", "--format", "json"],
                     ["analyze", "--q", "5/4", "--q", "3/2", "--format", "json"]):
            ops.append(workloads.Op(argv[0], "cli-ok", argv=[*argv, "--family", family, "--depth", "12"]))
    family_file.write_text(json.dumps(MIXED_UNION), encoding="utf-8")
    argv = ["analyze", "--family", str(family_file), "--depth", "12", "--q", "2", "--format", "text"]
    ops.append(workloads.Op("analyze-file", "cli-ok", argv=argv))
    for spec in DEEP_CUTS:
        for argv in (["blowup", "--format", "text"], ["blowup", "--format", "json"],
                     ["decompose", "--n", "1", "--format", "json"], ["analyze", "--format", "json"]):
            argv += ["--q", "3", "--family", json.dumps(spec), "--depth", "12"]
            ops.append(workloads.Op(f"{argv[0]}-deep-cut", "cli-ok", argv=argv))
    f = tailset.family_from_json({"variant": "BlowupOf", "base": DEEP_CUTS[0], "q": "3/2"})
    ops.append(workloads.Op("covering", "covering", fn="blowup.find_covering_blowup", args=(f, 16)))
    for spec in EDGE_UNIONS:
        for family in (spec, {"variant": "BlowupOf", "base": spec, "q": "4/3"}):
            for argv in (["blowup", "--q", "2", "--q", "3/2", "--format", "text"],
                         ["blowup", "--q", "3/2", "--format", "json"],
                         ["decompose", "--n", "1", "--q", "5/4", "--format", "json"]):
                argv += ["--family", json.dumps(family), "--depth", "12"]
                ops.append(workloads.Op(f"{argv[0]}-edge-union", "cli-ok", argv=argv))
    for argv in (["blowup", "--q", "5/4", "--q", "2", "--format", "text"],
                 ["decompose", "--n", "1", "--q", "5/4", "--format", "json"],
                 ["analyze", "--q", "5/4", "--q", "3/2", "--format", "json"]):
        argv += ["--family", json.dumps(STRADDLE_UNION), "--depth", "6"]
        ops.append(workloads.Op(f"{argv[0]}-straddle-union", "cli-ok", argv=argv))
    return ops


def outcome_bytes(outcome) -> bytes:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}".encode()
    return checks._canonical(outcome)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the porosity_lab package (default: this checkout's)")
    args = parser.parse_args(argv)

    mods = load_modules(args.src.resolve())
    lists = {name: workloads.build(name, args.seed, mods) for name in workloads.WORKLOADS}
    lists["defect-probes"] = workloads.defect_probes()
    with tempfile.TemporaryDirectory() as tmp:
        lists["generic-paths"] = generic_paths(mods, Path(tmp) / "family.json")
        for name, ops in lists.items():
            for i, op in enumerate(ops):
                digest = hashlib.sha256(outcome_bytes(run.call(op, mods))).hexdigest()
                print(f"{name} {i} {op.kind} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
