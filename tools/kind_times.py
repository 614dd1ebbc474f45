"""Time two package trees op by op in one process, per benchmark op kind.

Loads the porosity_lab package from two source trees under two names
(`base_lab` and `head_lab`), builds one workload's op list for each, and
runs every op on both sides in turn, swapping which side goes first from
op to op and from pass to pass.  Per op it keeps each side's best time;
per op kind it prints the sums of those best times, the kind's share of
base's pass (the sum of base's best times over all ops), their ratio (head
over base) and in how many ops head was faster.  A last line gives both
sides' pass totals and their ratio, against which a kind's ratio can be
read: a kind with a 2% share moves the pass by 2% of its own change.
Outputs are not compared: `tools/op_digests.py` does that.

    python3 tools/kind_times.py --base ../base/src --workload report-mix --seed 1

Base is loaded first.  With one tree on both sides (`--base src`, an A/A
run) on a 2-core host with Python 3.11.7, 5 passes per op, every kind of
the report-mix and deep-scan workloads read a ratio between 0.979 and
1.021; the kinds of ops under 0.2 ms spread the most, and leaned slower on
the side loaded second (covering/geometric, 0.04 ms per op, 1.021;
analyze/geometric 1.018).  A ratio inside that band shows no difference.
Kinds of one op each pool into one row per prefix, such as report-mix's
`malformed/*` (23 ops of 15-90 us): one of them alone read 0.88 to 1.08 in
an A/A run at seed 1 with 7 passes, and the pooled row read 0.984 to 1.003
in seven A/A runs at seeds 1 and 3 with 7 passes each, same host.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_tree(src: Path, name: str) -> dict:
    """The modules of the porosity_lab package in `src`, imported as the
    package `name`, by module name."""
    init = src / "porosity_lab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in spans.MODULES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="src/ directory of the base tree")
    parser.add_argument("--head", type=Path, default=ROOT / "src",
                        help="src/ directory of the head tree (default: this checkout's)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)

    order = ("base", "head")
    mods = {side: load_tree(getattr(args, side).resolve(), f"{side}_lab") for side in order}
    ops = {side: workloads.build(args.workload, args.seed, mods[side]) for side in order}
    best = {side: [float("inf")] * len(ops[side]) for side in order}
    clock = time.perf_counter
    for p in range(args.passes):
        for i in range(len(ops["base"])):
            for side in order if (p + i) % 2 == 0 else order[::-1]:
                t0 = clock()
                run.call(ops[side][i], mods[side])
                best[side][i] = min(best[side][i], clock() - t0)

    kinds = defaultdict(list)
    for i, op in enumerate(ops["base"]):
        kinds[op.kind].append(i)
    for kind, idx in list(kinds.items()):  # one op alone spreads too wide to read
        if len(idx) == 1 and "/" in kind:
            del kinds[kind]
            kinds[kind.split("/")[0] + "/*"] += idx
    total = {side: sum(best[side]) * 1e3 for side in order}
    print(f"{args.workload}, seed {args.seed}, best of {args.passes} passes per op; "
          "sums of best times in ms")
    for kind, idx in sorted(kinds.items()):
        b = sum(best["base"][i] for i in idx) * 1e3
        h = sum(best["head"][i] for i in idx) * 1e3
        faster = sum(best["head"][i] < best["base"][i] for i in idx)
        print(f"  {kind:34s} {len(idx):4d} ops  base {b:9.3f} ({b / total['base']:6.1%})"
              f"  head {h:9.3f}  ratio {h / b:.3f}  head faster in {faster}/{len(idx)}")
    print(f"  {'pass':34s} {len(best['base']):4d} ops  base {total['base']:9.3f}"
          f"           head {total['head']:9.3f}  ratio {total['head'] / total['base']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
