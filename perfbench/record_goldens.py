"""Record goldens.json: the digest of every op's output for the default seed.

Run it only on a commit whose reports are known good, after a change to the
op lists (goldens must describe the program, not the benchmark):

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    mods = run.load_modules()
    table = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name in run.workloads.WORKLOADS:
        ops = run.workloads.build(name, run.DEFAULT_SEED, mods)
        bench = run.Run(ops, None)
        bench.one_pass(mods)
        if bench.failed:
            for kind, (count, reason) in bench.failures.items():
                print(f"{name}: {kind} failed {count}x: {reason}", file=sys.stderr)
            return 1
        table["workloads"][name] = bench.reference
    (run.HERE / "goldens.json").write_text(json.dumps(table, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
