"""Print one sha256 per benchmark op outcome, to compare two commits.

Runs every op of the three perfbench workloads (and the defect probes) once
at the given seed and prints, per op, its workload, index, kind and the
sha256 of its outcome: a CLI op's exit code, stdout and stderr, a library
op's result, or the type and message of the exception it raised.  The op
lists come from perfbench/ in this checkout, which is only read; the
package comes from --src, so two commits run the same ops:

    python3 tools/op_digests.py --seed 1 > head.txt
    python3 tools/op_digests.py --seed 1 --src ../base/src > base.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
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
    for name, ops in lists.items():
        for i, op in enumerate(ops):
            digest = hashlib.sha256(outcome_bytes(run.call(op, mods))).hexdigest()
            print(f"{name} {i} {op.kind} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
