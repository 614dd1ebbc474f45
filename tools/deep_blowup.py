"""Time the blowup report on deep point families and hash it, to compare two commits.

Each case is one `porosity-lab blowup` run in-process, deeper than any
benchmark op, where the component ends run to thousands of digits: of a
point family, a blown one, or a union of two, which merges their scans.  Per
case the tool prints its name, the sha256 of its exit code and stdout, and
its wall time.  The package comes from --src, so two commits run the same
cases; their hashes must match, while their times only compare on one host:

    python3 tools/deep_blowup.py > head.txt
    python3 tools/deep_blowup.py --src ../base/src > base.txt
    diff <(cut -d' ' -f1,2 base.txt) <(cut -d' ' -f1,2 head.txt)

Case names given as arguments run only those cases.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _example(alpha: str) -> dict:
    return {"variant": "ExampleFamily", "alpha": alpha}


# name -> (family, depth); every case blows up by q = 2
CASES = {
    "example-5/13-d32": (_example("5/13"), 32),
    "example-5/13-d48": (_example("5/13"), 48),
    "example-1/2-d64": (_example("1/2"), 64),
    "blowup-example-5/13-d32": ({"variant": "BlowupOf", "base": _example("5/13"), "q": "3/2"}, 32),
    # the pattern's horizon cuts the example family inside a block
    "union-example-5/13-pattern-d32": (
        {"variant": "UnionOf", "parts": [
            _example("5/13"),
            {"variant": "PatternLadder", "x0": "1", "ratios": ["1/3", "2/5"], "decay": "1/2"},
        ]},
        32,
    ),
}


def run_case(cli, family: dict, depth: int) -> tuple[str, float]:
    """The sha256 of one blowup run's exit code and stdout, and its time in s."""
    out = io.StringIO()
    argv = ["blowup", "--family", json.dumps(family), "--depth", str(depth), "--q", "2"]
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest(), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="case",
                        help=f"cases to run (default: all of {', '.join(CASES)})")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the porosity_lab package (default: this checkout's)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown cases: {', '.join(unknown)}")

    sys.path.insert(0, str(args.src.resolve()))
    cli = importlib.import_module("porosity_lab.cli")
    for name in args.cases or CASES:
        digest, seconds = run_case(cli, *CASES[name])
        print(f"{name} {digest} {seconds * 1000:.0f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
