"""Compare two checkouts on one benchmark workload by alternating runs.

Runs ``perfbench/run.py`` once in a base checkout and once in this one per
pair, swapping which side goes first from pair to pair, so that a drift of
the machine over time hits both sides alike.  Each run's last line is its
JSON result.  For every end-to-end metric in BENCHMARK.json the tool prints
the median [q1, q3] of each side, the ratio of the medians (this checkout
over base) and how many pairs each side won; a pair whose two values are
equal counts for neither side.  It also prints two verdicts per metric:

- gain: this checkout won at least nine tenths of the pairs, and its median
  is better than base's by more than the distance between base's
  quartiles; otherwise "no gain".
- bound: "within" when this checkout's median is worse than base's by no
  more than the metric's `bound` in BENCHMARK.json (a fraction of base's
  median), "beyond" when it is worse by more, and "unresolved" when base's
  own spread (quartile distance over median) exceeds the bound, unless
  every run of this checkout reads better than every run of base.

    python3 tools/bench_pairs.py --base ../base --workload deep-scan --seed 1 \\
        --seconds 36 --out BENCH.json

It runs ten pairs unless ``--pairs`` says otherwise: with fewer than ten,
the gain rule's nine tenths means every pair.

With ``--out`` the table is also written to a JSON file, together with the
Python version, the number of CPUs and the base side's commit (its path when
it is not a git work tree of its own).  Entries already in that file stay,
except one for the same workload and seed, which is replaced.  Each side
runs its own checkout's perfbench/ on its own src/, both copied first into
one temporary directory as ``base`` and ``head``: the peak RSS of a run
moves with the length of the path it runs from, so both paths are equally
long.  The checkouts themselves are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def stage(checkout: Path, dest: Path) -> Path:
    """A copy at dest of what perfbench/run.py reads from a checkout:
    src/ and perfbench/, without bytecode."""
    for name in ("src", "perfbench"):
        shutil.copytree(checkout / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def describe(checkout: Path) -> str:
    """The short commit id of a checkout, or its path when it is not the top
    of a git work tree."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "--short", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == checkout:
        return lines[1]
    return str(checkout)


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain_verdict(base: list, head: list, sign: int, head_wins: int) -> str:
    """"gain" when head won at least 9 of every 10 pairs and the medians
    differ, head's way, by more than base's quartile distance."""
    b, h = spread(base), spread(head)
    ahead = sign * (h["median"] - b["median"])
    return "gain" if 10 * head_wins >= 9 * len(base) and ahead > b["q3"] - b["q1"] else "no gain"


def bound_verdict(base: list, head: list, sign: int, bound: float) -> str:
    """"within" or "beyond" the bound on head's worsening, as a fraction of
    base's median; "unresolved" when base's own spread exceeds the bound
    and not every head run beats every base run."""
    b, h = spread(base), spread(head)
    if (b["q3"] - b["q1"]) / b["median"] > bound:
        if min(sign * x for x in head) <= max(sign * x for x in base):
            return "unresolved"
    worse = sign * (b["median"] - h["median"]) / b["median"]
    return "beyond" if worse > bound else "within"


def compare(metrics: list, base_runs: list, head_runs: list) -> dict:
    table = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        head = [r["metrics"][name]["value"] for r in head_runs]
        sign = 1 if better == "higher" else -1
        head_wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        base_wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        b, h = spread(base), spread(head)
        table[name] = {
            "unit": m["unit"],
            "better": better,
            "bound": m["bound"],
            "base": b,
            "head": h,
            "ratio": h["median"] / b["median"],
            "head_wins": head_wins,
            "base_wins": base_wins,
            "gain": gain_verdict(base, head, sign, head_wins),
            "bound_check": bound_verdict(base, head, sign, m["bound"]),
            "base_values": base,
            "head_values": head,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, help="JSON file to add the table to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"base": args.base.resolve(), "head": ROOT}
    base_name = describe(checkouts["base"])
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: stage(path, Path(tmp) / side) for side, path in checkouts.items()}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    table = compare(metrics, runs["base"], runs["head"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs; "
          f"median [q1, q3], base = {base_name}")
    for name, row in table.items():
        b, h = row["base"], row["head"]
        print(f"  {name:12s} base {b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}]"
              f"  head {h['median']:10.4f} [{h['q1']:.4f}, {h['q3']:.4f}]"
              f"  ratio {row['ratio']:.3f}  won: head {row['head_wins']}, base {row['base_wins']}"
              f"  ({row['better']} is better)  {row['gain']}, bound {row['bound']:g}:"
              f" {row['bound_check']}")
    correct = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"  correct: {correct}, failed ops: {failed}")

    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["python"] = platform.python_version()
        data["cpus"] = os.cpu_count()
        entries = [e for e in data.get("runs", [])
                   if (e["workload"], e["seed"]) != (args.workload, args.seed)]
        entries.append({
            "workload": args.workload,
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "base": base_name,
            "correct": correct,
            "failed": failed,
            "metrics": table,
        })
        data["runs"] = sorted(entries, key=lambda e: (e["workload"], e["seed"]))
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
