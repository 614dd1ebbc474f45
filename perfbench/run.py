"""porosity-lab benchmark: a single-process, closed-loop driver.

One caller feeds a workload's seeded op list through the public API of
porosity_lab, waiting for each reply, and repeats the list in whole passes
until the run time is used up.  Every op's output is checked.  With
``--trace 0`` it prints the end-to-end metrics, measured on the untouched
package; with ``--trace 1`` it runs the same passes untraced and then traced
and prints the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload report-mix --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Run it from a checkout of the repository; it imports the package from
``src/`` and writes spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_SPAWNS_FIRST = 3  # spawns before the first pass; one follows each pass

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def spawn_setup() -> float:
    """Wall time of one fresh interpreter up to the return of
    ``import porosity_lab.cli``; the first spawn may write bytecode."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import porosity_lab.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"porosity_lab.{name}") for name in spans.MODULES}


def call(op, mods):
    """Run one op; an exception is the op's outcome, not the driver's."""
    try:
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mods["cli"].main(list(op.argv))
            return checks.CliOutcome(rc, out.getvalue(), err.getvalue())
        home, attr = op.fn.split(".")
        return getattr(mods[home], attr)(*op.args)
    except Exception as e:  # counted as a failed op
        return e


class Run:
    """Best latency per op and failures of the passes made so far."""

    def __init__(self, ops, goldens):
        self.ops = ops
        self.goldens = goldens
        self.reference = [None] * len(ops)  # digest seen on the first pass
        self.first_reason = [None] * len(ops)  # why the first pass failed, if it did
        self.components = [0] * len(ops)  # blown components, first pass
        self.best = [math.inf] * len(ops)  # fastest time of each op so far
        self.passes = 0
        self.attempted = 0
        self.failures = {}  # op kind -> (count, first reason)

    def one_pass(self, mods, tracer=None):
        clock = time.perf_counter
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            outcome = call(op, mods)
            dt = clock() - t0
            if dt < self.best[i]:
                self.best[i] = dt
            self.attempted += 1
            if tracer is not None:
                tracer.flush()
                if isinstance(outcome, checks.CliOutcome):
                    tracer.add("cli.report_bytes", len(outcome.out))
            reason = self._verify(i, op, outcome)
            if reason is not None:
                n, first = self.failures.get(op.kind, (0, reason))
                self.failures[op.kind] = (n + 1, first)
        self.passes += 1

    def _verify(self, i, op, outcome):
        """A reason the op failed on this pass, or None.  Later passes are
        compared with the first, and an output that was wrong on the first
        pass counts as a failure every time it recurs."""
        if isinstance(outcome, BaseException):
            return checks.check(op, outcome)
        d = checks.digest(outcome)
        if self.reference[i] is not None:
            return self.first_reason[i] if d == self.reference[i] else "output changed between passes"
        self.reference[i] = d
        if self.goldens is not None and d != self.goldens[i]:
            reason = "output differs from the golden"
        else:
            reason = checks.check(op, outcome)
            if reason is None:
                self.components[i] = checks.components(op, outcome)
        self.first_reason[i] = reason
        return reason

    @property
    def failed(self):
        return sum(n for n, _ in self.failures.values())


def run_passes(run, mods, seconds, tracer=None, between=None):
    """Whole passes, at least one, until `seconds` of wall time are used;
    `between` is called after each pass."""
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        run.one_pass(mods, tracer)
        done += 1
        if between is not None:
            between()
    return done


def percentile(values, p):
    ordered = sorted(values)
    k = min(len(ordered) - 1, int(p * len(ordered)))
    return ordered[k]


def load_goldens(workload, seed, count):
    if seed != DEFAULT_SEED:
        return None
    table = json.loads((HERE / "goldens.json").read_text())
    digests = table["workloads"].get(workload)
    if digests is None or len(digests) != count:
        raise SystemExit(f"goldens.json does not match the {workload} op list")
    return digests


def size_lines(run):
    """Per op kind: how many ops, and the largest points, bit length and
    blown components among them."""
    kinds = {}
    for i, op in enumerate(run.ops):
        kind = "malformed" if op.kind.startswith("malformed/") else op.kind
        kinds.setdefault(kind, []).append((op.blocks, op.bits, run.components[i]))
    lines = ["  op kind                              ops  points(max)  bits(max)  components(max)"]
    for kind, sizes in sorted(kinds.items()):
        p, b, c = (max(s[k] for s in sizes) for k in range(3))
        lines.append(f"  {kind:36s} {len(sizes):4d}  {p:11d}  {b:9d}  {c:15d}")
    return lines


def probe_defects(mods):
    """Run the known seed-commit defects once, untimed, and list them."""
    lines, failing = [], 0
    for op in workloads.defect_probes():
        reason = checks.check(op, call(op, mods))
        failing += reason is not None
        lines.append(f"  {op.kind}: {'FAILS - ' + reason if reason else 'passes now'}")
    return failing, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "porosity_lab" / "cli.py").is_file():
        print(f"error: no porosity_lab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup = [spawn_setup() for _ in range(SETUP_SPAWNS_FIRST)] if args.trace == 0 else []
    mods = load_modules()
    ops = workloads.build(args.workload, args.seed, mods)
    goldens = load_goldens(args.workload, args.seed, len(ops))
    run = Run(ops, goldens)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, closed loop, 1 caller")

    if args.trace == 0:
        passes = run_passes(run, mods, args.seconds, between=lambda: setup.append(spawn_setup()))
        best_ms = [x * 1000 for x in run.best]
        n = len(best_ms)
        timed = f"{n} ops (each the best of {passes} passes)"
        metrics = {
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} spawns over the run"),
            "ops_per_s": (1000 * n / sum(best_ms), "ops/s", timed),
            "op_ms.p50": (statistics.median(best_ms), "ms", timed),
            "op_ms.p90": (percentile(best_ms, 0.9), "ms", f"{timed}, {n - int(0.9 * n) - 1} ops beyond"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 process"),
        }
        print("setup_s spawns: " + " ".join(f"{t:.4f}" for t in setup))
        print(f"{passes} passes of {n} ops; op times are each op's best of {passes} passes")
        for name, (value, unit, count) in metrics.items():
            print(f"  {name:14s} {value:12.4f} {unit:6s} (n: {count})")
        print(f"  {'fail_ratio':14s} {run.failed / run.attempted:12.4f} ratio  ({run.failed} failed / {run.attempted} attempted = {n} ops x {passes} passes)")
        known, lines = probe_defects(mods)
        print(f"known seed-commit defects, run once apart from the timed ops: {known} of {len(lines)} fail")
        print("\n".join(lines))
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    else:
        plain = run_passes(run, mods, args.seconds / 2)
        untraced_best, run.best = sum(run.best), [math.inf] * len(ops)
        tracer = spans.Tracer()
        tracer.install(mods)
        try:
            traced = run_passes(run, mods, args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = spans.layer_metrics(tracer, traced, sum(run.best) / untraced_best)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
        busy = sum(s for s, _ in tracer.self_times().values()) / traced
        print(f"{plain} untraced + {traced} traced passes; per traced pass, time in traced calls {busy:.4f} s")
        for name, (value, unit) in layers.items():
            share = f"{100 * value / busy:5.1f}% of traced time" if unit == "s" else ""
            print(f"  {name:46s} {value:14.6f} {unit:6s} {share}")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    print("op sizes (points and bits from the generator, components from the first pass):")
    print("\n".join(size_lines(run)))
    for kind, (count, reason) in sorted(run.failures.items()):
        print(f"FAILED {kind}: {count}x, first: {reason}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
