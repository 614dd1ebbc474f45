"""Print the lines of src/ that no benchmark op runs.

Imports the package, builds the op lists of the three perfbench workloads
at seeds 1-4 and the defect probes, and runs every op, all under a line
trace (`sys.settrace`): building a list calls the package too, for the
families and down sets the ops take.  A line counts as executable when the
compiled module has an instruction on it; the lines that are executable
and never ran print as `path:line: text`, file by file, and a last line
gives the totals.  An empty list means every line of src/ serves the
benchmark:

    python3 tools/op_lines.py

It takes no options and about 10 s (Python 3.11, 2-core host).
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import op_digests

ROOT = op_digests.ROOT
PACKAGE = ROOT / "src" / "porosity_lab"
SEEDS = (1, 2, 3, 4)


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that carry an instruction of its compiled
    code, nested functions and classes included."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """The (file, line) pairs run inside the package while it is on."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + "/"
        self.ran: dict[str, set[int]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        # a function's first line (its def) sends a call event, no line event
        self.ran.setdefault(name, set()).add(frame.f_lineno)
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def main() -> int:
    workloads = op_digests.workloads
    with LineTrace() as trace:
        mods = op_digests.load_modules(ROOT / "src")
        ops = workloads.defect_probes()
        for seed in SEEDS:
            for name in workloads.WORKLOADS:
                ops += workloads.build(name, seed, mods)
        for op in ops:
            op_digests.run.call(op, mods)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - trace.ran.get(str(path), set()))
        total += len(lines)
        unrun += len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines in src/ ran in none of {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
