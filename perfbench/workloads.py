"""Seeded op lists for the three porosity-lab workloads.

A workload is a fixed list of ops built from the seed alone.  An op is one
``porosity_lab.cli.main(argv)`` call or one call to a public library
function; the program sees only the generated argv or objects.

Ops are sized by work, not by depth: ``depth`` counts rungs for the ladders
but whole blocks or groups for ExampleFamily and PatternLadder, so every op
takes the largest depth (up to its nominal one) whose emitted points and
largest numerator/denominator bit length stay within the op kind's caps.
The sizes are computed here from the family definitions, independently of
the program, and recorded on each op.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("deep-scan", "report-mix", "foundations")


@dataclass
class Op:
    """One call into the program.

    ``argv`` is set for a CLI op; ``fn`` names the library function
    ("module.function", looked up at call time) and ``args`` its arguments.
    ``expect`` names the check applied to the outcome (see checks.py) and
    ``info`` carries what that check needs to know about the inputs.
    """

    kind: str
    expect: str
    argv: Optional[list] = None
    fn: Optional[str] = None
    args: tuple = ()
    blocks: int = 0
    bits: int = 0
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sizes, computed from the family definitions


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rungs(spec: dict):
    """Yield the points of a point family one rung (depth step) at a time."""
    v = spec["variant"]
    if v == "GeometricLadder":
        x, rho = Fraction(spec["x0"]), Fraction(spec["rho"])
        while True:
            yield [x]
            x *= rho
    if v == "SuperGeometricLadder":
        x, rho = Fraction(spec["x0"]), Fraction(spec["rho"])
        step = rho
        while True:
            yield [x]
            x *= step
            step *= rho
    if v == "ExampleFamily":
        alpha, y, j = Fraction(spec["alpha"]), Fraction(1), 1
        while True:
            block = [y]
            for k in range(1, j + 1):
                y *= alpha**k
                block.append(y)
            yield block
            y *= alpha ** (j + 1)
            j += 1
    if v == "PatternLadder":
        x = Fraction(spec["x0"])
        ratios = [Fraction(r) for r in spec["ratios"]]
        decay, g = Fraction(spec["decay"]), 0
        while True:
            group = [x]
            for r in ratios:
                x *= r
                group.append(x)
            yield group
            x *= decay ** (g + 1)
            g += 1
    raise ValueError(f"not a point family: {v}")


def sizes(spec: dict):
    """Yield (points, max bits) of the family expanded at depth 1, 2, ...

    Unions add their parts' points (an upper bound: the merged chain can
    only be shorter); a blow-up multiplies every coordinate by q or 1/q.
    """
    v = spec["variant"]
    if v == "ExplicitChain":
        pts = [Fraction(b["point"]) for b in spec["chain"]["blocks"]]
        while True:
            yield len(pts), max(map(_bits, pts))
    if v == "UnionOf":
        for per_part in zip(*(sizes(p) for p in spec["parts"])):
            yield sum(n for n, _ in per_part), max(b for _, b in per_part)
    if v == "BlowupOf":
        extra = _bits(Fraction(spec["q"]))
        for n, b in sizes(spec["base"]):
            yield n, b + extra
    n, b = 0, 0
    for rung in _rungs(spec):
        n += len(rung)
        b = max(b, max(map(_bits, rung)))
        yield n, b


def capped_depth(spec: dict, nominal: int, max_points: int, max_bits: int):
    """Largest depth <= nominal within both caps (at least 1), with its
    point count and bit length."""
    depth, size = 0, None
    for n, b in sizes(spec):
        if depth == nominal or (depth and (n > max_points or b > max_bits)):
            break
        depth, size = depth + 1, (n, b)
    return (depth,) + size


# ---------------------------------------------------------------------------
# seeded family parameters


def _frac(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """A rational strictly inside (lo, hi) with denominator <= max_den."""
    while True:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        x = Fraction(num, den) * (hi - lo) + lo
        if lo < x < hi:
            return x


def geometric(rng):
    return {
        "variant": "GeometricLadder",
        "x0": str(_frac(rng, Fraction(1, 2), Fraction(1), 9)),
        "rho": str(_frac(rng, Fraction(1, 3), Fraction(4, 5), 13)),
    }


def super_geometric(rng):
    return {
        "variant": "SuperGeometricLadder",
        "x0": str(_frac(rng, Fraction(1, 2), Fraction(1), 9)),
        "rho": str(_frac(rng, Fraction(1, 2), Fraction(5, 6), 13)),
    }


def example(rng):
    return {"variant": "ExampleFamily", "alpha": str(_frac(rng, Fraction(1, 3), Fraction(4, 5), 13))}


def pattern(rng):
    return {
        "variant": "PatternLadder",
        "x0": str(_frac(rng, Fraction(1, 2), Fraction(1), 9)),
        "ratios": [str(_frac(rng, Fraction(1, 8), Fraction(3, 4), 11)) for _ in range(rng.randint(1, 3))],
        "decay": str(_frac(rng, Fraction(1, 3), Fraction(3, 4), 11)),
    }


POINT_FAMILIES = {
    "geometric": geometric,
    "super-geometric": super_geometric,
    "example": example,
    "pattern": pattern,
}

BLOWUP_QS = ("4/3", "3/2", "2", "5/2", "3")


UNION_PAIRS = tuple(itertools.combinations(sorted(POINT_FAMILIES), 2))


def union(rng, pair):
    return {"variant": "UnionOf", "parts": [POINT_FAMILIES[k](rng) for k in pair]}


def blown(rng, base):
    return {"variant": "BlowupOf", "base": POINT_FAMILIES[base](rng), "q": rng.choice(BLOWUP_QS)}


def deal(rng: random.Random, items, count: int) -> list:
    """`count` picks that use every item equally often (up to one), in
    seeded order: the mix of a pass stays the same from seed to seed."""
    items = list(items)
    rng.shuffle(items)
    picks = [items[i % len(items)] for i in range(count)]
    rng.shuffle(picks)
    return picks


FAMILY_KINDS = tuple(sorted(POINT_FAMILIES)) + ("union", "blowup")


def family_specs(rng, family: str, count: int) -> list:
    """`count` seeded families of one kind; unions and blow-ups cycle
    through every pair of point families and every base family."""
    if family == "union":
        return [union(rng, pair) for pair in deal(rng, UNION_PAIRS, count)]
    if family == "blowup":
        return [blown(rng, base) for base in deal(rng, sorted(POINT_FAMILIES), count)]
    return [POINT_FAMILIES[family](rng) for _ in range(count)]


def explicit_chain(rng, count: int) -> dict:
    """A known finite chain of `count` points in (0, 1), descending with
    ratios between 1/3 and 9/10; its horizon is its smallest point, so it
    does not count as bounded away from 0."""
    x, pts = Fraction(1), []
    for _ in range(count):
        x *= _frac(rng, Fraction(1, 3), Fraction(9, 10), 29)
        pts.append(x)
    return {
        "variant": "ExplicitChain",
        "chain": {
            "blocks": [{"point": str(p)} for p in pts],
            "upper": str(pts[0]),
            "horizon": str(pts[-1]),
        },
    }


# ---------------------------------------------------------------------------
# deep-scan: the gap scan and the empirical engines

# (kind, ops per pass, nominal depth range, point cap, bit cap)
DEEP_SCAN_MIX = (
    ("profile/geometric", 24, (40, 56), 56, 1200),
    ("profile/super-geometric", 24, (30, 48), 48, 1200),
    ("profile/example", 16, (6, 12), 44, 900),
    ("profile/pattern", 16, (16, 32), 54, 600),
    ("covering/geometric", 16, (40, 56), 56, 1200),
    ("analyze/union-explicit", 8, (24, 40), 110, 2400),
)


def spread(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """`count` integers covering [lo, hi] evenly, in seeded order, so the
    sizes in a pass (and so its cost) vary little from seed to seed."""
    values = [lo + (hi - lo) * (2 * i + 1) // (2 * count) for i in range(count)]
    rng.shuffle(values)
    return values


def _union_explicit_op(rng, part, points, nominal, caps) -> Op:
    # the ExplicitChain part has no closed form, so all four engines fall
    # back to their empirical paths on the union
    spec = {"variant": "UnionOf", "parts": [part(rng), explicit_chain(rng, points)]}
    depth, n, b = capped_depth(spec, nominal, *caps)
    argv = ["analyze", "--family", json.dumps(spec), "--depth", str(depth),
            "--q", "2", "--q", "3/2", "--format", "json"]
    return Op("analyze/union-explicit", "cli-ok", argv=argv, blocks=n, bits=b,
              info={"command": "analyze", "fmt": "json"})


def deep_scan(seed: int, lib) -> list:
    rng = random.Random(f"deep-scan:{seed}")
    ops = []
    for kind, count, (lo, hi), max_points, max_bits in DEEP_SCAN_MIX:
        nominals = spread(rng, lo, hi, count)
        if kind == "analyze/union-explicit":
            parts = deal(rng, (super_geometric, pattern), count)
            for part, points, nominal in zip(parts, spread(rng, 40, 90, count), nominals):
                ops.append(_union_explicit_op(rng, part, points, nominal, (max_points, max_bits)))
            continue
        check, family = kind.split("/")
        fn = "tailset.porosity_profile" if check == "profile" else "blowup.find_covering_blowup"
        for nominal in nominals:
            spec = POINT_FAMILIES[family](rng)
            depth, n, b = capped_depth(spec, nominal, max_points, max_bits)
            f = lib["tailset"].family_from_json(spec)
            ops.append(Op(kind, check, fn=fn, args=(f, depth), blocks=n, bits=b, info={"spec": spec}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# report-mix: short CLI reports decided by closed forms

# (command, ops per family kind per pass, nominal depth range, point cap, bit cap)
REPORT_MIX = (
    ("analyze", 32, (24, 40), 160, 4000),
    ("decompose", 20, (24, 40), 160, 4000),
    ("blowup", 20, (24, 48), 160, 4000),
)
REPORT_QS = ("3/2", "2", "5/2", "3", "4", "7/3")
REPRODUCE_OPS = 48


def _report_op(command, family, spec, nominal, fmt, qs, extra, caps) -> Op:
    # blowup and decompose work on the chain blown up by their q
    sized = spec if command == "analyze" else {"variant": "BlowupOf", "base": spec, "q": qs[0]}
    depth, n, b = capped_depth(sized, nominal, *caps)
    argv = [command, "--family", json.dumps(spec), "--depth", str(depth), "--format", fmt]
    for q in qs:
        argv += ["--q", q]
    return Op(f"{command}/{family}", "cli-ok", argv=argv + extra, blocks=n, bits=b,
              info={"command": command, "fmt": fmt})


def _reproduce_op(rng) -> Op:
    alpha = _frac(rng, Fraction(1, 3), Fraction(4, 5), 13)
    fmt = rng.choice(("json", "text"))
    argv = ["reproduce-example", "--alpha", str(alpha), "--depth", str(rng.randint(8, 16)),
            "--M", str(rng.randint(4, 8)), "--format", fmt]
    for q in rng.sample(REPORT_QS, rng.randint(1, 2)):
        argv += ["--q", q]
    return Op("reproduce-example", "cli-ok", argv=argv, info={"command": "reproduce-example", "fmt": fmt})


def malformed_ops(rng) -> list:
    """One op per class of input the CLI must reject with exit 1 and one
    `error:` line.  The infinity values belong here too, but the parser
    accepts "inf" for every rational field and the program then crashes, so
    they run as defect probes (see defect_probes) until that is fixed."""
    geo = json.dumps(geometric(rng))
    fam = rng.choice(("analyze", "blowup"))
    classes = {
        "bad-json": [fam, "--family", geo[:-1]],
        "unknown-variant": [fam, "--family", '{"variant": "Spiral", "x0": "1"}'],
        "missing-variant": [fam, "--family", '{"x0": "1", "rho": "1/2"}'],
        "missing-field": [fam, "--family", '{"variant": "GeometricLadder", "x0": "1"}'],
        "decimal-q": [fam, "--family", geo, "--q", rng.choice(("0.5", "1.5", "2e0"))],
        "decimal-field": [fam, "--family", json.dumps({"variant": "ExampleFamily", "alpha": "0.5"})],
        "zero-denominator": [fam, "--family", geo, "--q", "3/0"],
        "q-not-above-1": [fam, "--family", geo, "--q", rng.choice(("1", "1/2", "-3"))],
        "rho-out-of-range": [fam, "--family", json.dumps({"variant": "GeometricLadder", "x0": "1", "rho": "3/2"})],
        "depth-below-1": [fam, "--family", geo, "--depth", str(rng.randint(-3, 0))],
        "negative-M": ["analyze", "--family", geo, "--M", "-1"],
        "not-an-int": [fam, "--family", geo, "--depth", "deep"],
        "missing-family": [fam],
        "missing-family-file": [fam, "--family", "perfbench/no-such-family.json"],
        "unknown-command": ["scan", "--family", geo],
        "unknown-flag": [fam, "--family", geo, "--speed", "9"],
        "bad-format": [fam, "--family", geo, "--format", "yaml"],
        "decompose-without-n": ["decompose", "--family", geo],
        "decompose-n-below-1": ["decompose", "--family", geo, "--n", "0"],
        "alpha-out-of-range": ["reproduce-example", "--alpha", rng.choice(("3/2", "1", "0"))],
        "foundations-n-too-large": ["verify-foundations", "--n", str(rng.randint(5, 7))],
        "no-accumulation": ["analyze", "--family", json.dumps(explicit_chain(rng, 3))],
        "ratios-as-string": [fam, "--family", '{"variant": "PatternLadder", "x0": "1", "ratios": "12", "decay": "1/2"}'],
    }
    return [Op(f"malformed/{name}", "cli-error", argv=argv) for name, argv in classes.items()]


def report_mix(seed: int, lib) -> list:
    rng = random.Random(f"report-mix:{seed}")
    ops = []
    for command, count, (lo, hi), max_points, max_bits in REPORT_MIX:
        for family in FAMILY_KINDS:
            specs = family_specs(rng, family, count)
            depths = spread(rng, lo, hi, count)
            fmts = deal(rng, ("json", "text"), count)
            q_lists = deal(rng, itertools.combinations(REPORT_QS, 2), count)
            for spec, nominal, fmt, qs in zip(specs, depths, fmts, q_lists):
                if command == "analyze":
                    extra = ["--M", str(rng.randint(4, 8))]
                else:
                    qs = qs[:1]
                    extra = ["--n", str(rng.randint(1, 3))] if command == "decompose" else []
                ops.append(_report_op(command, family, spec, nominal, fmt, qs, extra, (max_points, max_bits)))
    ops += [_reproduce_op(rng) for _ in range(REPRODUCE_OPS)]
    ops += malformed_ops(rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# foundations: the exhaustive finite-universe scans

FOUNDATIONS_N = 4


def foundations(seed: int, lib) -> list:
    rng = random.Random(f"foundations:{seed}")
    core = lib["ideal_core"]
    universe = core.Universe(FOUNDATIONS_N)
    families = [m for m in core.enumerate_down_families(FOUNDATIONS_N) if m]
    rng.shuffle(families)
    ops = [
        Op("ideal-report", "ideal-report", fn="ideal_core.ideal_report",
           args=(core.FamilyOfSets(universe, members),), blocks=len(members))
        for members in families
    ]
    for n in range(1, FOUNDATIONS_N + 1):
        fmt = rng.choice(("json", "text"))
        argv = ["verify-foundations", "--n", str(n), "--format", fmt]
        ops.insert(rng.randrange(len(ops) + 1),
                   Op(f"verify-foundations/n{n}", "cli-ok", argv=argv,
                      info={"command": "verify-foundations", "fmt": fmt}))
    return ops


# ---------------------------------------------------------------------------
# seed-commit defects, run apart from the timed ops


def defect_probes() -> list:
    """Inputs that crash the program at the commit this benchmark was
    written against.  They run once per run, outside the timed passes, and
    are reported by name; a fix shows up as a probe that passes."""
    ex = {"variant": "BlowupOf", "base": {"variant": "ExampleFamily", "alpha": "1/5"}, "q": "2"}
    sg = {"variant": "SuperGeometricLadder", "x0": "1", "rho": "7/11"}
    geo = '{"variant": "GeometricLadder", "x0": "1", "rho": "1/2"}'
    return [
        Op("defect/format-rational-digit-limit-decompose", "cli-ok",
           argv=["decompose", "--family", json.dumps(ex), "--n", "1"], info={"command": "decompose", "fmt": "text"}),
        Op("defect/format-rational-digit-limit-blowup", "cli-ok",
           argv=["blowup", "--family", json.dumps(sg), "--depth", "96"], info={"command": "blowup", "fmt": "text"}),
        Op("defect/q-inf", "cli-error", argv=["analyze", "--family", geo, "--q", "inf"]),
        Op("defect/x0-inf", "cli-error",
           argv=["analyze", "--family", '{"variant": "GeometricLadder", "x0": "inf", "rho": "1/2"}']),
    ]


def build(workload: str, seed: int, lib: dict) -> list:
    """The op list of one workload; `lib` maps module names to the
    imported porosity_lab modules."""
    return {"deep-scan": deep_scan, "report-mix": report_mix, "foundations": foundations}[workload](seed, lib)
