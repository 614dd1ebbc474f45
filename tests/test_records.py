"""The package's value classes, and the tests' transfer-lemma report,
behave as immutable records.

Every class is built here by keyword, so its field names and their order
are pinned by the repr; equality, hashing, immutability and argument
binding are checked for each, and no field has a default.  A fresh interpreter importing the
CLI must not load `dataclasses`, `inspect` or `typing`, whose import alone
costs milliseconds on every start, and a plain `analyze` must load neither
`argparse` nor `ideal_core`.
"""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from transfer_lemma import InclusionReport

from porosity_lab._record import Record
from porosity_lab.ideal_core import (
    FamilyOfSets,
    IdealReport,
    PrimeMaximalReport,
    TheoremReport,
    Universe,
    ideal_report,
)
from porosity_lab.membership import (
    CofiniteTail,
    DecompositionResult,
    ExampleQBounds,
    ExampleReport,
    HypothesisFailure,
    Verdict,
    _ClassRules,
)
from porosity_lab.rational import INF
from porosity_lab.tailset import (
    UNKNOWN,
    BlowupOf,
    Chain,
    EventuallyPeriodic,
    ExampleFamily,
    ExplicitChain,
    ExplicitLimit,
    GeometricLadder,
    Interval,
    PatternLadder,
    Point,
    PorosityProfile,
    SuperGeometricLadder,
    UnionOf,
    _Ladder,
    _PointFamily,
)

SRC = Path(__file__).resolve().parent.parent / "src"

CHAIN = dict(blocks=(Interval(F(1, 2), F(1)), Point(F(1, 4))), upper=F(1), horizon=F(1, 8))
LADDER = dict(x0=F(1), rho=F(1, 2))
FAMILY = dict(universe=Universe(2), members=frozenset({0, 1}))
VERDICT = dict(
    kind="empirical", value=True, certificate=UNKNOWN, note="n", depth=8, trend="bounded"
)
Q_BOUNDS = dict(
    q=F(2),
    m=1,
    beta_limsup=F(3),
    beta_limsup_exact=F(4),
    window_liminf=(F(4),),
    window_liminf_exact=(F(8),),
)

# (class, keyword arguments in field order): all 27 value classes
RECORDS = [
    (Point, dict(x=F(1, 2))),
    (Interval, dict(lo=F(1, 4), hi=F(1, 2))),
    (Chain, CHAIN),
    (ExplicitLimit, dict(limsup_beta=F(4), gamma_tends_to_infinity=True)),
    (EventuallyPeriodic, dict(beta_pattern=(F(4), F(2)), gamma_pattern=(F(3), INF))),
    (_Ladder, LADDER),
    (GeometricLadder, LADDER),
    (SuperGeometricLadder, LADDER),
    (ExampleFamily, dict(alpha=F(1, 2))),
    (PatternLadder, dict(x0=F(1), ratios=(F(1, 2), F(1, 3)), decay=F(1, 4))),
    (ExplicitChain, dict(chain=Chain(**CHAIN))),
    (UnionOf, dict(parts=(GeometricLadder(**LADDER), ExampleFamily(F(1, 3))))),
    (BlowupOf, dict(base=SuperGeometricLadder(**LADDER), q=F(3, 2))),
    (PorosityProfile, dict(samples=((F(1, 2), F(1, 2)),), p_plus=None)),
    (
        InclusionReport,
        dict(
            precondition_holds=True,
            conclusion_holds=None,
            passed=True,
            scale=F(1, 2),
            window=(F(0), F(1)),
        ),
    ),
    (Universe, dict(size=3)),
    (FamilyOfSets, FAMILY),
    (
        IdealReport,
        dict(
            gamma=FamilyOfSets(**FAMILY),
            maximal_ideals=(FamilyOfSets(**FAMILY),),
            i_hat=FamilyOfSets(**FAMILY),
            i_star=FamilyOfSets(**FAMILY),
            equal=True,
        ),
    ),
    (
        TheoremReport,
        dict(
            n=2,
            scanned=6,
            checked=4,
            counterexamples=(),
            lemma_counterexamples=(),
            corollary_counterexamples=(),
        ),
    ),
    (
        PrimeMaximalReport,
        dict(n=2, ideal_count=3, prime_count=2, maximal_count=2, counterexamples=()),
    ),
    (Verdict, VERDICT),
    (
        _ClassRules,
        dict(closed_form=len, blowup_note="b", sink_note="s", ideal=True, empirical=repr),
    ),
    (CofiniteTail, dict(cut=F(1, 2))),
    (HypothesisFailure, dict(reason="r", n=1, q=F(2), depth=8, window_bound=F(3))),
    (
        DecompositionResult,
        dict(
            parts=(CofiniteTail(F(1, 2)),),
            n=1,
            q=F(2),
            block_indices=(1,),
            cover_verified_to=F(1, 4),
            part_verdicts=(Verdict(**VERDICT),),
        ),
    ),
    (ExampleQBounds, Q_BOUNDS),
    (
        ExampleReport,
        dict(
            alpha=F(1, 2),
            depth=8,
            ihat_sp=Verdict(**VERDICT),
            i_csp=Verdict(**VERDICT),
            bounds=(ExampleQBounds(**Q_BOUNDS),),
        ),
    ),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# a second value for each class's first field, to build an unequal record
RECORDS_ALT = {
    Point: F(1, 3),
    Interval: F(1, 8),
    Chain: (Point(F(1, 2)),),
    ExplicitLimit: F(5),
    EventuallyPeriodic: (F(5),),
    _Ladder: F(2),
    GeometricLadder: F(2),
    SuperGeometricLadder: F(2),
    ExampleFamily: F(1, 3),
    PatternLadder: F(2),
    ExplicitChain: Chain((), upper=F(1), horizon=F(1, 2)),
    UnionOf: (ExampleFamily(F(1, 3)),),
    BlowupOf: GeometricLadder(**LADDER),
    PorosityProfile: (),
    InclusionReport: False,
    Universe: 4,
    FamilyOfSets: Universe(3),
    IdealReport: FamilyOfSets(Universe(2), frozenset({0})),
    TheoremReport: 3,
    PrimeMaximalReport: 3,
    Verdict: "definite",
    _ClassRules: abs,
    CofiniteTail: F(1, 3),
    HypothesisFailure: "s",
    DecompositionResult: (),
    ExampleQBounds: F(3),
    ExampleReport: F(1, 3),
}


def test_every_value_class_is_listed():
    assert len({cls for cls, _ in RECORDS}) == 27


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_repr_names_the_fields_in_order(cls, kwargs):
    shown = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({shown})"


def test_repr_keeps_the_dataclass_format():
    assert repr(Point(x=F(1, 2))) == "Point(x=Fraction(1, 2))"
    assert (
        repr(GeometricLadder(1, F(1, 2)))
        == "GeometricLadder(x0=Fraction(1, 1), rho=Fraction(1, 2))"
    )
    assert repr(Verdict(**VERDICT)) == (
        "Verdict(kind='empirical', value=True, certificate=Unknown, note='n', "
        "depth=8, trend='bounded')"
    )


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_equal_records_hash_alike(cls, kwargs):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    first = next(iter(kwargs))
    assert a != cls(**{**kwargs, first: RECORDS_ALT[cls]})
    assert a != tuple(kwargs.values()) and a != object()


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_arguments_bind_as_in_a_call(cls, kwargs):
    record = cls(**kwargs)
    (first, value), *rest = kwargs.items()
    assert cls(*kwargs.values()) == record
    assert cls(**dict(reversed(kwargs.items()))) == record
    calls = [
        ((), dict(rest)),  # missing
        ((), {**kwargs, "bogus": 1}),  # unknown
        ((value,), kwargs),  # repeated
        ((*kwargs.values(), value), {}),  # too many positional
    ]
    own_init = cls.__init__ is not Record.__init__
    if own_init:
        # a class that checks its input binds as any Python call does
        assert cls(value, **dict(rest)) == record
    else:
        # Record's __init__ takes every field, all positionally or all by
        # keyword, and names them when it is called otherwise
        calls.append((tuple(kwargs.values())[1:], {}))  # too few positional
        if rest:
            calls.append(((value,), dict(rest)))  # mixed
    named = f"{cls.__name__}() takes ({', '.join(kwargs)}), all positionally or all by keyword"
    for args, kw in calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kw)
        assert own_init or str(info.value).startswith(named)


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_replace_goes_through_init(cls, kwargs):
    record = cls(**kwargs)
    changed = {next(iter(kwargs)): RECORDS_ALT[cls]}
    assert record._replace() == record and record._replace() is not record
    assert record._replace(**changed) == cls(**{**kwargs, **changed})
    with pytest.raises(TypeError, match="bogus"):
        record._replace(bogus=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Point(0),
        lambda: Point(F(1))._replace(x=0),
        lambda: Interval(F(1, 2), F(1, 4)),
        lambda: Chain(**CHAIN)._replace(horizon=F(2)),
        lambda: GeometricLadder(1, 2),
        lambda: EventuallyPeriodic((), (F(1),)),
        lambda: UnionOf(()),
        lambda: BlowupOf(GeometricLadder(**LADDER), 1),
        lambda: Universe(0),
    ],
)
def test_checking_classes_still_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("wrap", [iter, list, set], ids=["generator", "list", "set"])
def test_collection_fields_are_stored_frozen(wrap):
    # a generator is read once, a list or set would leave the record
    # unhashable: both classes keep their own immutable copy
    u, masks = Universe(2), (0, 1, 2)
    family = FamilyOfSets(u, wrap(m for m in masks))
    assert family == FamilyOfSets(u, frozenset(masks))
    assert hash(family) == hash(FamilyOfSets(u, frozenset(masks)))
    assert ideal_report(family) == ideal_report(FamilyOfSets(u, frozenset(masks)))
    cert = EventuallyPeriodic(wrap(x for x in [F(1)]), wrap(x for x in [F(2)]))
    assert cert == EventuallyPeriodic((F(1),), (F(2),))
    assert hash(cert) == hash(EventuallyPeriodic((F(1),), (F(2),)))


def test_records_of_different_classes_differ():
    geo, sup = GeometricLadder(1, F(1, 2)), SuperGeometricLadder(1, F(1, 2))
    assert geo != sup and sup != geo
    assert len({geo, sup}) == 2


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs):
    record = cls(**kwargs)
    name, value = next(iter(kwargs.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) == value


def test_unannotated_class_attributes_are_no_fields():
    assert ExampleFamily._fields == ("alpha",) and _PointFamily._fields == ()

    class Base(Record):
        a: int
        limit = 3

    class Child(Base):
        b: int

    assert (Base._fields, Child._fields) == (("a",), ("a", "b"))
    assert Child(1, 2)._astuple() == (1, 2) and Child(b=2, a=1).limit == 3


def test_no_field_has_a_default():
    for cls, _ in RECORDS:
        assert not {name for k in cls.__mro__ for name in vars(k)} & set(cls._fields), cls
    with pytest.raises(TypeError, match=r"^Verdict\(\) takes \(kind, value, "):
        Verdict("definite", True, ExplicitLimit(F(4), True), "n")
    with pytest.raises(TypeError, match=r"window_bound\), all positionally"):
        HypothesisFailure("r", 1, F(2), 8)


def test_chain_errors_embed_the_block_reprs():
    with pytest.raises(ValueError) as info:
        Chain((Point(F(1, 2)), Point(F(1))), upper=F(1), horizon=F(0))
    assert str(info.value) == (
        "blocks not strictly descending at Point(x=Fraction(1, 2)) > Point(x=Fraction(1, 1))"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages hooks out: only the package's own imports count
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import porosity_lab.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []


# runs one command in a fresh interpreter and prints its exit status and the
# modules of interest that are loaded after it
_AFTER_ONE_COMMAND = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
import porosity_lab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = porosity_lab.cli.main({argv!r})
print(code, *sorted({{'argparse', 'porosity_lab.ideal_core'}} & set(sys.modules)))
"""


def _after_one_command(argv) -> list:
    code = _AFTER_ONE_COMMAND.format(src=str(SRC), argv=argv)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_analyze_loads_neither_argparse_nor_ideal_core():
    family = '{"variant": "GeometricLadder", "x0": "1", "rho": "1/2"}'
    argv = ["analyze", "--family", family, "--q", "2", "--format", "json"]
    assert _after_one_command(argv) == ["0"]


def test_only_verify_foundations_loads_ideal_core():
    assert _after_one_command(["verify-foundations", "--n", "2"]) == ["0", "porosity_lab.ideal_core"]


def test_argv_the_reader_leaves_loads_argparse():
    assert _after_one_command(["verify-foundations", "--n=2"]) == [
        "0",
        "argparse",
        "porosity_lab.ideal_core",
    ]
