"""The two verdicts tools/bench_pairs.py prints per end-to-end metric: the
gain rule over paired runs and the regression check against a bound."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import bound_verdict, gain_verdict  # noqa: E402

LOWER, HIGHER = -1, 1


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_quartiles():
    base = [10, 11, 12, 9, 10, 10, 10, 10, 10, 10]
    assert gain_verdict(base, [8] * 10, LOWER, 10) == "gain"
    assert gain_verdict(base, [8] * 10, LOWER, 9) == "gain"
    assert gain_verdict(base, [8] * 10, LOWER, 8) == "no gain"
    # the medians are 2 apart and the base quartiles 4 apart
    assert gain_verdict([6, 8, 10, 12, 14], [8, 6, 8, 10, 12], LOWER, 5) == "no gain"
    assert gain_verdict([100] * 10, [120] * 10, HIGHER, 10) == "gain"
    assert gain_verdict([100] * 10, [80] * 10, HIGHER, 0) == "no gain"


def test_bound_check_reads_worsening_as_a_fraction_of_the_base_median():
    assert bound_verdict([10] * 4, [12] * 4, LOWER, 0.25) == "within"
    assert bound_verdict([10] * 4, [13] * 4, LOWER, 0.25) == "beyond"
    assert bound_verdict([100] * 4, [80] * 4, HIGHER, 0.25) == "within"
    assert bound_verdict([100] * 4, [70] * 4, HIGHER, 0.25) == "beyond"


def test_bound_check_is_unresolved_when_the_base_spreads_wider_than_the_bound():
    wide = [5, 10, 15, 20]
    assert bound_verdict(wide, [13] * 4, LOWER, 0.25) == "unresolved"
    assert bound_verdict(wide, [12, 13, 14, 12], LOWER, 0.25) == "unresolved"
    # unless every head run beats every base run
    assert bound_verdict(wide, [4] * 4, LOWER, 0.25) == "within"
