"""Failure accounting: wrong outcomes are counted against the attempts, never raised."""

import dataclasses

import statmanifold as sm

import run
from reference import REFERENCE_S
from workloads import build_cases


def _bench(cases):
    table = run.load_status_table("catalog-sweep")
    return run.Bench(sm, cases, 3, table)


def _flat_cubic():
    return next(c for c in build_cases("catalog-sweep", 3) if c.label == "flat-cubic")


def test_correct_case_passes():
    bench = _bench([_flat_cubic()])
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2, 0)


def test_wrong_expected_flag_is_counted_not_raised():
    case = _flat_cubic()
    wrong = dataclasses.replace(
        case, expected={**case.expected, "semi_equiaffine": not case.expected["semi_equiaffine"]}
    )
    bench = _bench([wrong])
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "flag semi_equiaffine" in bench.failures[0]


def test_status_table_mismatch_and_unpinned_count_fail():
    case = dataclasses.replace(_flat_cubic(), num_points=105)
    bench = _bench([case])
    bench.table = {"flat-cubic": {**bench.table["flat-cubic"], "main1_flag_equivalence": "inconsistent"}}
    bench.run_op("diagnose", case)
    assert bench.failed == 1
    assert "num_points 104 != pinned 105" in bench.failures[0]
    assert "main1_flag_equivalence" in bench.failures[0]


def test_raising_operation_is_counted():
    bench = _bench([dataclasses.replace(_flat_cubic(), spec=None)])
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2, 2)
    assert "raised" in bench.failures[0]


def test_sweep_times_are_scaled_by_the_reference_work():
    class FixedBench:
        def run_pass(self, kinds=run.KINDS):
            return {"diagnose": 3.0, "crosscheck": 1.0}

    twice_as_slow = 2 * REFERENCE_S
    metrics, wall = run.untraced_run(FixedBench(), "flat-high-dim", 0.001, lambda: twice_as_slow, lambda: 0.5)
    assert metrics["diagnose_s"] == (1.5, "s")
    assert metrics["crosscheck_s"] == (0.5, "s")
    assert metrics["setup_s"] == (0.25, "s")
    assert wall == {"setup_s": 0.5, "diagnose_s": 3.0, "crosscheck_s": 1.0, "reference_s": twice_as_slow}
