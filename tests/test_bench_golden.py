"""The benchmark's golden report digests hold in the tier-1 run.

`bench/golden.json` pins the canonical report of every warm-up unit of
each benchmark workload, and of the timed rounds at the default seed.
Running the warm-up units, and round 0 of the two workloads that draw a
random ball per trial, here, through the benchmark's own
`workloads.Library` and `workloads.check`, makes a digest drift that only
the golden file pins fail the tests, not only the benchmark.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def library():
    return workloads.Library()


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_warmup_units_match_the_golden_digests(library, workload):
    golden = workloads.load_golden(workload)
    for unit in workloads.warmup_units(workload):
        if unit.name != workloads.ROTATION:
            assert unit.key in golden  # else the digest is not checked
        output = library.run(unit)
        failed, why = workloads.check(unit, library.records(unit), output, golden)
        assert (failed, why) == (0, ""), unit.key


@pytest.mark.parametrize("workload", ["exact-random", "float-polygon"])
def test_round_zero_matches_the_golden_digests(library, workload):
    # the two workloads that draw a random ball per trial: their timed
    # units at the default seed pin the ball construction and its text
    golden = workloads.load_golden(workload)
    for unit in workloads.round_units(workload, workloads.DEFAULT_SEED, 0):
        assert unit.key in golden  # else the digest is not checked
        output = library.run(unit)
        failed, why = workloads.check(unit, library.records(unit), output, golden)
        assert (failed, why) == (0, ""), unit.key
