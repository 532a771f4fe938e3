import numpy as np
import pytest

from repro.parallel.scheduler import SimulatedScheduler
from repro.parallel.sorting import (
    naive_group_aggregate,
    parallel_semisort_aggregate,
)


class TestSemisortAggregate:
    def test_groups_and_sums(self):
        keys = np.asarray([5, 3, 5, 3, 9])
        weights = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        uk, sums = parallel_semisort_aggregate(keys, weights)
        assert np.array_equal(uk, [3, 5, 9])
        assert np.allclose(sums, [6.0, 4.0, 5.0])

    def test_empty(self):
        uk, sums = parallel_semisort_aggregate(
            np.zeros(0, dtype=np.int64), np.zeros(0)
        )
        assert uk.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            parallel_semisort_aggregate(np.asarray([1]), np.asarray([1.0, 2.0]))

    def test_linear_work_charge(self):
        sched = SimulatedScheduler(num_workers=8)
        parallel_semisort_aggregate(
            np.arange(512, dtype=np.int64), np.ones(512), sched
        )
        assert sched.ledger.total_work == 512


class TestNaiveAggregate:
    def test_same_result_as_semisort(self, rng):
        keys = rng.integers(0, 50, size=300)
        weights = rng.random(300)
        uk1, s1 = parallel_semisort_aggregate(keys, weights)
        uk2, s2 = naive_group_aggregate(keys, weights, 50)
        assert np.array_equal(uk1, uk2)
        assert np.allclose(s1, s2)

    def test_charges_more_than_semisort(self):
        keys = np.arange(1000, dtype=np.int64) % 100
        weights = np.ones(1000)
        fast = SimulatedScheduler(num_workers=8)
        slow = SimulatedScheduler(num_workers=8)
        parallel_semisort_aggregate(keys, weights, fast)
        naive_group_aggregate(keys, weights, 100, slow)
        assert slow.ledger.total_work > fast.ledger.total_work
        assert slow.ledger.total_depth > fast.ledger.total_depth

