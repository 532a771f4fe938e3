from repro.parallel.scheduler import SimulatedScheduler
from repro.parallel.sorting import charge_naive_aggregate, charge_semisort


class TestSemisortAggregate:
    def test_empty(self):
        sched = SimulatedScheduler(num_workers=8)
        charge_semisort(sched, 0)
        assert sched.ledger.num_regions == 0

    def test_linear_work_charge(self):
        sched = SimulatedScheduler(num_workers=8)
        charge_semisort(sched, 512)
        assert sched.ledger.total_work == 512


class TestNaiveAggregate:
    def test_charges_more_than_semisort(self):
        fast = SimulatedScheduler(num_workers=8)
        slow = SimulatedScheduler(num_workers=8)
        charge_semisort(fast, 1000)
        charge_naive_aggregate(slow, 1000, 100)
        assert slow.ledger.total_work > fast.ledger.total_work
        assert slow.ledger.total_depth > fast.ledger.total_depth
