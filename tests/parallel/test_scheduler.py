import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.parallel.scheduler import (
    CostLedger,
    Machine,
    OPS_PER_SECOND,
    SimulatedScheduler,
)


class TestMachine:
    def test_paper_machines(self):
        c2 = Machine.c2_standard_60()
        m1 = Machine.m1_megamem_96()
        assert c2.max_workers == 60
        assert m1.max_workers == 96

    def test_effective_parallelism_linear_up_to_cores(self):
        m = Machine(cores=30, smt=2)
        assert m.effective_parallelism(1) == 1
        assert m.effective_parallelism(30) == 30

    def test_hyperthread_knee(self):
        m = Machine(cores=30, smt=2, smt_yield=0.35)
        # Beyond the physical cores each extra thread adds only smt_yield.
        assert m.effective_parallelism(60) == pytest.approx(30 + 0.35 * 30)
        # And the marginal gain drops at the knee.
        gain_below = m.effective_parallelism(30) - m.effective_parallelism(29)
        gain_above = m.effective_parallelism(31) - m.effective_parallelism(30)
        assert gain_above < gain_below

    def test_workers_capped_at_hardware(self):
        m = Machine(cores=4, smt=2)
        assert m.effective_parallelism(100) == m.effective_parallelism(8)

    def test_invalid_workers(self):
        with pytest.raises(SchedulerError):
            Machine(cores=4).effective_parallelism(0)

    def test_invalid_machine(self):
        with pytest.raises(SchedulerError):
            Machine(cores=0)


class TestCostLedger:
    def test_totals_accumulate(self):
        ledger = CostLedger()
        ledger.charge(100, 5, "a")
        ledger.charge(50, 2, "b", serial=7)
        assert ledger.total_work == 150
        assert ledger.total_depth == 7
        assert ledger.total_serial == 7
        assert ledger.num_regions == 2

    def test_negative_cost_rejected(self):
        with pytest.raises(SchedulerError):
            CostLedger().charge(-1, 0)

    def test_sequential_time_is_pure_work(self):
        ledger = CostLedger()
        ledger.charge(1000, 100, serial=50)
        assert ledger.simulated_time(1) == pytest.approx(1050 / OPS_PER_SECOND)

    def test_parallel_time_brent_bound(self):
        ledger = CostLedger()
        ledger.charge(work=6000, depth=0, serial=0)
        machine = Machine(cores=30, smt=2)
        t6 = ledger.simulated_time(6, machine=machine, tau=0)
        t30 = ledger.simulated_time(30, machine=machine, tau=0)
        assert t6 == pytest.approx(5 * t30)

    def test_more_workers_never_slower(self):
        ledger = CostLedger()
        ledger.charge(work=1e6, depth=100, serial=500)
        machine = Machine(cores=30, smt=2)
        times = [ledger.simulated_time(p, machine=machine) for p in (2, 4, 8, 16, 30, 60)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_serial_term_limits_speedup(self):
        # With costs dominated by the serial term, P=60 gains little.
        ledger = CostLedger()
        ledger.charge(work=1000, depth=1, serial=100000)
        machine = Machine(cores=30, smt=2)
        speedup = ledger.simulated_time(2, machine=machine) / ledger.simulated_time(
            60, machine=machine
        )
        assert speedup < 1.2

    def test_work_by_label(self):
        ledger = CostLedger()
        ledger.charge(10, 1, "x")
        ledger.charge(15, 1, "x")
        ledger.charge(2, 1, "y")
        assert ledger.work_by_label() == {"x": 25.0, "y": 2.0}

    def test_snapshot(self):
        ledger = CostLedger()
        ledger.charge(5, 1)
        snap = ledger.snapshot()
        assert snap["work"] == 5.0


def _rows(ledger):
    return [(r.label, r.work, r.depth, r.serial) for r in ledger.regions()]


#: Costs whose sequential sum differs from NumPy's pairwise one.
_COSTS = np.random.default_rng(3).random(200) * 1e3


class TestLedgerArrayPaths:
    def test_later_regions_take_their_place(self):
        sequential = 0.0
        for value in _COSTS.tolist():
            sequential += value
        assert sequential != float(np.sum(_COSTS))  # the case this covers
        labels = [f"r{i}" for i in range(_COSTS.size)]
        columns = (labels, _COSTS, _COSTS * 2.0, _COSTS * 0.5)
        calls = []

        def build(args):
            calls.append(list(args))
            return [tuple(c[a:b] for c in columns) for a, b in args]

        want = CostLedger()
        want.charge(1.5, 0.25, "before")
        got = CostLedger()
        got.charge(1.5, 0.25, "before")
        for a, b in ((0, 60), (60, 61), (61, 200)):
            got.charge_later(build, (a, b))
            got.charge(7.0, 1.0, f"between-{a}")
            for label, work, depth, serial in zip(*(c[a:b] for c in columns)):
                want.charge(work, depth, label, serial=serial)
            want.charge(7.0, 1.0, f"between-{a}")
        assert calls == []  # nothing is built before a read
        assert got.snapshot() == want.snapshot()
        assert calls == [[(0, 60), (60, 61), (61, 200)]]  # one build for all
        assert _rows(got) == _rows(want)
        assert got.rows(1) == _rows(want)[1:]
        got.charge(1.0, 1.0, "end")
        want.charge(1.0, 1.0, "end")
        assert got.total_work == want.total_work
        assert got.num_regions == want.num_regions == 200 + 5
        assert got.simulated_time(60) == want.simulated_time(60)

    def test_negative_cost_names_its_label(self):
        ledger = CostLedger()
        work = np.array([1.0, 2.0, 3.0])
        ledger.charge_later(
            lambda calls: [(["worse"], -work[:1], work[:1], work[:1])], None
        )
        with pytest.raises(SchedulerError, match="'worse'"):
            ledger.snapshot()


class TestSimulatedScheduler:
    def test_charges_reach_ledger(self):
        sched = SimulatedScheduler(num_workers=8)
        sched.charge(100, 3, "region")
        assert sched.ledger.total_work == 100

    def test_cas_contention_charges(self):
        sched = SimulatedScheduler(num_workers=8)
        # Queues of 5, 1 and 3: 4 + 0 + 2 retries of work; max queue 5
        # serialized.
        sched.charge_cas_contention(6, 5)
        assert sched.ledger.total_work > 0
        assert sched.ledger.total_serial > 0

    def test_cas_no_contention_is_free(self):
        sched = SimulatedScheduler(num_workers=8)
        # Queues of 1, 1 and 1: no retries.
        sched.charge_cas_contention(0, 1)
        assert sched.ledger.num_regions == 0

    def test_invalid_worker_count(self):
        with pytest.raises(SchedulerError):
            SimulatedScheduler(num_workers=0)

    def test_simulated_time_default_workers(self):
        sched = SimulatedScheduler(num_workers=4)
        sched.charge(4000, 0)
        assert sched.simulated_time() == pytest.approx(
            sched.ledger.simulated_time(4, machine=sched.machine, tau=sched.tau)
        )
