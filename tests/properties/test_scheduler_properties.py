"""Property-based tests on the simulated-time model."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel.scheduler import DEFAULT_TAU, OPS_PER_SECOND, CostLedger, Machine

region_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e7),   # work
        st.floats(min_value=0.0, max_value=1e4),   # depth
        st.floats(min_value=0.0, max_value=1e5),   # serial
    ),
    min_size=1,
    max_size=12,
)


def build_ledger(regions):
    ledger = CostLedger()
    for work, depth, serial in regions:
        ledger.charge(work, depth, "r", serial=serial)
    return ledger


class TestSimulatedTimeProperties:
    @given(region_lists)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_workers(self, regions):
        ledger = build_ledger(regions)
        machine = Machine(cores=30, smt=2)
        times = [
            ledger.simulated_time(p, machine=machine)
            for p in (2, 4, 8, 16, 30, 45, 60)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(times, times[1:]))

    @given(region_lists)
    @settings(max_examples=100, deadline=None)
    def test_bounded_below_by_critical_path(self, regions):
        """No worker count beats the depth + serial lower bound."""
        ledger = build_ledger(regions)
        machine = Machine(cores=64, smt=1)
        floor = (ledger.total_depth + ledger.total_serial) / 2.0e9
        assert ledger.simulated_time(64, machine=machine, tau=0.0) >= floor - 1e-18

    @given(region_lists)
    @settings(max_examples=60, deadline=None)
    def test_sequential_time_is_total_ops(self, regions):
        ledger = build_ledger(regions)
        expected = (ledger.total_work + ledger.total_serial) / 2.0e9
        assert abs(ledger.simulated_time(1) - expected) < 1e-18

    @given(region_lists)
    @example([(4.144154786775108e-305, 0.0, 0.0)])
    @settings(max_examples=60, deadline=None)
    def test_speedup_bounded_by_effective_parallelism(self, regions):
        """``ops(1) <= eff * ops(60)``, checked on operation counts: the
        simulated times divide by ``OPS_PER_SECOND`` and can land in the
        subnormal range, where their ratio is mostly rounding."""
        ledger = build_ledger(regions)
        machine = Machine(cores=30, smt=2)
        eff = machine.effective_parallelism(60)
        ops_1 = ledger.total_work + ledger.total_serial
        ops_60 = (
            ledger.total_work / eff
            + ledger.total_depth * (1.0 + DEFAULT_TAU)
            + ledger.total_serial
        )
        # The op counts are exactly the ones the simulated times divide.
        assert ledger.simulated_time(1, machine=machine) == ops_1 / OPS_PER_SECOND
        assert ledger.simulated_time(60, machine=machine) == ops_60 / OPS_PER_SECOND
        # Relative rounding of the sums, plus ``work / eff`` losing up to
        # one subnormal ulp when it is itself subnormal.
        slack = 1e-12 * ops_1 + eff * math.ulp(0.0)
        assert ops_1 <= eff * ops_60 + slack
