"""Process execution backend: parity, sizing, fallback, leak hygiene.

The backend's whole contract is DESIGN.md §13: running batch work on
real OS workers over shared memory must be *bit-identical* to the
simulated inline path — same targets, same gains, same assignments,
same ``f_objective`` — and must never leave a shared-memory segment
behind, whether the run exits normally, a worker is killed mid-run, or
``/dev/shm`` fills up mid-run.
"""

import errno
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig, Frontier, Mode
from repro.core.options import RunOptions
from repro.core.engines import ENGINES
from repro.errors import ConfigError
from repro.generators.lfr import lfr_like_graph
from repro.generators.rmat import rmat_graph
from repro.graphs.karate import karate_club_graph
from repro.obs.instrument import M_BACKEND_DISPATCH, Instrumentation
from repro.parallel.backend import BACKEND_NAMES, create_backend, resolve_workers
from repro.parallel.backend.process import (
    BackendUnavailable,
    ProcessBackend,
    leaked_segment_files,
)

pytestmark = pytest.mark.parallel_backend


def _graphs():
    return {
        "karate": karate_club_graph(),
        "rmat": rmat_graph(9, 4096, seed=5),
        "lfr": lfr_like_graph(500, seed=7).graph,
    }


@pytest.fixture(scope="module")
def graphs():
    return _graphs()


@pytest.fixture(scope="class")
def pool():
    """One warm pool shared by the parity sweep (the intended usage).

    The low dispatch threshold makes the sweep's small graphs actually
    reach the workers.  Class-scoped so it is fully closed before the
    leak-hygiene tests scan ``/dev/shm`` — a live pool's segments are
    not leaks.
    """
    backend = ProcessBackend(workers=2, min_dispatch=64)
    yield backend
    backend.close()


class TestParity:
    """Process backend is bit-identical to simulated, all engines."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("gname", ["karate", "rmat", "lfr"])
    def test_engine_bit_identical(self, graphs, pool, engine, gname):
        graph = graphs[gname]
        before = pool.stats()["dispatches"]
        for seed in (1, 12):
            config = ClusteringConfig(seed=seed, num_workers=4)
            base = cluster(graph, config, RunOptions(engine=engine))
            proc = cluster(graph, config, RunOptions(engine=engine, backend=pool))
            assert np.array_equal(base.assignments, proc.assignments)
            assert base.objective == proc.objective
            assert base.stats.total_moves == proc.stats.total_moves
        assert not pool.stats()["faulted"]
        if gname != "karate" and engine in ("colored", "prefix", "relaxed"):
            # Parity is only meaningful if the workers did the work.
            assert pool.stats()["dispatches"] > before

    def test_sync_all_frontier_dispatches(self, graphs):
        """A config with big batch windows exercises real dispatch."""
        graph = graphs["rmat"]
        config = ClusteringConfig(
            seed=3,
            mode=Mode.SYNC,
            frontier=Frontier.ALL,
            num_workers=2,
        )
        base = cluster(graph, config)
        with ProcessBackend(workers=2, min_dispatch=64) as backend:
            proc = cluster(graph, config, RunOptions(backend=backend))
            stats = backend.stats()
        assert np.array_equal(base.assignments, proc.assignments)
        assert base.objective == proc.objective
        assert stats["dispatches"] > 0
        assert not stats["faulted"]
        assert stats["bytes_shared"] > 0

    def test_native_kernel_in_spawned_workers(self, graphs, capfd):
        """Fresh (spawned) workers load the cached native library and
        match the dict oracle run inline."""
        graph = graphs["rmat"]
        config = ClusteringConfig(
            seed=3, mode=Mode.SYNC, frontier=Frontier.ALL, num_workers=2,
            kernel="native",
        )
        base = cluster(graph, replace(config, kernel="reference"))
        with ProcessBackend(
            workers=2, min_dispatch=64, start_method="spawn"
        ) as backend:
            proc = cluster(graph, config, RunOptions(backend=backend))
            stats = backend.stats()
        assert np.array_equal(base.assignments, proc.assignments)
        assert base.objective == proc.objective
        assert (
            base.stats_dict()["sim_time_seconds"]
            == proc.stats_dict()["sim_time_seconds"]
        )
        assert stats["dispatches"] > 0
        assert not stats["faulted"]
        assert "native kernel unavailable" not in capfd.readouterr().err

    def test_sync_vertex_neighbors_gather_parity(self, graphs, pool):
        """SYNC with the default frontier puts the sharded frontier
        gather (not only move evaluation) under the parity check."""
        graph = graphs["rmat"]
        config = ClusteringConfig(seed=5, mode=Mode.SYNC, num_workers=2)
        base = cluster(graph, config)
        instr = Instrumentation()
        proc = cluster(
            graph, config, RunOptions(instrumentation=instr, backend=pool)
        )
        assert np.array_equal(base.assignments, proc.assignments)
        assert base.objective == proc.objective
        assert (
            base.stats_dict()["sim_time_seconds"]
            == proc.stats_dict()["sim_time_seconds"]
        )
        assert instr.metrics.get(M_BACKEND_DISPATCH).count(phase="frontier") > 0
        assert not pool.stats()["faulted"]

    def test_simulated_time_identical(self, graphs, pool):
        """The cost model is charged identically on both paths."""
        graph = graphs["rmat"]
        config = ClusteringConfig(seed=9, num_workers=4)
        base = cluster(graph, config)
        proc = cluster(graph, config, RunOptions(backend=pool))
        assert (
            base.stats_dict()["sim_time_seconds"]
            == proc.stats_dict()["sim_time_seconds"]
        )

    def test_config_backend_field_end_to_end(self, graphs):
        """`config.backend = "process"` wires everything internally."""
        graph = graphs["karate"]
        base = cluster(graph, ClusteringConfig(seed=2))
        proc = cluster(graph, ClusteringConfig(seed=2, backend="process"))
        assert np.array_equal(base.assignments, proc.assignments)
        assert proc.extras["backend"]["name"] == "process"

    def test_backend_excluded_from_config_tag(self):
        sim = ClusteringConfig(seed=1)
        proc = ClusteringConfig(seed=1, backend="process")
        assert sim.config_tag(0.01) == proc.config_tag(0.01)


class TestWorkerSizing:
    def test_resolve_auto(self):
        resolved = resolve_workers(0, None)
        assert resolved >= 1
        assert resolve_workers(None, None) == resolved

    def test_resolve_explicit(self):
        assert resolve_workers(3, None) == 3

    def test_config_zero_means_auto(self):
        config = ClusteringConfig(num_workers=0)
        assert config.resolved_workers >= 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(num_workers=-1)

    def test_backend_name_validated(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(backend="gpu")
        for name in BACKEND_NAMES:
            ClusteringConfig(backend=name)


class TestFallback:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            create_backend("threads")

    def test_unavailable_process_pool_degrades_to_simulated(self):
        with pytest.raises(BackendUnavailable):
            ProcessBackend(workers=1, start_method="no-such-method")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = create_backend(
                "process", workers=1, start_method="no-such-method"
            )
        assert backend is None
        assert [w.category for w in caught] == [RuntimeWarning]

    def test_simulated_backend_is_inline(self):
        assert create_backend("simulated") is None


class TestLeakHygiene:
    def test_no_segments_after_normal_exit(self, graphs):
        graph = graphs["rmat"]
        config = ClusteringConfig(seed=4, mode=Mode.SYNC, frontier=Frontier.ALL)
        with ProcessBackend(workers=2, min_dispatch=64) as backend:
            cluster(graph, config, RunOptions(backend=backend))
            assert backend.stats()["dispatches"] > 0
        assert leaked_segment_files() == []

    def test_no_segments_after_worker_crash(self, graphs):
        """A killed worker degrades the run to inline — same results,
        faulted stats, zero surviving segments."""
        graph = graphs["rmat"]
        config = ClusteringConfig(seed=4, mode=Mode.SYNC, frontier=Frontier.ALL)
        base = cluster(graph, config)
        backend = ProcessBackend(
            workers=2, min_dispatch=64, chaos_kill_after=2
        )
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                proc = cluster(graph, config, RunOptions(backend=backend))
            stats = backend.stats()
        finally:
            backend.close()
        assert np.array_equal(base.assignments, proc.assignments)
        assert base.objective == proc.objective
        assert stats["faulted"]
        assert stats["fault_reason"]
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )
        assert leaked_segment_files() == []

    def test_shm_exhaustion_mid_run_degrades_inline(self, graphs):
        """A full ``/dev/shm`` after the pool is live faults the backend:
        the run finishes inline with identical results and no leaks."""
        graph = graphs["rmat"]
        config = ClusteringConfig(seed=4, mode=Mode.SYNC, frontier=Frontier.ALL)
        base = cluster(graph, config)
        backend = ProcessBackend(workers=2, min_dispatch=64)
        real_new_segment = backend._new_segment

        def exhausted(nbytes):
            if backend.stats()["dispatches"] > 0:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_new_segment(nbytes)

        backend._new_segment = exhausted
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                proc = cluster(graph, config, RunOptions(backend=backend))
            stats = backend.stats()
        finally:
            backend.close()
        assert np.array_equal(base.assignments, proc.assignments)
        assert base.objective == proc.objective
        assert stats["dispatches"] > 0
        assert stats["faulted"]
        assert "No space left" in stats["fault_reason"]
        assert [w.category for w in caught] == [RuntimeWarning]
        assert leaked_segment_files() == []

    def test_close_is_idempotent(self):
        backend = ProcessBackend(workers=1)
        backend.close()
        backend.close()
        assert leaked_segment_files() == []


class TestSupervisorLadder:
    def test_simulated_backend_adds_no_rung(self):
        """The pool degrades itself, so no backend gets a ladder rung."""
        from repro.supervisor.policy import fallback_rungs

        rungs = fallback_rungs(ClusteringConfig())
        assert fallback_rungs(ClusteringConfig(backend="process")) == rungs
        assert "simulated-backend" not in [rung.name for rung in rungs]


class TestObservability:
    def test_wall_clock_worker_lanes(self, graphs):
        from repro.obs.schema import validate_trace_records
        from repro.obs.timeline import PID_BACKEND, chrome_trace_events

        graph = graphs["rmat"]
        config = ClusteringConfig(
            seed=2, mode=Mode.SYNC, frontier=Frontier.ALL
        )
        instr = Instrumentation()
        with ProcessBackend(workers=2, min_dispatch=64) as backend:
            cluster(
                graph, config, RunOptions(instrumentation=instr, backend=backend)
            )
        records = list(instr.tracer.records)
        assert validate_trace_records(records) == []
        wall = [
            r
            for r in records
            if r.get("type") == "worker" and r.get("clock") == "wall"
        ]
        assert wall
        assert all(r["end"] >= r["start"] for r in wall)
        pids = {e.get("pid") for e in chrome_trace_events(records)}
        assert PID_BACKEND in pids

    def test_dispatch_metric_recorded(self, graphs):
        graph = graphs["rmat"]
        config = ClusteringConfig(
            seed=2, mode=Mode.SYNC, frontier=Frontier.ALL
        )
        instr = Instrumentation()
        with ProcessBackend(workers=2, min_dispatch=64) as backend:
            cluster(graph, config, RunOptions(instrumentation=instr, backend=backend))
        metric = instr.metrics.get(M_BACKEND_DISPATCH)
        assert metric is not None
        assert any(
            s["metric"] == M_BACKEND_DISPATCH for s in metric.samples()
        )
