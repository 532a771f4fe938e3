"""Unit tests for the move-evaluation kernel layer (DESIGN.md §8)."""

import argparse

import numpy as np
import pytest

from repro.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.moves import compute_batch_moves, kernel_depth
from repro.core.state import ClusterState
from repro.errors import ConfigError
from repro.generators.planted import planted_partition_graph
from repro.graphs.karate import karate_club_graph
from repro.kernels import DEFAULT_KERNEL, KERNEL_FALLBACKS, KERNELS, get_kernel
from repro.kernels.reference import reference_sweep
from repro.obs.instrument import M_KERNEL_BATCH, Instrumentation
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultyClusterState

RESOLUTION = 0.05


class TestRegistry:
    def test_registry_contents(self):
        assert sorted(KERNELS) == ["native", "reference"]
        assert DEFAULT_KERNEL == "native"
        for name, kernel in KERNELS.items():
            assert kernel.name == name

    def test_get_kernel_unknown_raises_typed_error(self):
        with pytest.raises(ConfigError, match="reference"):
            get_kernel("simd")

    def test_config_validates_kernel(self):
        assert ClusteringConfig(kernel="reference").kernel == "reference"
        with pytest.raises(ConfigError):
            ClusteringConfig(kernel="nope")

    def test_kernel_names_come_from_the_registry(self):
        assert ClusteringConfig().kernel == DEFAULT_KERNEL
        parser = argparse.ArgumentParser()
        ClusteringConfig.add_args(parser)
        action = next(a for a in parser._actions if a.dest == "kernel")
        assert action.choices == sorted(KERNELS)
        assert action.default == DEFAULT_KERNEL
        assert parser.parse_args(["--kernel", "native"]).kernel == "native"

    def test_every_fast_kernel_falls_back_to_reference(self):
        assert KERNEL_FALLBACKS == {"native": "reference"}


class TestKernelDepth:
    def test_sequential_branch_is_max_degree(self):
        degrees = np.array([3, 7, 2], dtype=np.int64)
        assert kernel_depth(degrees, threshold=512) == 7.0

    def test_parallel_branch_is_logarithmic(self):
        degrees = np.array([1024], dtype=np.int64)
        assert kernel_depth(degrees, threshold=512) == 2.0 * 10.0

    def test_parallel_branch_clamps_to_one(self):
        # threshold=0 routes even degree-1 vertices to the hash-table
        # kernel; 2*log2(1) = 0 must clamp to a one-step floor rather
        # than claiming a free evaluation.
        degrees = np.array([1], dtype=np.int64)
        assert kernel_depth(degrees, threshold=0) == 1.0

    def test_empty_batch_depth_is_one(self):
        assert kernel_depth(np.array([], dtype=np.int64), threshold=512) == 1.0


class TestDispatch:
    def test_compute_batch_moves_observes_batch_size(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)

        class Sched:
            instr = Instrumentation()

            def charge(self, **kwargs):
                pass

        sched = Sched()
        compute_batch_moves(
            graph, state, batch, RESOLUTION, sched=sched, kernel="native"
        )
        hist = sched.instr.metrics.get(M_KERNEL_BATCH)
        assert hist is not None
        assert hist.count(kernel="native") == 1

    def test_kernels_agree_via_dispatch(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        ref = compute_batch_moves(
            graph, state, batch, RESOLUTION, kernel="reference"
        )
        got = compute_batch_moves(graph, state, batch, RESOLUTION, kernel="native")
        assert ref[0].tobytes() == got[0].tobytes()
        assert ref[1].tobytes() == got[1].tobytes()

    @pytest.mark.parametrize("kernel", ["native"])
    def test_default_config_cluster_matches_reference(self, kernel):
        graph = planted_partition_graph(300, seed=4).graph
        config = ClusteringConfig(resolution=RESOLUTION, seed=3)
        ref = cluster(graph, config.with_options(kernel="reference"))
        got = cluster(graph, config.with_options(kernel=kernel))
        assert np.array_equal(ref.assignments, got.assignments)
        assert ref.objective == got.objective
        assert ref.sim_time() == got.sim_time()


class TestSpeculativeSweep:
    """``NativeKernel.sweep`` against the dict sweep (the class keeps the
    name of the NumPy replay it replaced)."""

    def _parity(self, graph, order):
        ref_state = ClusterState.singletons(graph)
        nat_state = ClusterState.singletons(graph)
        ref = reference_sweep(graph, ref_state, order, RESOLUTION)
        nat = KERNELS["native"].sweep(graph, nat_state, order, RESOLUTION)
        for got, want in zip(nat[:3], ref[:3]):
            assert got.tobytes() == want.tobytes()
        assert nat[3] == ref[3]
        for field in ("assignments", "cluster_weights", "cluster_sizes"):
            got, want = getattr(nat_state, field), getattr(ref_state, field)
            assert got.tobytes() == want.tobytes(), field

    def test_matches_reference_on_karate(self):
        graph = karate_club_graph()
        self._parity(graph, np.arange(graph.num_vertices, dtype=np.int64))

    def test_matches_reference_on_planted_permutations(self):
        graph = planted_partition_graph(200, seed=2).graph
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(
                graph.num_vertices
            ).astype(np.int64)
            self._parity(graph, order)

    def test_faulty_state_falls_back_to_reference(self, monkeypatch):
        # FaultyClusterState buffers and perturbs writes that the C loop
        # would bypass; the sweep must detect the wrapper and take the
        # dict path, whose moves go through the wrapper.
        graph = karate_club_graph()
        state = FaultyClusterState(
            ClusterState.singletons(graph), FaultPlan(seed=0)
        )
        calls = []
        move_one = FaultyClusterState.move_one

        def counted(self, v, target):
            calls.append(v)
            return move_one(self, v, target)

        monkeypatch.setattr(FaultyClusterState, "move_one", counted)
        order = np.arange(graph.num_vertices, dtype=np.int64)
        movers = KERNELS["native"].sweep(graph, state, order, RESOLUTION)[0]
        assert movers.size > 0 and calls == movers.tolist()
