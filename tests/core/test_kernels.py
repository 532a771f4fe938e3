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
from repro.kernels.reference import reference_batch_moves, reference_sweep
from repro.kernels.sweep import speculative_sweep
from repro.kernels.vectorized import vectorized_batch_moves
from repro.obs.instrument import (
    M_KERNEL_BATCH,
    M_KERNEL_FALLBACK,
    M_KERNEL_SEGMENTS,
    Instrumentation,
)
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultyClusterState

RESOLUTION = 0.05


class TestRegistry:
    def test_registry_contents(self):
        assert set(KERNELS) == {"native", "reference", "vectorized"}
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
        assert KERNEL_FALLBACKS == {
            "native": "reference",
            "vectorized": "reference",
        }


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


class TestSmallBatchFallback:
    def test_fallback_is_bit_identical_and_counted(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(4, dtype=np.int64)  # tiny: below the cutoff
        instr = Instrumentation()
        ref = reference_batch_moves(graph, state, batch, RESOLUTION)
        vec = vectorized_batch_moves(
            graph, state, batch, RESOLUTION, instr=instr
        )
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(ref[1], vec[1])
        fallbacks = instr.metrics.get(M_KERNEL_FALLBACK)
        assert fallbacks is not None
        assert fallbacks.value(site="batch") == 1.0

    def test_large_batch_takes_segment_path(self):
        graph = planted_partition_graph(300, seed=0).graph
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        instr = Instrumentation()
        vectorized_batch_moves(graph, state, batch, RESOLUTION, instr=instr)
        assert instr.metrics.get(M_KERNEL_FALLBACK) is None
        segments = instr.metrics.get(M_KERNEL_SEGMENTS)
        assert segments is not None and segments.total_count() == 1


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
            graph, state, batch, RESOLUTION, sched=sched, kernel="vectorized"
        )
        hist = sched.instr.metrics.get(M_KERNEL_BATCH)
        assert hist is not None
        assert hist.count(kernel="vectorized") == 1

    def test_kernels_agree_via_dispatch(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        ref = compute_batch_moves(
            graph, state, batch, RESOLUTION, kernel="reference"
        )
        for kernel in ("native", "vectorized"):
            got = compute_batch_moves(
                graph, state, batch, RESOLUTION, kernel=kernel
            )
            assert np.array_equal(ref[0], got[0]), kernel
            assert np.array_equal(ref[1], got[1]), kernel

    @pytest.mark.parametrize("kernel", ["native", "vectorized"])
    def test_default_config_cluster_matches_reference(self, kernel):
        graph = planted_partition_graph(300, seed=4).graph
        config = ClusteringConfig(resolution=RESOLUTION, seed=3)
        ref = cluster(graph, config.with_options(kernel="reference"))
        got = cluster(graph, config.with_options(kernel=kernel))
        assert np.array_equal(ref.assignments, got.assignments)
        assert ref.objective == got.objective
        assert ref.sim_time() == got.sim_time()


class TestSpeculativeSweep:
    def _parity(self, graph, order):
        ref_state = ClusterState.singletons(graph)
        vec_state = ClusterState.singletons(graph)
        ref = reference_sweep(graph, ref_state, order, RESOLUTION)
        vec = speculative_sweep(graph, vec_state, order, RESOLUTION)
        for got, want in zip(vec, ref):
            assert np.array_equal(np.asarray(got), np.asarray(want))
        assert np.array_equal(ref_state.assignments, vec_state.assignments)
        assert np.array_equal(
            ref_state.cluster_weights, vec_state.cluster_weights
        )

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

    def test_faulty_state_falls_back_to_reference(self):
        # FaultyClusterState buffers and perturbs writes, which would
        # desynchronize the speculative replay's snapshot reasoning; the
        # sweep must detect the wrapper and take the dict path.
        graph = karate_club_graph()
        state = FaultyClusterState(
            ClusterState.singletons(graph), FaultPlan(seed=0)
        )
        instr = Instrumentation()
        order = np.arange(graph.num_vertices, dtype=np.int64)
        speculative_sweep(graph, state, order, RESOLUTION, instr=instr)
        fallbacks = instr.metrics.get(M_KERNEL_FALLBACK)
        assert fallbacks is not None
        assert fallbacks.value(site="sweep") == 1.0
