"""The native kernel's loader: lazy build, cache, fallback and threads.

Parity of the kernel itself against the dict oracle lives in
``tests/properties/test_kernel_equivalence.py``; these tests cover how
the shared library is built, cached, loaded and shared, and when the
sweep takes the dict loop.
"""

import gc
import os
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.state import ClusterState
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.karate import karate_club_graph
from repro.kernels import KERNELS, native
from repro.kernels.native import NativeKernel, NativeLibrary
from repro.kernels.reference import (
    accumulate_neighbor_weights,
    reference_batch_moves,
    reference_sweep,
)
from repro.obs.instrument import M_KERNEL_SEGMENTS, Instrumentation
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultyClusterState

SRC = str(Path(repro.__file__).resolve().parents[1])
RESOLUTION = 0.05


def _kernel(cache):
    return NativeKernel(NativeLibrary(cache_dirs=[cache]))


def _library_file():
    return native.library_name(os.path.realpath(shutil.which(native.COMPILER)))


def _inputs():
    graph = planted_partition_graph(200, seed=1).graph
    labels = np.random.default_rng(0).integers(0, 40, graph.num_vertices)
    state = ClusterState.from_assignments(graph, labels)
    batch = np.random.default_rng(1).permutation(graph.num_vertices)
    return graph, state, batch.astype(np.int64)


def _assert_same(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _assert_same_sweep(kernel, graph, make_state, order, **kw):
    """``kernel.sweep`` returns and mutates what ``reference_sweep`` does."""
    got_state, want_state = make_state(), make_state()
    got = kernel.sweep(graph, got_state, order, RESOLUTION, **kw)
    want = reference_sweep(graph, want_state, order, RESOLUTION, **kw)
    for g, w in zip(got[:3], want[:3]):
        assert g.tobytes() == w.tobytes()
    assert got[3] == want[3]
    for field in ("assignments", "cluster_weights", "cluster_sizes"):
        g, w = getattr(got_state, field), getattr(want_state, field)
        assert g.tobytes() == w.tobytes(), field
    return got


def _python(code: str, cache: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestLazyBuild:
    def test_import_builds_and_loads_nothing(self, tmp_path):
        proc = _python(
            "import repro, repro.cli\n"
            "from repro.kernels import KERNELS\n"
            "from repro.core.config import ClusteringConfig\n"
            "ClusteringConfig()\n"
            "assert KERNELS['native'].library._lib is None\n"
            "maps = open('/proc/self/maps').read()\n"
            "assert 'best_moves-' not in maps, 'library mapped at import'\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert not any(tmp_path.iterdir())

    def test_first_batch_builds_into_the_cache(self, tmp_path):
        graph, state, batch = _inputs()
        got = _kernel(tmp_path).batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))
        assert [p.name for p in tmp_path.iterdir()] == [_library_file()]

    def test_fresh_process_loads_without_the_compiler(self, tmp_path):
        cache = tmp_path / "repro-native"
        graph, state, batch = _inputs()
        _kernel(cache).batch_moves(graph, state, batch, RESOLUTION)
        proc = _python(
            "import subprocess, warnings\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('compiler invoked')\n"
            "subprocess.run = subprocess.Popen = refuse\n"
            "warnings.simplefilter('error')\n"
            "import numpy as np\n"
            "from repro.core.state import ClusterState\n"
            "from repro.graphs.karate import karate_club_graph\n"
            "from repro.kernels import KERNELS\n"
            "from repro.kernels.reference import reference_batch_moves\n"
            "g = karate_club_graph()\n"
            "s = ClusterState.singletons(g)\n"
            "b = np.arange(g.num_vertices)\n"
            "got = KERNELS['native'].batch_moves(g, s, b, 0.05)\n"
            "want = reference_batch_moves(g, s, b, 0.05)\n"
            "assert got[1].tobytes() == want[1].tobytes()\n"
            "assert KERNELS['native'].library._lib is not None\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert [p.name for p in cache.iterdir()] == [_library_file()]

    def test_stray_temp_file_is_never_loaded(self, tmp_path):
        stray = tmp_path / f".{_library_file()}.x1y2z3.tmp"
        stray.write_bytes(b"half a library")
        graph, state, batch = _inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernel(tmp_path).batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))
        assert stray.read_bytes() == b"half a library"
        assert (tmp_path / _library_file()).is_file()

    def test_unusable_cache_dir_falls_through_to_the_next(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("")
        usable = tmp_path / "cache"
        kernel = NativeKernel(NativeLibrary(cache_dirs=[blocked, usable]))
        graph, state, batch = _inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel.batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))
        assert [p.name for p in usable.iterdir()] == [_library_file()]

    def test_unloadable_cached_library_is_rebuilt(self, tmp_path):
        (tmp_path / _library_file()).write_bytes(b"\x7fELF truncated")
        graph, state, batch = _inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernel(tmp_path).batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))


class TestFallback:
    @pytest.mark.parametrize("compiler", ["repro-no-such-cc", "false"])
    def test_warns_once_and_matches_reference(self, tmp_path, monkeypatch, compiler):
        # A missing compiler, then one whose every build fails.
        monkeypatch.setattr(native, "COMPILER", compiler)
        kernel = _kernel(tmp_path)
        graph, state, batch = _inputs()
        calls = [
            dict(allow_escape=True, swap_avoidance=False),
            dict(allow_escape=False, swap_avoidance=True),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = [
                kernel.batch_moves(graph, state, batch, RESOLUTION, **kw)
                for kw in calls
            ]
            for escape in (True, False):
                _assert_same_sweep(
                    kernel, graph,
                    lambda: ClusterState.from_assignments(graph, state.assignments),
                    batch, allow_escape=escape,
                )
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "native kernel unavailable" in str(runtime[0].message)
        for out, kw in zip(got, calls):
            want = reference_batch_moves(graph, state, batch, RESOLUTION, **kw)
            _assert_same(out, want)
        assert not any(tmp_path.iterdir())  # no library, no leftover temp


class TestThreads:
    def test_concurrent_clusters_match_serial(self):
        # More threads than cores and a short switch interval, so threads
        # interleave inside and around the GIL-free C calls.
        graphs = [
            rmat_graph(10, 8 * 2**10, seed=4),
            planted_partition_graph(600, seed=2).graph,
        ]
        # The default config runs the batch loop; parallel=False runs the
        # sequential engine, which runs the sweep loop.
        configs = [
            ClusteringConfig(resolution=RESOLUTION, seed=3),
            ClusteringConfig(resolution=RESOLUTION, seed=3, parallel=False),
        ]
        serial = [[cluster(g, c) for c in configs] for g in graphs]
        results = [[] for _ in range(4)]
        barrier = threading.Barrier(len(results))

        def work(i):
            barrier.wait()
            for _ in range(3):
                results[i].append([cluster(graphs[i % 2], c) for c in configs])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(results))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            want = serial[i % 2]
            assert len(runs) == 3
            for run in runs:
                for got, expected in zip(run, want):
                    assert np.array_equal(got.assignments, expected.assignments)
                    assert got.objective == expected.objective


class TestPointerCache:
    def test_cache_does_not_keep_a_finished_graph_alive(self):
        graph, state, batch = _inputs()
        KERNELS["native"].batch_moves(graph, state, batch, RESOLUTION)
        arrays = [weakref.ref(graph.neighbors), weakref.ref(state.assignments)]
        del graph, state
        gc.collect()
        assert all(ref() is None for ref in arrays)

    def test_replaced_state_arrays_are_rebound(self):
        graph, state, batch = _inputs()
        kernel = KERNELS["native"]
        kernel.batch_moves(graph, state, batch, RESOLUTION)
        state.assignments = np.zeros_like(state.assignments)
        state.cluster_weights = np.zeros_like(state.cluster_weights)
        state.cluster_weights[0] = graph.node_weights.sum()
        state.cluster_sizes = np.zeros_like(state.cluster_sizes)
        state.cluster_sizes[0] = graph.num_vertices
        got = kernel.batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))


class TestKernelEdges:
    def test_zero_degree_rows_zero_and_negative_weights(self):
        # Vertex 6 has no edges and an empty home slot (escape); vertex
        # 0's only way out of its negative cluster is a zero-weight edge
        # to cluster 9, which must still be a candidate; vertex 4's edges
        # into cluster 1 sum to zero.
        edges = np.asarray(
            [(1, 2), (1, 4), (2, 4), (4, 5), (5, 7), (7, 8), (8, 5),
             (0, 3), (0, 9)],
            dtype=np.int64,
        )
        weights = np.asarray([0.0, 1.5, -1.5, -0.25, 2.0, 0.0, 1.0, -1.0, 0.0])
        graph = graph_from_edges(edges, weights=weights, num_vertices=10)
        labels = np.asarray([0, 1, 1, 0, 4, 5, 5, 7, 8, 9], dtype=np.int64)
        state = ClusterState.from_assignments(graph, labels)
        batch = np.arange(10, dtype=np.int64)
        for lam in (0.0, 0.05, 0.7):
            for escape in (False, True):
                for swap in (False, True):
                    got = KERNELS["native"].batch_moves(
                        graph, state, batch, lam,
                        allow_escape=escape, swap_avoidance=swap,
                    )
                    want = reference_batch_moves(
                        graph, state, batch, lam,
                        allow_escape=escape, swap_avoidance=swap,
                    )
                    _assert_same(got, want)
        assert reference_batch_moves(graph, state, batch, 0.0)[0][0] == 9
        assert reference_batch_moves(graph, state, batch, 0.7)[0][6] == 6

    def test_out_of_range_ids_raise_and_leave_scratch_clean(self):
        graph, state, batch = _inputs()
        kernel = KERNELS["native"]
        outside = np.asarray([0, graph.num_vertices], dtype=np.int64)
        with pytest.raises(IndexError):
            kernel.batch_moves(graph, state, outside, RESOLUTION)
        labels = state.assignments.copy()
        labels[graph.neighbors[graph.offsets[batch[3]] + 1]] = -1
        bad = ClusterState(
            labels, state.cluster_weights, state.cluster_sizes, state.node_weights
        )
        with pytest.raises(IndexError):
            kernel.batch_moves(graph, bad, batch, RESOLUTION)
        got = kernel.batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))

    def test_out_of_range_sweep_id_raises(self):
        graph, state, _ = _inputs()
        order = np.asarray([0, graph.num_vertices], dtype=np.int64)
        with pytest.raises(IndexError):
            KERNELS["native"].sweep(graph, state, order, RESOLUTION)
        # The scratch arrays were left clean for the next call.
        _assert_same_sweep(
            KERNELS["native"], graph,
            lambda: ClusterState.from_assignments(graph, state.assignments),
            np.arange(graph.num_vertices, dtype=np.int64),
        )

    def test_faulty_state_sweep_takes_the_dict_loop(self):
        # Dropped, delayed and duplicated writes go through the wrapper's
        # move_one, so both sweeps must mutate the state identically.
        graph, state, batch = _inputs()

        spec = "drop-move=0.2,stale-read=0.2,dup-move=0.2"

        def faulty():
            return FaultyClusterState(
                ClusterState.from_assignments(graph, state.assignments),
                FaultPlan.from_spec(spec, seed=5),
            )

        movers = _assert_same_sweep(KERNELS["native"], graph, faulty, batch)[0]
        assert movers.size > 0

    def test_mismatched_array_sizes_raise(self):
        graph, state, batch = _inputs()
        short = ClusterState(
            state.assignments[:-1], state.cluster_weights,
            state.cluster_sizes, state.node_weights,
        )
        with pytest.raises(ValueError, match="sizes"):
            KERNELS["native"].batch_moves(graph, short, batch, RESOLUTION)

    def test_empty_batch(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        targets, gains = KERNELS["native"].batch_moves(
            graph, state, np.zeros(0, dtype=np.int64), RESOLUTION
        )
        assert targets.size == 0 and gains.size == 0

    def test_non_contiguous_inputs_are_read_correctly(self):
        graph, state, batch = _inputs()
        strided = np.repeat(batch, 2)[::2]
        assert not strided.flags.c_contiguous
        wide = np.zeros((state.assignments.size, 2), dtype=np.int64)
        wide[:, 0] = state.assignments
        view = ClusterState(
            wide[:, 0], state.cluster_weights, state.cluster_sizes,
            state.node_weights,
        )
        got = KERNELS["native"].batch_moves(graph, view, strided, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))

        # A sweep must write into the view itself, not into a copy.
        def strided_state():
            wide = np.zeros((state.assignments.size, 2), dtype=np.int64)
            wide[:, 0] = state.assignments
            return ClusterState(
                wide[:, 0], state.cluster_weights.copy(),
                state.cluster_sizes.copy(), state.node_weights,
            )

        _assert_same_sweep(KERNELS["native"], graph, strided_state, strided)


class TestObservability:
    def test_segments_histogram_uses_the_c_pair_count(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        instr = Instrumentation()
        KERNELS["native"].batch_moves(
            graph, state, batch, RESOLUTION, instr=instr
        )
        hist = instr.metrics.get(M_KERNEL_SEGMENTS)
        pairs = sum(
            len(accumulate_neighbor_weights(graph, state.assignments, v))
            for v in range(graph.num_vertices)
        )
        assert hist.total_count() == 1
        assert hist.total_sum() == pairs
