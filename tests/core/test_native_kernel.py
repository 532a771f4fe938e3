"""The native library: lazy build, cache, load failure, threads, and the
round, frontier and compression against their references.

Parity of the kernel itself against the dict oracle lives in
``tests/properties/test_kernel_equivalence.py``; these tests cover how
the shared library is built, cached, loaded and shared, that a library
which cannot be built fails loudly, and when the sweep takes the dict
loop.  The oracle classes at the end run each native entry point, then
the same call on the references of ``tests/oracles.py``
(:func:`~tests.oracles.reference_paths`), and compare bytes, ledger
regions and metrics.
"""

import collections
import contextlib
import gc
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import cluster
from repro.core import best_moves
from repro.core.config import ClusteringConfig, Mode
from repro.core.engines import ENGINES, multilevel_with_engine
from repro.core.moves import kernel_threads
from repro.core.objective import lambdacc_objective
from repro.core.options import RunOptions
from repro.core.state import ClusterState
from repro.generators.knn import knn_graph
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.karate import karate_club_graph
from repro.graphs.quotient import compress_graph, compress_graph_naive
from repro.kernels import native
from repro.kernels.native import NativeKernel, NativeLibrary
from repro.kernels.reference import (
    accumulate_neighbor_weights,
    reference_batch_moves,
    reference_sweep,
)
from repro.obs.instrument import (
    M_ATOMIC_QUEUE,
    M_CAS_ATTEMPTS,
    M_CAS_INJECTED,
    M_CAS_RETRIES,
    M_DEDUP_HITS,
    M_DEDUP_RATE,
    M_KERNEL_SEGMENTS,
    Instrumentation,
)
from repro.parallel.edge_map import edge_map
from repro.parallel.scheduler import CAS_COST, SimulatedScheduler, contention_cost
from repro.parallel.vertex_subset import VertexSubset
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.resilience.faults import FaultyClusterState
from tests.oracles import reference_paths

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


def _python(code: str, cache: Path, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache), **env)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestLazyBuild:
    def test_import_builds_and_loads_nothing(self, tmp_path):
        proc = _python(
            "import repro, repro.cli\n"
            "from repro.kernels import native\n"
            "from repro.core.config import ClusteringConfig\n"
            "ClusteringConfig()\n"
            "assert native.KERNEL.library._cdll is None\n"
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
            "from repro.kernels import native\n"
            "from repro.kernels.reference import reference_batch_moves\n"
            "g = karate_club_graph()\n"
            "s = ClusterState.singletons(g)\n"
            "b = np.arange(g.num_vertices)\n"
            "got = native.KERNEL.batch_moves(g, s, b, 0.05)\n"
            "want = reference_batch_moves(g, s, b, 0.05)\n"
            "assert got[1].tobytes() == want[1].tobytes()\n"
            "assert native.KERNEL.library._cdll is not None\n",
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

    def test_build_deletes_only_stale_libraries(self, tmp_path):
        old = time.time() - 2 * native.STALE_LIBRARY_SECONDS
        stale = tmp_path / "best_moves-00000000000000000000.so"
        fresh = tmp_path / "best_moves-11111111111111111111.so"
        temp = tmp_path / ".best_moves-22222222222222222222.so.a1b2.tmp"
        for path in (stale, fresh, temp):
            path.write_bytes(b"an older library")
        os.utime(stale, (old, old))
        os.utime(temp, (old, old))
        graph, state, batch = _inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernel(tmp_path).batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))
        assert not stale.exists()
        assert fresh.exists() and temp.exists()
        assert (tmp_path / _library_file()).is_file()


#: Run in a fresh process without a working compiler: ``import repro``
#: succeeds, the first ``cluster()`` raises ``RuntimeError`` naming the
#: cause, and so do a second call and a supervised one, without running
#: the compiler again.  Prints the first error.
_LOAD_FAILURE = """
import os
import repro
from repro.errors import ReproError
from repro.graphs.karate import karate_club_graph
from repro.kernels import native
from repro.api import ClusteringConfig, RunSupervisor, cluster

def runs():
    path = os.environ["COMPILER_RUNS"]
    return len(open(path).read().splitlines()) if os.path.exists(path) else 0

def error(call):
    try:
        call()
    except RuntimeError as exc:
        assert not isinstance(exc, ReproError), type(exc)
        assert exc.__cause__ is not None
        return exc
    raise AssertionError("ran without the native library")

graph = karate_club_graph()
config = ClusteringConfig(resolution=0.05, seed=3)
first = error(lambda: cluster(graph, config))
before = runs()
for call in (lambda: cluster(graph, config), lambda: RunSupervisor().run(graph, config)):
    assert str(error(call)) == str(first)
assert runs() == before
assert native.KERNEL.library._cdll is None
print(first)
"""


class TestLoadFailure:
    @pytest.mark.parametrize("compiler", ["missing", "failing"])
    def test_first_use_raises_and_is_remembered(self, tmp_path, compiler):
        bin_dir, temp = tmp_path / "bin", tmp_path / "tmp"
        bin_dir.mkdir()
        temp.mkdir()
        runs = tmp_path / "compiler-runs"
        if compiler == "failing":
            fake = bin_dir / native.COMPILER
            fake.write_text(
                f"#!/bin/sh\necho run >> {runs}\n"
                "echo 'fake-cc: fatal error: cannot build' >&2\nexit 3\n"
            )
            fake.chmod(0o755)
            cause = f"{fake} exited 3: fake-cc: fatal error: cannot build"
        else:
            cause = f"no C compiler {native.COMPILER!r} on PATH"
        proc = _python(
            _LOAD_FAILURE, tmp_path / "cache", PATH=str(bin_dir),
            TMPDIR=str(temp), COMPILER_RUNS=str(runs),
        )
        assert proc.returncode == 0, proc.stderr
        assert "native library unavailable" in proc.stdout
        assert cause in proc.stdout
        if compiler == "failing":
            # One build: the compiler's error is not retried in the next
            # cache directory, and the message names it once.
            assert runs.read_text().count("run") == 1
            assert proc.stdout.count(cause) == 1


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
        with _cores(1):
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
        # Two kernel threads each: the threads contend for the kernel's
        # pool, and a caller that finds it busy runs its window alone.
        try:
            with _cores(2):
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


def _split_inputs():
    """Every vertex of a scale-13 RMAT graph under random labels: one
    window far above the kernel's split threshold, with skewed degrees."""
    graph = rmat_graph(13, 8 * 2**13, seed=3)
    labels = np.random.default_rng(4).integers(0, 500, graph.num_vertices)
    state = ClusterState.from_assignments(graph, labels)
    batch = np.random.default_rng(5).permutation(graph.num_vertices)
    return graph, state, batch.astype(np.int64)


def _split_windows():
    return native.pool_stats()["split_windows"]


def _cores(count):
    """Runs inside the block see ``count`` usable cores, so their kernel
    windows may split across ``count`` threads."""
    return mock.patch.object(native, "usable_cores", lambda: count)


def _cluster_on(cores, *args):
    with _cores(cores):
        return cluster(*args)


def _wait(pid, timeout=120.0):
    """The exit code of child ``pid``; kills it after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return "hung"


class TestPool:
    """One large window split across threads inside native.c."""

    def test_split_windows_match_the_reference(self):
        graph, state, batch = _split_inputs()
        kernel = native.KERNEL
        before = _split_windows()
        for kw in (dict(), dict(allow_escape=False, swap_avoidance=True)):
            want = reference_batch_moves(graph, state, batch, RESOLUTION, **kw)
            for threads in (1, 2, 3):
                for _ in range(3):
                    got = kernel.batch_moves(
                        graph, state, batch, RESOLUTION, threads=threads, **kw
                    )
                    _assert_same(got, want)
        assert _split_windows() == before + 2 * 2 * 3
        stats = native.pool_stats()
        assert stats["helpers"] >= 2
        assert stats["dirty_scratch"] == 0

    def test_pair_count_does_not_depend_on_threads(self):
        graph, state, batch = _split_inputs()
        sums = []
        for threads in (1, 2):
            instr = Instrumentation()
            native.KERNEL.batch_moves(
                graph, state, batch, RESOLUTION, instr=instr, threads=threads
            )
            sums.append(instr.metrics.get(M_KERNEL_SEGMENTS).total_sum())
        assert sums[0] == sums[1] > 0

    def test_small_windows_stay_on_the_caller(self):
        graph, state, batch = _split_inputs()
        before = _split_windows()
        for size in (1, 100, 255):
            _assert_same(
                native.KERNEL.batch_moves(
                    graph, state, batch[:size], RESOLUTION, threads=2
                ),
                reference_batch_moves(graph, state, batch[:size], RESOLUTION),
            )
        assert _split_windows() == before

    def test_out_of_range_ids_in_a_split_window(self):
        graph, state, batch = _split_inputs()
        kernel = native.KERNEL
        want = reference_batch_moves(graph, state, batch, RESOLUTION)
        outside = batch.copy()
        outside[batch.size // 2] = graph.num_vertices
        # A bad label on a high-degree vertex: its many neighbors fail
        # part-way through their rows, on whichever thread runs them.
        labels = state.assignments.copy()
        labels[np.argmax(np.diff(graph.offsets))] = -1
        bad = ClusterState(
            labels, state.cluster_weights, state.cluster_sizes, state.node_weights
        )
        before = _split_windows()
        for _ in range(5):
            with pytest.raises(IndexError):
                kernel.batch_moves(graph, state, outside, RESOLUTION, threads=2)
            with pytest.raises(IndexError):
                kernel.batch_moves(graph, bad, batch, RESOLUTION, threads=2)
        assert _split_windows() == before + 10
        assert native.pool_stats()["dirty_scratch"] == 0
        acc, seen, _, _ = native._SCRATCH.kernel  # the caller's scratch
        assert not acc.any() and not seen.any()
        for _ in range(3):
            got = kernel.batch_moves(graph, state, batch, RESOLUTION, threads=2)
            _assert_same(got, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helpers(self):
        graph, state, batch = _split_inputs()
        kernel = native.KERNEL
        want = kernel.batch_moves(graph, state, batch, RESOLUTION, threads=2)
        assert native.pool_stats()["helpers"] >= 1
        pid = os.fork()
        if pid == 0:  # the child: never returns into pytest
            status = 3
            try:
                reset = native.pool_stats()["helpers"] == 0
                got = kernel.batch_moves(graph, state, batch, RESOLUTION, threads=2)
                same = all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
                stats = native.pool_stats()
                split = stats["helpers"] == 1 and stats["split_windows"] == 1
                status = 0 if reset and same and split else 1
            finally:
                os._exit(status)
        assert _wait(pid) == 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
    )
    def test_helpers_start_on_the_first_split_window_and_park(self, tmp_path):
        proc = _python(
            "import os, time\n"
            "import numpy as np\n"
            "from repro.api import cluster\n"
            "from repro.core.config import ClusteringConfig\n"
            "from repro.core.state import ClusterState\n"
            "from repro.generators.rmat import rmat_graph\n"
            "from repro.graphs.karate import karate_club_graph\n"
            "from repro.kernels import native\n"
            "def tasks():\n"
            "    return set(os.listdir('/proc/self/task'))\n"
            "def ticks(tid):\n"
            "    with open(f'/proc/self/task/{tid}/stat') as f:\n"
            "        fields = f.read().rsplit(')', 1)[1].split()\n"
            "    return int(fields[11]) + int(fields[12])\n"
            "before = tasks()\n"
            "cluster(karate_club_graph(), ClusteringConfig(resolution=0.05, seed=3))\n"
            "assert native.pool_stats()['helpers'] == 0\n"
            "assert tasks() == before, 'a thread started without a split'\n"
            "g = rmat_graph(12, 8 * 2**12, seed=1)\n"
            "s = ClusterState.singletons(g)\n"
            "b = np.arange(g.num_vertices, dtype=np.int64)\n"
            "native.KERNEL.batch_moves(g, s, b, 0.05, threads=2)\n"
            "assert native.pool_stats()['helpers'] == 1\n"
            "(helper,) = tasks() - before\n"
            "time.sleep(0.05)\n"
            "parked = ticks(helper)\n"
            "time.sleep(0.3)\n"
            "assert ticks(helper) == parked, 'a parked helper used CPU'\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr

    def test_fault_runs_keep_one_thread(self):
        graph = rmat_graph(11, 8 * 2**11, seed=0)
        config = ClusteringConfig(resolution=RESOLUTION, seed=3, mode=Mode.SYNC)
        state = ClusterState.singletons(graph)
        sched = SimulatedScheduler(num_workers=8)
        with _cores(2):
            assert kernel_threads(state, sched) == 2
            plan = FaultPlan.from_spec("stale-read=0.1", seed=1)
            assert kernel_threads(FaultyClusterState(state, plan), sched) == 1
            sched.faults = plan
            assert kernel_threads(state, sched) == 1
            before = _split_windows()
            policy = ResiliencePolicy(faults=FaultPlan.from_spec("dup-move", seed=1))
            cluster(graph, config, RunOptions(resilience=policy))
            assert _split_windows() == before
            cluster(graph, config)
            assert _split_windows() > before

    def test_one_kernel_thread_per_usable_core(self):
        # A pure function: nothing here starts a thread.
        assert native.usable_cores() == len(os.sched_getaffinity(0))
        state = ClusterState.singletons(karate_club_graph())
        assert kernel_threads(state) == native.usable_cores()


_DIGEST_GRAPHS = {
    "karate": karate_club_graph,
    "rmat11": lambda: rmat_graph(11, 8 * 2**11, seed=0),
    "lfr3000": lambda: lfr_like_graph(3000, seed=0).graph,
}


@pytest.fixture(scope="module")
def digest_graphs():
    return {name: make() for name, make in _DIGEST_GRAPHS.items()}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_results_do_not_depend_on_threads(digest_graphs, engine):
    """One and two kernel threads give the same assignments, objective and
    simulated time in every graph x lambda x mode cell."""
    before = _split_windows()
    for name, graph in digest_graphs.items():
        for resolution in (0.05, 0.5):
            for mode in (Mode.SYNC, Mode.ASYNC):
                config = ClusteringConfig(resolution=resolution, mode=mode, seed=3)
                one, two = (
                    _cluster_on(cores, graph, config, RunOptions(engine=engine))
                    for cores in (1, 2)
                )
                cell = (name, resolution, mode.value)
                assert one.assignments.tobytes() == two.assignments.tobytes(), cell
                assert one.objective == two.objective, cell
                assert one.sim_time() == two.sim_time(), cell
    # The batch engines' large windows (SYNC rounds, color classes,
    # prefix lookaheads) did split; the event and sequential engines
    # evaluate one vertex at a time.
    if engine in ("colored", "prefix", "relaxed"):
        assert _split_windows() > before


class TestPointerCache:
    @pytest.mark.parametrize("call", ["batch_moves", "sweep", "round"])
    def test_cache_does_not_keep_a_finished_graph_alive(self, call):
        graph, state, batch = _inputs()
        kernel = native.KERNEL
        if call == "batch_moves":
            kernel.batch_moves(graph, state, batch, RESOLUTION)
        elif call == "sweep":
            assert kernel.sweep(graph, state, batch, RESOLUTION)[0].size > 0
        else:
            assert kernel.round(
                graph, state, batch, _starts(batch.size), RESOLUTION,
                threshold=512,
            ) is not None
        arrays = [weakref.ref(graph.neighbors), weakref.ref(state.assignments)]
        del graph, state
        gc.collect()
        assert all(ref() is None for ref in arrays)

    def test_replaced_state_arrays_are_rebound(self):
        graph, state, batch = _inputs()
        kernel = native.KERNEL
        kernel.batch_moves(graph, state, batch, RESOLUTION)
        _round_both(graph, state, batch)
        # New values in all three arrays, so a call that read the old ones
        # would show.
        state.assignments = np.zeros_like(state.assignments)
        state.cluster_weights = np.zeros_like(state.cluster_weights)
        state.cluster_weights[0] = graph.node_weights.sum()
        state.cluster_sizes = np.zeros_like(state.cluster_sizes)
        state.cluster_sizes[0] = graph.num_vertices
        got = kernel.batch_moves(graph, state, batch, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))
        _round_both(graph, state, batch)


def _binding_inputs(n=40, seed=0):
    graph = planted_partition_graph(n, seed=seed + 1).graph
    labels = np.random.default_rng(seed).integers(0, n // 4, graph.num_vertices)
    state = ClusterState.from_assignments(graph, labels)
    batch = np.random.default_rng(seed + 1).permutation(graph.num_vertices)
    return graph, state, batch.astype(np.int64)


def _starts(size, windows=4):
    """Starts of ``windows`` equal windows over ``size`` vertices."""
    return np.arange(0, size, max(1, -(-size // windows)), dtype=np.int64)


def _round_both(graph, state, order):
    """One round of ``order`` in four windows, in C (``KERNEL.round``)
    and as the reference loop (the dict kernel, then ``apply_moves``'
    NumPy commit, per window), each on a fresh copy of ``state``; asserts
    they agree and returns the C copy."""
    got, want = (
        ClusterState(
            state.assignments.copy(), state.cluster_weights.copy(),
            state.cluster_sizes.copy(), state.node_weights,
        )
        for _ in range(2)
    )
    starts = _starts(len(order))
    result = native.KERNEL.round(graph, got, order, starts, RESOLUTION, threshold=512)
    assert result is not None  # the round ran in C
    movers, origins, targets, _, windows = result
    bounds = starts.tolist() + [len(order)]
    moved, reference = [], []
    for begin, end in zip(bounds, bounds[1:]):
        window = np.asarray(order[begin:end], dtype=np.int64)
        chosen, _ = reference_batch_moves(graph, want, window, RESOLUTION)
        before = want.assignments[window]
        moved.append(want.apply_moves(window, chosen))
        moving = before != chosen
        reference.append((window[moving], before[moving], chosen[moving]))
    for x, parts in zip((movers, origins, targets), zip(*reference)):
        assert x.tobytes() == np.concatenate(parts).tobytes()
    assert windows.moved.tolist() == moved
    for field in ("assignments", "cluster_weights", "cluster_sizes"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    return got


def _strided_graph(graph):
    """``graph`` with strided ``neighbors`` and ``weights``, which C must
    copy, and the same ``node_weights`` object."""
    wide = [np.repeat(a, 2)[::2] for a in (graph.neighbors, graph.weights)]
    assert not any(a.flags.c_contiguous for a in wide)
    return CSRGraph(
        graph.offsets, *wide, graph.self_loops, graph.node_weights,
        graph.node_weight_sq,
    )


class TestBinding:
    """The per-call bindings of the BEST-MOVES entry points."""

    def test_a_new_level_rebinds(self):
        graph, state, batch = _binding_inputs()
        kernel = native.KERNEL
        _assert_same(
            kernel.batch_moves(graph, state, batch, RESOLUTION),
            reference_batch_moves(graph, state, batch, RESOLUTION),
        )
        quotient, _ = compress_graph(graph, state.assignments)
        coarse = ClusterState.singletons(quotient)
        order = np.arange(quotient.num_vertices, dtype=np.int64)
        _assert_same(
            kernel.batch_moves(quotient, coarse, order, RESOLUTION),
            reference_batch_moves(quotient, coarse, order, RESOLUTION),
        )

    def test_from_assignments_rebinds(self):
        graph, state, batch = _binding_inputs()
        kernel = native.KERNEL
        kernel.batch_moves(graph, state, batch, RESOLUTION)
        state.apply_moves(batch[:5], np.zeros(5, dtype=np.int64))
        relabelled = ClusterState.from_assignments(graph, batch % 3)
        _assert_same(
            kernel.batch_moves(graph, relabelled, batch, RESOLUTION),
            reference_batch_moves(graph, relabelled, batch, RESOLUTION),
        )
        got = _round_both(graph, relabelled, batch)
        kernel.round(
            graph, relabelled, batch, _starts(batch.size), RESOLUTION,
            threshold=512,
        )
        assert got.assignments.tobytes() == relabelled.assignments.tobytes()

    def test_a_grown_cluster_weights_rebinds(self):
        graph, state, batch = _binding_inputs()
        kernel = native.KERNEL
        kernel.batch_moves(graph, state, batch, RESOLUTION)
        state.apply_moves(batch[:3], np.ones(3, dtype=np.int64))
        # Ids past the old arrays' end become valid targets and labels.
        n = graph.num_vertices
        extra = 4096
        grown_weights = np.zeros(n + extra)
        grown_weights[:n] = state.cluster_weights
        grown_sizes = np.zeros(n + extra, dtype=np.int64)
        grown_sizes[:n] = state.cluster_sizes
        state.cluster_weights, state.cluster_sizes = grown_weights, grown_sizes
        far = np.full(4, n + extra - 1, dtype=np.int64)
        assert state.apply_moves(batch[:4], far) == 4
        assert state.cluster_sizes[-1] == 4
        assert state.cluster_weights[-1] == graph.node_weights[batch[:4]].sum()
        _assert_same(
            kernel.batch_moves(graph, state, batch, RESOLUTION),
            reference_batch_moves(graph, state, batch, RESOLUTION),
        )

    def test_four_threads_two_graphs_each(self):
        # Each thread alternates between two graphs and runs a whole round
        # on a fresh state each time, binding a new graph and state while
        # the others run inside the library; every round's movers, state
        # and per-window rows must match a serial run.  The rounds' commits
        # count their contention in the binding's scratch, so the counts
        # of concurrent rounds would collide if the threads shared it.
        graphs = [
            planted_partition_graph(40, seed=1).graph,
            rmat_graph(13, 8 * 2**13, seed=3),
        ]
        batches = [
            np.random.default_rng(k).permutation(g.num_vertices).astype(np.int64)
            for k, g in enumerate(graphs)
        ]

        def step(k, i, threads=1):
            graph, batch = graphs[k], batches[k]
            state = ClusterState.singletons(graph)
            *moves, windows = native.KERNEL.round(
                graph, state, batch, _starts(batch.size, 1 + 3 * i),
                RESOLUTION, threshold=512, threads=threads,
            )
            arrays = [*moves, *windows, state.cluster_weights]
            return [a.tobytes() for a in arrays]

        want = {
            (k, i): step(k, i) for k in range(len(graphs)) for i in range(4)
        }
        errors = []
        barrier = threading.Barrier(4)

        def work(i):
            try:
                barrier.wait()
                for n in range(40):
                    k = (n + i) % 2
                    # The RMAT windows split, or run alone while another
                    # thread holds the pool.
                    assert step(k, i, threads=2) == want[k, i]
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert not any(thread.is_alive() for thread in threads)

    def test_read_only_and_strided_windows(self):
        graph, state, batch = _binding_inputs()
        want = reference_batch_moves(graph, state, batch, RESOLUTION)
        frozen = batch.copy()
        frozen.flags.writeable = False
        strided = np.repeat(batch, 2)[::2]
        for window in (frozen, strided):
            _assert_same(
                native.KERNEL.batch_moves(graph, state, window, RESOLUTION), want
            )
        for order in (frozen, strided):
            _round_both(graph, state, order)
        # A graph whose CSR arrays C reads through copies.
        copied = _strided_graph(graph)
        _assert_same(
            native.KERNEL.batch_moves(copied, state, batch, RESOLUTION), want
        )
        _round_both(copied, state, batch)

    def test_library_off_matches_on(self):
        graph, state, batch = _binding_inputs()
        kernel = native.KERNEL
        config = ClusteringConfig(resolution=RESOLUTION, seed=3)
        starts = _starts(batch.size)
        results = []
        for context in (contextlib.nullcontext, reference_paths):
            with context():
                copy = ClusterState.from_assignments(graph, state.assignments)
                moves = kernel.batch_moves(graph, copy, batch, RESOLUTION)
                moved = copy.apply_moves(batch, moves[0])
                swept = ClusterState.from_assignments(graph, state.assignments)
                sweep = kernel.sweep(graph, swept, batch, RESOLUTION)
                rounded = ClusterState.from_assignments(graph, state.assignments)
                in_c = kernel.round(
                    graph, ClusterState.from_assignments(graph, state.assignments),
                    batch, starts, RESOLUTION, threshold=512,
                ) is not None
                round_moves = best_moves.window_round(
                    graph, rounded, RESOLUTION, config, batch, starts
                )
                results.append(
                    (moves, round_moves, moved, copy, sweep, swept, rounded, in_c)
                )
        on, off = results
        _assert_same(on[0], off[0])
        assert on[7] and not off[7]
        for a, b in zip(on[1][:3], off[1][:3]):
            assert a.tobytes() == b.tobytes()
        assert on[2] == off[2] > 0
        for field in ("assignments", "cluster_weights", "cluster_sizes"):
            for a, b in ((on[3], off[3]), (on[5], off[5]), (on[6], off[6])):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        for a, b in zip(on[4][:3], off[4][:3]):
            assert a.tobytes() == b.tobytes()
        assert on[4][3] == off[4][3]

    def test_windows_without_movers_charge_nothing(self):
        graph, state, batch = _binding_inputs()
        sched = SimulatedScheduler(num_workers=8, instr=Instrumentation())
        before = state.cluster_weights.tobytes()
        stay = state.assignments[batch].copy()
        assert state.apply_moves(batch, stay, sched=sched) == 0
        assert state.apply_moves(batch[:0], stay[:0], sched=sched) == 0
        assert _regions(sched) == []
        assert sched.instr.metrics.collect() == []
        assert state.cluster_weights.tobytes() == before
        # A C round in which nothing moves charges only its evaluation:
        # under a vanishing resolution no vertex leaves one whole cluster.
        whole = ClusterState.from_assignments(
            graph, np.zeros(graph.num_vertices, dtype=np.int64)
        )
        sched = SimulatedScheduler(num_workers=8, instr=Instrumentation())
        movers, *_ = best_moves.window_round(
            graph, whole, 1e-9, ClusteringConfig(resolution=1e-9, seed=3),
            batch, _starts(batch.size), sched=sched,
        )
        assert movers.size == 0
        assert {r[0] for r in _regions(sched)} == {"best-moves"}
        assert sched.instr.metrics.get(M_CAS_ATTEMPTS) is None


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
                    got = native.KERNEL.batch_moves(
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
        kernel = native.KERNEL
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
            native.KERNEL.sweep(graph, state, order, RESOLUTION)
        # The scratch arrays were left clean for the next call.
        _assert_same_sweep(
            native.KERNEL, graph,
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

        movers = _assert_same_sweep(native.KERNEL, graph, faulty, batch)[0]
        assert movers.size > 0

    def test_mismatched_array_sizes_raise(self):
        graph, state, batch = _inputs()
        short = ClusterState(
            state.assignments[:-1], state.cluster_weights,
            state.cluster_sizes, state.node_weights,
        )
        with pytest.raises(ValueError, match="sizes"):
            native.KERNEL.batch_moves(graph, short, batch, RESOLUTION)

    def test_empty_batch(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        targets, gains = native.KERNEL.batch_moves(
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
        got = native.KERNEL.batch_moves(graph, view, strided, RESOLUTION)
        _assert_same(got, reference_batch_moves(graph, state, batch, RESOLUTION))

        # A sweep must write into the view itself, not into a copy.
        def strided_state():
            wide = np.zeros((state.assignments.size, 2), dtype=np.int64)
            wide[:, 0] = state.assignments
            return ClusterState(
                wide[:, 0], state.cluster_weights.copy(),
                state.cluster_sizes.copy(), state.node_weights,
            )

        _assert_same_sweep(native.KERNEL, graph, strided_state, strided)
        # The sweep also runs in C on a graph whose CSR arrays C copies.
        copied = _strided_graph(graph)
        assert native.KERNEL._committing(copied, state) is not None
        _assert_same_sweep(
            native.KERNEL, copied,
            lambda: ClusterState.from_assignments(graph, state.assignments),
            batch,
        )


class TestObservability:
    def test_segments_histogram_uses_the_c_pair_count(self):
        graph = karate_club_graph()
        state = ClusterState.singletons(graph)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        instr = Instrumentation()
        native.KERNEL.batch_moves(
            graph, state, batch, RESOLUTION, instr=instr
        )
        hist = instr.metrics.get(M_KERNEL_SEGMENTS)
        pairs = sum(
            len(accumulate_neighbor_weights(graph, state.assignments, v))
            for v in range(graph.num_vertices)
        )
        assert hist.total_count() == 1
        assert hist.total_sum() == pairs


# ---------------------------------------------------------------------- #
# The round's other entry points against their NumPy references
# ---------------------------------------------------------------------- #


def _regions(sched):
    return [(r.label, r.work, r.depth, r.serial) for r in sched.ledger.regions()]


def _both(call):
    """``call(sched)`` natively, then on the reference paths, each with a
    fresh instrumented scheduler; returns ``[(result, sched), (result,
    sched)]``."""
    out = []
    for context in (contextlib.nullcontext, reference_paths):
        sched = SimulatedScheduler(num_workers=8, instr=Instrumentation())
        with context():
            out.append((call(sched), sched))
    return out


def _assert_same_ledgers(a, b):
    assert _regions(a) == _regions(b)
    assert a.instr.metrics.collect() == b.instr.metrics.collect()


def _assert_same_quotient(got, want):
    (g, g_map), (w, w_map) = got, want
    assert g_map.tobytes() == w_map.tobytes()
    for field in (
        "offsets", "neighbors", "weights", "self_loops", "node_weights",
        "node_weight_sq",
    ):
        a, b = getattr(g, field), getattr(w, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@st.composite
def labelled_graph(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
        )
    )
    weight = (
        st.integers(-3, 3).map(float)
        if draw(st.booleans())
        else st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=False)
    )
    weights = [draw(weight) for _ in pairs]
    # Vertices past the largest endpoint and isolated ones have no arcs.
    extra = draw(st.integers(0, 3))
    graph = graph_from_edges(
        np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(weights) if weights else None,
        num_vertices=n + extra,
    )
    # Labels with gaps and negatives, so the dense relabel matters.
    labels = np.asarray(
        draw(
            st.lists(
                st.integers(-4, 40),
                min_size=graph.num_vertices,
                max_size=graph.num_vertices,
            )
        ),
        dtype=np.int64,
    )
    return graph, labels


class TestNativeCompress:
    @given(labelled_graph(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_bit_for_bit(self, instance, work_efficient):
        graph, labels = instance
        compress = compress_graph if work_efficient else compress_graph_naive
        (got, a), (want, b) = _both(lambda sched: compress(graph, labels, sched))
        _assert_same_quotient(got, want)
        _assert_same_ledgers(a, b)

    def test_fractional_weights_sum_in_arc_order(self):
        # Many parallel arcs between two clusters whose sums depend on
        # the addition order.
        rng = np.random.default_rng(4)
        edges = rng.integers(0, 60, size=(900, 2))
        weights = rng.random(900) * 10.0 ** rng.integers(-8, 8, size=900)
        graph = graph_from_edges(edges, weights=weights, num_vertices=64)
        labels = rng.integers(0, 5, size=64) * 7
        (got, a), (want, b) = _both(lambda s: compress_graph(graph, labels, s))
        _assert_same_quotient(got, want)
        _assert_same_ledgers(a, b)

    def test_sums_start_from_positive_zero(self):
        # bincount adds each key's weights to 0.0, so a lone -0.0 arc
        # becomes +0.0; graph_from_edges would already normalise it.
        graph = CSRGraph(
            np.asarray([0, 2, 3, 4]), np.asarray([1, 2, 0, 0]),
            np.asarray([-0.0, 1.0, -0.0, 1.0]),
        )
        labels = np.asarray([0, 1, 2])
        (got, a), (want, b) = _both(lambda s: compress_graph(graph, labels, s))
        _assert_same_quotient(got, want)
        assert not np.signbit(got[0].weights).any()

    def test_all_intra_charges_no_semisort(self):
        graph = karate_club_graph()
        labels = np.full(graph.num_vertices, 5, dtype=np.int64)
        (got, a), (want, b) = _both(lambda s: compress_graph(graph, labels, s))
        _assert_same_quotient(got, want)
        _assert_same_ledgers(a, b)
        assert got[0].num_directed_edges == 0
        assert [r[0] for r in _regions(a)] == ["compress-nodes"]

    def test_semisort_charges_inter_cluster_arcs(self):
        graph = karate_club_graph()
        labels = np.arange(graph.num_vertices) % 3
        sched = SimulatedScheduler(num_workers=8)
        quotient, _ = compress_graph(graph, labels, sched)
        inter = int(
            (labels[np.repeat(np.arange(34), np.diff(graph.offsets))]
             != labels[graph.neighbors]).sum()
        )
        semisort = [r for r in _regions(sched) if r[0] == "compress-semisort"]
        assert semisort[0][1] == float(inter)
        assert quotient.num_directed_edges < inter

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_graph(self, n):
        graph = graph_from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=n)
        labels = np.arange(n, dtype=np.int64)
        (got, a), (want, b) = _both(lambda s: compress_graph(graph, labels, s))
        _assert_same_quotient(got, want)
        _assert_same_ledgers(a, b)

    @pytest.mark.parametrize("classes", [7, 500, 6000])
    def test_split_rows_match_numpy(self, classes):
        # 131k arcs, over the split threshold: rows are built on two
        # threads.  7 classes give short rows and much intra-class
        # weight; 500 give long dense rows (read off the mark words);
        # 6000 mix both kinds with short sorted rows.  The fractional
        # weights of mixed magnitudes show any change of summation order.
        graph = rmat_graph(13, 8 * 2**13, seed=2)
        rng = np.random.default_rng(classes)
        graph = CSRGraph(
            graph.offsets,
            graph.neighbors,
            graph.weights * rng.random(graph.weights.size)
            * 10.0 ** rng.integers(-6, 6, size=graph.weights.size),
            validate=False,
        )
        labels = rng.integers(0, classes, size=graph.num_vertices) * 3
        with _cores(2):
            (got, a), (want, b) = _both(lambda s: compress_graph(graph, labels, s))
        _assert_same_quotient(got, want)
        _assert_same_ledgers(a, b)
        assert native.pool_stats()["dirty_scratch"] == 0

    def test_only_large_compressions_start_helpers(self, tmp_path):
        proc = _python(
            "import numpy as np\n"
            "from repro.generators.rmat import rmat_graph\n"
            "from repro.graphs.quotient import compress_graph\n"
            "from repro.kernels import native\n"
            "native.usable_cores = lambda: 2\n"
            "small = rmat_graph(10, 8 * 2**10, seed=1)\n"
            "compress_graph(small, np.arange(small.num_vertices) % 7)\n"
            "assert native.pool_stats()['helpers'] == 0\n"
            "large = rmat_graph(13, 8 * 2**13, seed=1)\n"
            "compress_graph(large, np.arange(large.num_vertices) % 7)\n"
            "assert native.pool_stats()['helpers'] == 1\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_labels_raise(self, bad):
        graph = karate_club_graph()
        labels = np.arange(graph.num_vertices, dtype=np.int64) % 3
        labels[7] = bad
        with pytest.raises(IndexError):
            native.compress(graph, labels, 3, np.zeros(3))

    def test_self_loops_not_writable_in_place_raise(self):
        graph = karate_club_graph()
        labels = np.arange(graph.num_vertices, dtype=np.int64) % 3
        read_only = np.zeros(3)
        read_only.flags.writeable = False
        for self_loops in (read_only, np.zeros(6)[::2], np.zeros(3, np.float32)):
            with pytest.raises(ValueError, match="self_loops"):
                native.compress(graph, labels, 3, self_loops)


def _commit_state(rng, n=40, clusters=6):
    # Fractional vertex weights of mixed magnitudes, so the order of the
    # K_c updates shows in their bits.
    graph = planted_partition_graph(n, seed=3).graph
    magnitudes = np.random.default_rng(8)
    graph = graph.with_node_weights(
        magnitudes.random(n) * 10.0 ** magnitudes.integers(-4, 5, size=n)
    )
    return graph, ClusterState.from_assignments(
        graph, rng.integers(0, clusters, size=graph.num_vertices)
    )


def _reference_commit(state, vertices, targets, plan, regions):
    """One window's commit in plain Python: every label first, then every
    decrement and then every increment of ``K_c`` in window order (the
    order of ``np.add.at`` and of the C round's commit), then the sizes.
    Appends the window's expected ledger regions to ``regions``, drawing
    its injected CAS failures from ``plan`` (decrements first); returns
    the number of movers."""
    movers = [
        (v, int(state.assignments[v]), t)
        for v, t in zip(vertices.tolist(), targets.tolist())
        if state.assignments[v] != t
    ]
    for v, _, t in movers:
        state.assignments[v] = t
    for v, o, _ in movers:
        state.cluster_weights[o] += -state.node_weights[v]
    for v, _, t in movers:
        state.cluster_weights[t] += state.node_weights[v]
    for _, o, t in movers:
        state.cluster_sizes[o] -= 1
        state.cluster_sizes[t] += 1
    if not movers:
        return 0
    size = len(movers)
    for label, column in (("K-dec", 1), ("K-inc", 2)):
        queues = collections.Counter(m[column] for m in movers)
        regions.append((label, float(size), 1.0, 0.0))
        if len(queues) < size:
            work, serial = contention_cost(size - len(queues), max(queues.values()))
            regions.append((label + "-contention", work, 0.0, serial))
        failures = plan.cas_failures(size) if plan is not None else 0
        if failures:
            work, serial = contention_cost(failures, failures + 1)
            regions.append((label + "-injected-cas", work, 0.0, serial))
    return size


class TestNativeCommit:
    """``ClusterState.apply_moves``, the commit the per-window loop runs
    and whose bits the C round's commit matches (``test_native_round``),
    against a plain-Python commit: the state's bits and every region."""

    def _compare(self, windows, plan_spec=None):
        def plan():
            return FaultPlan.from_spec(plan_spec, seed=9) if plan_spec else None

        sched = SimulatedScheduler(num_workers=8, instr=Instrumentation())
        sched.faults = plan()
        _, state = _commit_state(np.random.default_rng(2))
        _, want = _commit_state(np.random.default_rng(2))
        moved = [state.apply_moves(v, t, sched=sched) for v, t in windows]
        replay, regions = plan(), []
        assert moved == [
            _reference_commit(want, v, t, replay, regions) for v, t in windows
        ]
        for field in ("assignments", "cluster_weights", "cluster_sizes"):
            g, w = getattr(state, field), getattr(want, field)
            assert g.tobytes() == w.tobytes(), field
        assert _regions(sched) == regions
        return moved, sched

    def test_repeated_origins_and_targets(self):
        rng = np.random.default_rng(1)
        windows = [
            (rng.permutation(40)[:k], rng.integers(0, 3, size=k))
            for k in (40, 25, 7, 1)
        ]
        moved, sched = self._compare(windows)
        assert sum(moved) > 0
        assert any(r[0] == "K-inc-contention" for r in _regions(sched))

    def test_windows_without_movers(self):
        graph, state = _commit_state(np.random.default_rng(2))
        stay = np.arange(10, dtype=np.int64)
        windows = [
            (stay, state.assignments[stay].copy()),
            (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        ]
        moved, sched = self._compare(windows)
        assert moved == [0, 0]
        assert _regions(sched) == []

    def test_queue_maxima(self):
        # Five movers from three origins into one target: the decrement
        # window queues at most 2 deep, the increment window 5.
        graph = karate_club_graph()
        state = ClusterState.from_assignments(
            graph, np.asarray([0, 0, 1, 1, 2] + [9] * 29, dtype=np.int64)
        )
        sched = SimulatedScheduler(num_workers=8, instr=Instrumentation())
        moved = state.apply_moves(
            np.arange(5), np.full(5, 30, dtype=np.int64), sched=sched
        )
        assert moved == 5
        regions = {r[0]: r for r in _regions(sched)}
        assert regions["K-dec-contention"][1:] == (2 * CAS_COST, 0.0, 2 * CAS_COST)
        assert regions["K-inc-contention"][1:] == (4 * CAS_COST, 0.0, 5 * CAS_COST)
        assert sched.instr.metrics.get(M_CAS_RETRIES).total() == 6.0
        assert sched.instr.metrics.get(M_ATOMIC_QUEUE).total_sum() == 7.0

    def test_injected_cas_failures(self):
        rng = np.random.default_rng(5)
        windows = [
            (rng.permutation(40)[:k], rng.integers(0, 6, size=k))
            for k in (40, 30, 20, 10)
        ]
        _, sched = self._compare(windows, plan_spec="cas-fail=0.5")
        assert any(r[0].endswith("-injected-cas") for r in _regions(sched))
        assert sched.instr.metrics.get(M_CAS_INJECTED).total() > 0

    def test_strided_state_takes_the_numpy_path(self):
        graph, state = _commit_state(np.random.default_rng(2))
        strided = np.zeros((state.assignments.size, 2), dtype=np.int64)
        strided[:, 0] = state.assignments
        view = ClusterState(
            strided[:, 0], state.cluster_weights, state.cluster_sizes,
            state.node_weights,
        )
        # C cannot commit into a strided copy, so a round leaves it to the
        # per-window loop.
        order = np.arange(graph.num_vertices, dtype=np.int64)
        assert native.KERNEL.round(
            graph, view, order, np.zeros(1, np.int64), RESOLUTION, threshold=512
        ) is None
        moved = view.apply_moves(np.arange(40), np.zeros(40, dtype=np.int64))
        assert moved > 0 and np.all(strided[:, 0] == 0)


class TestNativeFrontier:
    @pytest.mark.parametrize("size", [1, 3, 60])
    def test_sparse_and_dense_match_numpy(self, size):
        graph = rmat_graph(8, 8 * 2**8, seed=3)
        ids = np.random.default_rng(size).choice(256, size=size, replace=False)

        def run(sched):
            return edge_map(
                graph, VertexSubset.from_ids(256, ids), sched=sched
            ).ids()

        (got, a), (want, b) = _both(run)
        assert got.tobytes() == want.tobytes()
        _assert_same_ledgers(a, b)
        labels = [r[0] for r in _regions(a)]
        assert labels == (["edge-map-dense"] if size == 60 else ["edge-map-sparse"])

    def test_dedup_counts_on_the_sparse_path(self):
        # Vertices 0 and 1 share their four neighbors; a long path keeps
        # the frontier sparse.
        edges = [(u, k) for u in (0, 1) for k in range(2, 6)]
        edges += [(k, k + 1) for k in range(6, 199)]
        graph = graph_from_edges(edges, num_vertices=200)
        (got, a), (want, b) = _both(
            lambda s: edge_map(graph, VertexSubset.from_ids(200, [0, 1]), sched=s)
        )
        assert got.ids().tolist() == want.ids().tolist() == [2, 3, 4, 5]
        _assert_same_ledgers(a, b)
        assert [r[0] for r in _regions(a)] == ["edge-map-sparse"]
        assert a.instr.metrics.get(M_DEDUP_HITS).total() == 4
        assert a.instr.metrics.get(M_DEDUP_RATE).total_sum() == 0.5

    def test_dense_mask_frontier_and_isolated_rows(self):
        graph = graph_from_edges([(0, 1), (1, 2)], num_vertices=6)
        mask = np.asarray([True, False, True, False, True, True])
        (got, a), (want, b) = _both(
            lambda s: edge_map(graph, VertexSubset(6, mask=mask), sched=s).ids()
        )
        assert got.tolist() == want.tolist() == [1]
        _assert_same_ledgers(a, b)

    def test_out_of_range_id_raises_and_leaves_marks_clean(self):
        graph = karate_club_graph()
        with pytest.raises(IndexError):
            native.neighbors(graph, np.asarray([0, 34]))
        got, gathered = native.neighbors(graph, np.asarray([33]))
        assert got.tolist() == sorted(graph.neighborhood(33)[0].tolist())
        assert gathered == got.size

    def test_strided_csr_is_read_through_copies(self):
        graph = karate_club_graph()
        copied = _strided_graph(graph)
        ids = np.asarray([0, 5, 33])
        got, want = (native.neighbors(g, ids) for g in (copied, graph))
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        src, dst = np.asarray([0, 0, 33, 40]), np.asarray([1, 9, 2, 3])
        got, want = (native.find_arcs(g, src, dst) for g in (copied, graph))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def _knn(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(6, 8))
    labels = rng.integers(0, 6, size=200)
    return knn_graph(centers[labels] + rng.normal(size=(200, 8)), k=8)


class TestNativeRoundEndToEnd:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "make_graph",
        [
            karate_club_graph,
            lambda: rmat_graph(7, 6 * 2**7, seed=2),
            lambda: lfr_like_graph(150, mixing=0.3, seed=1).graph,
            lambda: _knn(3),
        ],
        ids=["karate", "rmat", "lfr", "knn"],
    )
    def test_library_on_and_off_agree(self, engine, make_graph):
        graph = make_graph()
        config = ClusteringConfig(resolution=RESOLUTION, seed=3)

        def run(sched):
            labels, _ = multilevel_with_engine(
                graph, RESOLUTION, config, engine=engine, sched=sched,
                rng=np.random.default_rng(3),
            )
            return labels

        (got, a), (want, b) = _both(run)
        assert got.tobytes() == want.tobytes()
        assert lambdacc_objective(graph, got, RESOLUTION) == lambdacc_objective(
            graph, want, RESOLUTION
        )
        assert a.simulated_time(8) == b.simulated_time(8)
        assert _regions(a) == _regions(b)
