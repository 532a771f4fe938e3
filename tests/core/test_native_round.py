"""One C call per BEST-MOVES round against the per-window loop.

``window_round`` runs a whole round through ``native.KERNEL.round`` and
charges it from the per-window rows C returns; a state that is not an
exact ``ClusterState`` takes the per-window loop (one kernel call and one
NumPy commit, ``ClusterState.apply_moves``, per window), which is the
reference here.  Every round's moves, the state arrays, every ledger
region, and with instrumentation on the metrics and the worker-lane
records must be the same on both paths.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import best_moves, coloring
from repro.core.best_moves import run_best_moves
from repro.core.coloring import run_colored_best_moves
from repro.core.config import ClusteringConfig, Mode
from repro.core.state import ClusterState
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.graphs.karate import karate_club_graph
from repro.kernels import native
from repro.obs.instrument import Instrumentation
from repro.parallel.scheduler import SimulatedScheduler

RESOLUTION = 0.05


class LoopState(ClusterState):
    """A ``ClusterState`` in all but its type, so rounds take the loop."""

    __slots__ = ()


def _fractional_graph(n=400):
    # Fractional node weights of mixed magnitudes, so the order of the
    # commit's K_c additions shows in their bits (level-0 and quotient
    # node weights are integers).
    graph = planted_partition_graph(n, seed=3).graph
    magnitudes = np.random.default_rng(8)
    return graph.with_node_weights(
        magnitudes.random(n) * 10.0 ** magnitudes.integers(-4, 5, size=n)
    )


_GRAPHS = {
    "karate": karate_club_graph,
    "rmat11": lambda: rmat_graph(11, 8 * 2**11, seed=0),
    "lfr3000": lambda: lfr_like_graph(3000, seed=0).graph,
    "fractional": _fractional_graph,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in _GRAPHS.items()}


def _run(graph, state_type, engine, mode, instrumented):
    """One BEST-MOVES invocation on singletons; returns every round's
    moves, the final state, the scheduler and the round count that ran
    in one C call."""
    state = ClusterState.singletons(graph)
    state = state_type(
        state.assignments, state.cluster_weights, state.cluster_sizes,
        state.node_weights,
    )
    config = ClusteringConfig(resolution=RESOLUTION, mode=mode, seed=3)
    instr = Instrumentation() if instrumented else None
    sched = SimulatedScheduler(num_workers=60, instr=instr)
    rounds = []
    real_round = best_moves.window_round
    native_rounds = []
    real_kernel_round = native.KERNEL.round

    def window_round(*args, **kwargs):
        rounds.append(real_round(*args, **kwargs))
        return rounds[-1]

    def kernel_round(*args, **kwargs):
        native_rounds.append(None)
        return real_kernel_round(*args, **kwargs)

    run = run_colored_best_moves if engine == "colored" else run_best_moves
    with mock.patch.object(best_moves, "window_round", window_round), \
            mock.patch.object(coloring, "window_round", window_round), \
            mock.patch.object(native.KERNEL, "round", kernel_round):
        stats = run(
            graph, state, RESOLUTION, config, sched=sched,
            rng=np.random.default_rng(7),
        )
    sched.round_barrier("end")
    return rounds, state, sched, stats, len(native_rounds)


def _regions(sched):
    return [(r.label, r.work, r.depth, r.serial) for r in sched.ledger.regions()]


def _workers(sched):
    return [r for r in sched.instr.tracer.records if r["type"] == "worker"]


CELLS = [
    ("relaxed", Mode.SYNC),
    ("relaxed", Mode.ASYNC),
    ("colored", Mode.ASYNC),
]


@pytest.mark.parametrize("engine,mode", CELLS, ids=lambda c: getattr(c, "value", c))
@pytest.mark.parametrize("name", sorted(_GRAPHS))
@pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "instr"])
def test_round_matches_the_window_loop(graphs, name, engine, mode, instrumented):
    graph = graphs[name]
    got = _run(graph, ClusterState, engine, mode, instrumented)
    want = _run(graph, LoopState, engine, mode, instrumented)
    (got_rounds, got_state, a, got_stats, got_native) = got
    (want_rounds, want_state, b, want_stats, want_native) = want
    assert got_native == len(got_rounds) > 1
    assert want_native == 0
    assert len(got_rounds) == len(want_rounds)
    for g, w in zip(got_rounds, want_rounds):
        for x, y in zip(g[:3], w[:3]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert g[3] == w[3]
    if instrumented:
        assert any(r[3] != 0.0 for r in got_rounds)
    assert got_stats == want_stats
    for field in ("assignments", "cluster_weights", "cluster_sizes"):
        assert getattr(got_state, field).tobytes() == getattr(want_state, field).tobytes()
    assert _regions(a) == _regions(b)
    assert {r[0] for r in _regions(a)} >= {"best-moves", "K-dec", "K-inc"}
    assert a.ledger.snapshot() == b.ledger.snapshot()
    assert a.simulated_time(1) == b.simulated_time(1)
    if instrumented:
        assert a.instr.metrics.collect() == b.instr.metrics.collect()
        assert _workers(a) == _workers(b) != []


def test_contention_and_parallel_branch_regions_match(graphs):
    # RMAT's hubs take the parallel hash-table branch under a low
    # threshold, and a large lambda makes many windows retry.
    graph = graphs["rmat11"]
    labels = set()
    for mode in (Mode.SYNC, Mode.ASYNC):
        config = ClusteringConfig(
            resolution=0.5, mode=mode, seed=3, kernel_threshold=16
        )
        runs = []
        for state_type in (ClusterState, LoopState):
            base = ClusterState.singletons(graph)
            state = state_type(
                base.assignments, base.cluster_weights, base.cluster_sizes,
                base.node_weights,
            )
            sched = SimulatedScheduler(num_workers=60)
            run_best_moves(
                graph, state, 0.5, config, sched=sched,
                rng=np.random.default_rng(1),
            )
            runs.append((_regions(sched), state.assignments.tobytes()))
        assert runs[0] == runs[1]
        labels |= {r[0] for r in runs[0][0]}
    assert {"K-dec-contention", "K-inc-contention"} <= labels


def test_out_of_range_ids_in_a_round():
    graph = rmat_graph(13, 8 * 2**13, seed=3)
    labels = np.random.default_rng(4).integers(0, 500, graph.num_vertices)
    state = ClusterState.from_assignments(graph, labels)
    order = np.random.default_rng(5).permutation(graph.num_vertices)
    starts = np.arange(0, order.size, 1024, dtype=np.int64)
    kernel = native.KERNEL
    outside = order.copy()
    outside[-10] = graph.num_vertices  # in the last window
    # A bad label on a high-degree vertex: its neighbors fail part-way
    # through their rows, on whichever thread runs them.
    bad_labels = state.assignments.copy()
    bad_labels[np.argmax(np.diff(graph.offsets))] = -1
    bad = ClusterState(
        bad_labels, state.cluster_weights.copy(), state.cluster_sizes.copy(),
        state.node_weights,
    )
    for _ in range(3):
        before = state.assignments.copy()
        with pytest.raises(IndexError):
            kernel.round(
                graph, state, outside, starts, RESOLUTION, threshold=512,
                threads=2,
            )
        # The windows before the failing one committed; the last did not.
        last = order[starts[-1]:]
        assert np.array_equal(state.assignments[last], before[last])
        with pytest.raises(IndexError):
            kernel.round(
                graph, bad, order, starts, RESOLUTION, threshold=512, threads=2
            )
    assert native.pool_stats()["dirty_scratch"] == 0
    acc, seen, _, counts = native._SCRATCH.kernel  # the caller's scratch
    assert not acc.any() and not seen.any() and not counts.any()
    # A later round still matches the loop on a fresh copy.
    fresh = ClusterState.from_assignments(graph, labels)
    loop = LoopState(
        fresh.assignments.copy(), fresh.cluster_weights.copy(),
        fresh.cluster_sizes.copy(), fresh.node_weights,
    )
    config = ClusteringConfig(resolution=RESOLUTION, seed=3)
    got = best_moves.window_round(graph, fresh, RESOLUTION, config, order, starts)
    want = best_moves.window_round(graph, loop, RESOLUTION, config, order, starts)
    for x, y in zip(got[:3], want[:3]):
        assert x.tobytes() == y.tobytes()
    assert fresh.assignments.tobytes() == loop.assignments.tobytes()


def test_split_windows_are_counted_per_window():
    graph = rmat_graph(13, 8 * 2**13, seed=3)
    state = ClusterState.singletons(graph)
    order = np.random.default_rng(5).permutation(graph.num_vertices)
    # Four windows of 2,048 vertices split; the 100-vertex one does not.
    starts = np.array([0, 2048, 4096, 6144, 8092], dtype=np.int64)
    before = native.pool_stats()["split_windows"]
    native.KERNEL.round(
        graph, state, order, starts, RESOLUTION, threshold=512, threads=2
    )
    assert native.pool_stats()["split_windows"] == before + 4

