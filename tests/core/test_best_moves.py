import math

import numpy as np
import pytest

from repro.core.best_moves import BestMovesStats, _window_starts, run_best_moves
from repro.core.config import ClusteringConfig, Frontier, Mode
from repro.core.frontier import next_frontier
from repro.core.moves import compute_batch_moves, kernel_depth
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.generators.rmat import rmat_graph
from repro.obs.instrument import Instrumentation, instr_of
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultyClusterState
from repro.utils.rng import make_rng


def async_config(**kw):
    defaults = dict(mode=Mode.ASYNC, refine=False, resolution=0.0)
    defaults.update(kw)
    return ClusteringConfig(**defaults)


def _windows(order, config):
    return np.split(order, _window_starts(order.size, config)[1:])


class TestWindows:
    def test_sync_single_window(self):
        config = async_config(mode=Mode.SYNC)
        windows = _windows(np.arange(100), config)
        assert len(windows) == 1
        assert windows[0].size == 100

    def test_async_splits_into_configured_windows(self):
        config = async_config(async_windows=8)
        windows = _windows(np.arange(100), config)
        assert len(windows) == 8
        assert sum(w.size for w in windows) == 100
        # np.array_split's boundaries: the first 100 % 8 windows are longer.
        assert [w.size for w in windows] == [
            w.size for w in np.array_split(np.arange(100), 8)
        ]

    def test_async_small_frontier_single_vertex_windows(self):
        config = async_config(async_windows=32)
        windows = _windows(np.arange(5), config)
        assert len(windows) == 5
        assert all(w.size == 1 for w in windows)


class TestRunBestMoves:
    def test_two_cliques_cluster_together(self, two_cliques):
        state = ClusterState.singletons(two_cliques)
        config = async_config(resolution=0.2, num_iter=20)
        stats = run_best_moves(two_cliques, state, 0.2, config, rng=make_rng(0))
        labels = state.assignments
        assert len(np.unique(labels[:4])) == 1
        assert len(np.unique(labels[4:])) == 1
        assert stats.total_moves >= 6
        state.check_invariants()

    def test_converges_and_reports(self, two_cliques):
        state = ClusterState.singletons(two_cliques)
        config = async_config(resolution=0.2, num_iter=50)
        stats = run_best_moves(two_cliques, state, 0.2, config, rng=make_rng(0))
        assert stats.converged
        assert stats.iterations < 50

    def test_iteration_bound_respected(self, small_planted):
        g = small_planted.graph
        state = ClusterState.singletons(g)
        config = async_config(resolution=0.05, num_iter=2)
        stats = run_best_moves(g, state, 0.05, config, rng=make_rng(0))
        assert stats.iterations <= 2

    def test_initial_frontier_restricts_consideration(self, two_cliques):
        state = ClusterState.singletons(two_cliques)
        config = async_config(resolution=0.2, num_iter=1)
        stats = run_best_moves(
            two_cliques, state, 0.2, config, rng=make_rng(0),
            initial_frontier=np.asarray([0]),
        )
        assert stats.frontier_sizes[0] == 1
        assert stats.total_moves <= 1

    def test_empty_frontier_converges_immediately(self, karate):
        state = ClusterState.singletons(karate)
        config = async_config()
        stats = run_best_moves(
            karate, state, 0.1, config, initial_frontier=np.zeros(0, dtype=np.int64)
        )
        assert stats.converged
        assert stats.iterations == 0

    def test_objective_improves_from_singletons(self, karate):
        for mode in (Mode.ASYNC, Mode.SYNC):
            state = ClusterState.singletons(karate)
            config = async_config(mode=mode, resolution=0.1, num_iter=10)
            run_best_moves(karate, state, 0.1, config, rng=make_rng(1))
            if mode is Mode.ASYNC:
                assert lambdacc_objective(karate, state.assignments, 0.1) > 0

    def test_frontier_sizes_recorded(self, karate):
        state = ClusterState.singletons(karate)
        config = async_config(resolution=0.1, num_iter=10,
                              frontier=Frontier.VERTEX_NEIGHBORS)
        stats = run_best_moves(karate, state, 0.1, config, rng=make_rng(0))
        assert stats.frontier_sizes[0] == 34
        assert len(stats.frontier_sizes) == stats.iterations

    def test_vertex_neighbor_frontier_shrinks(self, small_planted):
        g = small_planted.graph
        state = ClusterState.singletons(g)
        config = async_config(resolution=0.1, num_iter=10,
                              frontier=Frontier.VERTEX_NEIGHBORS)
        stats = run_best_moves(g, state, 0.1, config, rng=make_rng(0))
        assert stats.frontier_sizes[-1] < stats.frontier_sizes[0]

    def test_all_frontier_stays_full_while_moving(self, small_planted):
        g = small_planted.graph
        state = ClusterState.singletons(g)
        config = async_config(resolution=0.1, num_iter=3, frontier=Frontier.ALL)
        stats = run_best_moves(g, state, 0.1, config, rng=make_rng(0))
        assert all(s == g.num_vertices for s in stats.frontier_sizes)

    def test_charges_to_scheduler(self, karate):
        sched = SimulatedScheduler(num_workers=8)
        state = ClusterState.singletons(karate)
        config = async_config(resolution=0.1)
        run_best_moves(karate, state, 0.1, config, sched=sched, rng=make_rng(0))
        assert sched.ledger.total_work > 0

    def test_deterministic_given_seed(self, small_planted):
        g = small_planted.graph
        config = async_config(resolution=0.1, num_iter=10)
        results = []
        for _ in range(2):
            state = ClusterState.singletons(g)
            run_best_moves(g, state, 0.1, config, rng=make_rng(123))
            results.append(state.assignments.copy())
        assert np.array_equal(results[0], results[1])


def _per_window_oracle(graph, state, resolution, config, sched, rng):
    """BEST-MOVES with per-window bookkeeping: each window's degrees,
    movers, origins and gains computed as the window commits (the loop
    ``run_best_moves`` replaced with one degree profile and round-sized
    arrays per round)."""
    stats = BestMovesStats()
    obs = instr_of(sched)
    active = np.arange(graph.num_vertices, dtype=np.int64)
    sync = config.mode is Mode.SYNC
    for _ in range(config.iteration_bound):
        if active.size == 0:
            stats.converged = True
            break
        stats.frontier_sizes.append(int(active.size))
        with obs.span(
            "round", engine="relaxed", iteration=stats.iterations,
            frontier=int(active.size),
        ) as round_span:
            order = rng.permutation(active)
            movers, origins, targets_parts = [], [], []
            round_gain = 0.0
            for window in _windows(order, config):
                targets, gains = compute_batch_moves(
                    graph, state, window, resolution, sched=sched,
                    kernel_threshold=config.kernel_threshold,
                    charge_depth=sync, allow_escape=config.escape_moves,
                    swap_avoidance=sync,
                )
                moving = targets != state.assignments[window]
                if moving.any():
                    movers.append(window[moving])
                    origins.append(state.assignments[window[moving]])
                    targets_parts.append(targets[moving])
                    round_gain += float(gains[moving].sum())
                state.apply_moves(window, targets, sched=sched)
            if sched is not None and not sync:
                degrees = graph.offsets[active + 1] - graph.offsets[active]
                sched.charge(
                    work=0.0,
                    depth=kernel_depth(degrees, config.kernel_threshold)
                    + 2.0 * math.log2(max(graph.num_vertices, 2)),
                    label="best-moves-iter",
                )
            stats.iterations += 1
            round_moves = sum(part.size for part in movers)
            round_span.set(moves=round_moves, gain=round_gain)
            obs.record_round(
                "relaxed", stats.frontier_sizes[-1], round_moves, round_gain
            )
            if not movers:
                stats.converged = True
                break
            stats.total_moves += round_moves
            active = next_frontier(
                graph, state.assignments, np.concatenate(movers),
                np.concatenate(origins), np.concatenate(targets_parts),
                config.frontier, sched=sched,
            )
            if sched is not None:
                sched.round_barrier()
    return stats


FAULT_SPECS = [
    None,
    "drop-move=0.3",
    "stale-read=0.3",
    "dup-move=0.3",
    "cas-fail=0.5",
    "delay-frontier=0.5",
    "drop-move=0.2,stale-read=0.2,dup-move=0.2,cas-fail=0.3,delay-frontier=0.3",
]


class TestRoundBookkeeping:
    """One degree profile and round-sized arrays per round give exactly
    what per-window bookkeeping gives: stats, state, ledger, round spans
    and metrics."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("frontier", list(Frontier))
    @pytest.mark.parametrize("mode", [Mode.ASYNC, Mode.SYNC])
    def test_matches_per_window_bookkeeping(self, spec, frontier, mode):
        graph = rmat_graph(9, 8 * 2**9, seed=4)
        config = ClusteringConfig(
            resolution=0.05, mode=mode, frontier=frontier, async_windows=8
        )
        runs = []
        for engine in (run_best_moves, _per_window_oracle):
            for enabled in (False, True):
                instr = Instrumentation(enabled=enabled)
                sched = SimulatedScheduler(num_workers=8, instr=instr)
                state = ClusterState.singletons(graph)
                if spec is not None:
                    sched.faults = FaultPlan.from_spec(spec, seed=5)
                    state = FaultyClusterState(state, sched.faults)
                stats = engine(graph, state, 0.05, config, sched, make_rng(7))
                spans = [
                    (r["attrs"]["moves"], r["attrs"]["gain"])
                    for r in instr.tracer.records
                    if r.get("name") == "round"
                ] if enabled else None
                runs.append((
                    (stats.iterations, stats.total_moves, stats.frontier_sizes,
                     stats.converged),
                    state.assignments.tobytes(),
                    state.cluster_weights.tobytes(),
                    [(r.label, r.work, r.depth, r.serial)
                     for r in sched.ledger.regions()],
                    spans,
                    instr.metrics.collect() if enabled else None,
                    dict(sched.faults.counts) if spec is not None else None,
                ))
        new_off, new_on, old_off, old_on = runs
        assert new_off == old_off
        assert new_on == old_on
        assert new_on[:4] == new_off[:4]
        assert new_on[0][1] > 0 and len(new_on[4]) == new_on[0][0]
        if spec is not None:
            assert sum(new_on[6].values()) > 0
