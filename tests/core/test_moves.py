import numpy as np
import pytest

from repro.core.moves import compute_batch_moves
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.graphs.builders import graph_from_edges
from repro.kernels.reference import reference_single_move
from repro.parallel.scheduler import SimulatedScheduler


class TestBatchMoves:
    def test_empty_batch(self, karate):
        state = ClusterState.singletons(karate)
        targets, gains = compute_batch_moves(
            karate, state, np.zeros(0, dtype=np.int64), 0.1
        )
        assert targets.size == 0

    def test_clique_vertices_want_to_merge(self, two_cliques):
        state = ClusterState.singletons(two_cliques)
        targets, gains = compute_batch_moves(
            two_cliques, state, np.arange(8), 0.1
        )
        assert np.all(targets != np.arange(8))  # everyone finds a better home
        assert np.all(gains > 0)

    def test_isolated_vertex_stays(self):
        g = graph_from_edges([(0, 1)], num_vertices=3)
        state = ClusterState.singletons(g)
        targets, gains = compute_batch_moves(g, state, np.asarray([2]), 0.1)
        assert targets[0] == 2
        assert gains[0] == 0.0

    def test_gain_matches_objective_change_in_isolation(self, karate, rng):
        """Applying a single suggested move changes F by exactly the gain."""
        lam = 0.2
        assignments = rng.integers(0, 6, size=34).astype(np.int64)
        state = ClusterState.from_assignments(karate, assignments)
        for v in range(0, 34, 7):
            targets, gains = compute_batch_moves(
                karate, state, np.asarray([v]), lam
            )
            before = lambdacc_objective(karate, state.assignments, lam)
            moved = state.assignments.copy()
            moved[v] = targets[0]
            after = lambdacc_objective(karate, moved, lam)
            assert after - before == pytest.approx(gains[0]), v

    def test_gains_never_negative(self, small_planted, rng):
        g = small_planted.graph
        state = ClusterState.from_assignments(
            g, rng.integers(0, g.num_vertices // 3, size=g.num_vertices)
        )
        _, gains = compute_batch_moves(g, state, np.arange(g.num_vertices), 0.3)
        assert np.all(gains >= 0)

    def test_escape_used_when_all_options_negative(self):
        # Vertex 2 sits in cluster 0 with vertices it has no edges to, at a
        # high resolution; its own slot (2) is empty, so it escapes.
        g = graph_from_edges([(0, 1)], num_vertices=3)
        assignments = np.asarray([0, 0, 0])
        state = ClusterState.from_assignments(g, assignments)
        targets, gains = compute_batch_moves(g, state, np.asarray([2]), 0.5)
        assert targets[0] == 2
        assert gains[0] > 0

    def test_escape_blocked_when_home_slot_occupied(self):
        # Vertex 0's home slot still holds vertex 0 itself plus vertex 2 —
        # moving "back" is not an escape, and no better cluster exists.
        g = graph_from_edges([(0, 1)], num_vertices=3)
        assignments = np.asarray([2, 1, 2])
        state = ClusterState.from_assignments(g, assignments)
        # Home slot of vertex 2 is occupied by {0, 2}; no escape for 2.
        targets, _ = compute_batch_moves(g, state, np.asarray([2]), 0.9)
        assert targets[0] != 2 or state.cluster_sizes[2] > 0

    def test_charges_work(self, karate):
        state = ClusterState.singletons(karate)
        sched = SimulatedScheduler(num_workers=8)
        compute_batch_moves(karate, state, np.arange(34), 0.1, sched=sched)
        assert sched.ledger.total_work > 156  # at least the edge scans

    def test_high_degree_kernel_depth_smaller(self, rng):
        """With the parallel kernel, a star center costs log depth."""
        star = graph_from_edges([(0, i) for i in range(1, 2000)])
        state = ClusterState.singletons(star)
        low_thr = SimulatedScheduler(num_workers=8)
        high_thr = SimulatedScheduler(num_workers=8)
        compute_batch_moves(
            star, state, np.asarray([0]), 0.01, sched=low_thr, kernel_threshold=64
        )
        compute_batch_moves(
            star, state, np.asarray([0]), 0.01, sched=high_thr, kernel_threshold=10_000
        )
        assert low_thr.ledger.total_depth < high_thr.ledger.total_depth

    def test_parallel_branch_charges_more_work(self):
        """The concurrent hash table pays its CAS premium and table
        initialization on top of the sequential scan's work."""
        g = graph_from_edges([(0, i) for i in range(1, 300)])
        state = ClusterState.singletons(g)
        par = SimulatedScheduler(num_workers=8)
        seq = SimulatedScheduler(num_workers=8)
        batch = np.arange(g.num_vertices)
        compute_batch_moves(g, state, batch, 0.01, sched=par, kernel_threshold=1)
        compute_batch_moves(
            g, state, batch, 0.01, sched=seq, kernel_threshold=10**6
        )
        assert par.ledger.total_work > seq.ledger.total_work


class TestSingleMove:
    def test_matches_batch_kernel(self, small_planted, rng):
        """Size-1 batch and the sequential kernel agree bit-for-bit."""
        g = small_planted.graph
        lam = 0.15
        assignments = rng.integers(0, 50, size=g.num_vertices).astype(np.int64)
        state = ClusterState.from_assignments(g, assignments)
        for v in rng.choice(g.num_vertices, size=40, replace=False).tolist():
            batch_targets, batch_gains = compute_batch_moves(
                g, state, np.asarray([v]), lam
            )
            single_target, single_gain = reference_single_move(g, state, v, lam)
            assert single_target == batch_targets[0], v
            assert single_gain == pytest.approx(batch_gains[0]), v

    def test_karate_weighted_agreement(self, rng):
        g = graph_from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            weights=np.asarray([3.0, 0.5, 2.0, 1.0, -1.0]),
        )
        state = ClusterState.from_assignments(g, np.asarray([0, 0, 2, 2]))
        for v in range(4):
            bt, bg = compute_batch_moves(g, state, np.asarray([v]), 0.1)
            st, sg = reference_single_move(g, state, v, 0.1)
            assert st == bt[0]
            assert sg == pytest.approx(bg[0])
