import numpy as np
import pytest

from repro.core.moves import all_move_gains
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.graphs.builders import graph_from_edges
from repro.kernels.reference import reference_single_move


class TestAllMoveGains:
    def test_staying_is_zero(self, karate):
        state = ClusterState.from_assignments(
            karate, np.arange(34) % 4
        )
        gains = all_move_gains(karate, state, 0, 0.2)
        assert gains[int(state.assignments[0])] == 0.0

    def test_gains_match_objective_differences(self, karate, rng):
        lam = 0.15
        labels = rng.integers(0, 5, size=34).astype(np.int64)
        state = ClusterState.from_assignments(karate, labels)
        v = 7
        base = lambdacc_objective(karate, labels, lam)
        for target, gain in all_move_gains(karate, state, v, lam).items():
            if target == labels[v]:
                continue
            moved = labels.copy()
            moved[v] = target
            assert gain == pytest.approx(
                lambdacc_objective(karate, moved, lam) - base
            ), target

    def test_argmax_matches_engine_choice(self, small_planted, rng):
        g = small_planted.graph
        lam = 0.1
        labels = rng.integers(0, 30, size=g.num_vertices).astype(np.int64)
        state = ClusterState.from_assignments(g, labels)
        for v in rng.choice(g.num_vertices, size=25, replace=False).tolist():
            gains = all_move_gains(g, state, v, lam)
            target, _ = reference_single_move(g, state, v, lam)
            best = max(gains.values())
            # The engine's target attains the maximum gain (within the
            # strict-improvement epsilon).
            assert gains[target] >= best - 1e-9, v

    def test_escape_slot_included_when_open(self):
        g = graph_from_edges([(0, 1)], num_vertices=3)
        state = ClusterState.from_assignments(g, np.asarray([0, 0, 0]))
        gains = all_move_gains(g, state, 2, 0.5)
        assert 2 in gains  # home slot of vertex 2 is empty
        assert gains[2] > 0  # escaping beats staying with strangers

    def test_isolated_vertex_only_stays(self):
        g = graph_from_edges([(0, 1)], num_vertices=3)
        state = ClusterState.singletons(g)
        gains = all_move_gains(g, state, 2, 0.5)
        assert gains == {2: 0.0}
