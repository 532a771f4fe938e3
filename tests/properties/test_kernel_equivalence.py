"""Property tests: the native kernel is bit-identical to the reference
dict loops.

DESIGN.md §8's contract is *exact* equality, not tolerance: the C loop
accumulates each S(v, c') sum in the same left-to-right CSR order as
the dict loop, so every comparison here is on bytes or ``==`` on floats
deliberately.  Coverage:

* direct ``batch_moves`` parity on adversarial hypothesis graphs
  (negative weights, self-clusters, escape and swap-avoidance variants);
* ``sweep`` parity — the native sweep must reproduce the sequential
  dict sweep move-for-move, including the mutated state;
* end-to-end: every registry engine, on karate/RMAT/LFR/planted
  workloads across seeds and resolutions, produces identical
  assignments, objective and simulated time on the C paths and on the
  reference paths (:func:`tests.oracles.reference_paths`: the reference
  loops and the NumPy commit, frontier and compression);
* the same end-to-end equivalence under fault injection — the sweep
  detects the ``FaultyClusterState`` wrapper and takes the dict loop, so
  injected hazards perturb both paths identically;
* the default ``cluster()`` config at a larger scale, on integer and
  fractional weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES, multilevel_with_engine
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.generators.knn import knn_graph
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.graphs.builders import graph_from_edges
from repro.graphs.karate import karate_club_graph
from repro.kernels import native
from repro.kernels.reference import reference_batch_moves, reference_sweep
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience import FaultPlan, ResilienceContext, ResiliencePolicy
from tests.oracles import reference_paths

ENGINE_NAMES = sorted(ENGINES)


@st.composite
def state_instance(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    num_edges = draw(st.integers(min_value=0, max_value=40))
    # Integer weights (zero and negative included) or fractional ones.
    weight = (
        st.integers(-2, 2).map(float)
        if draw(st.booleans())
        else st.floats(min_value=-2.0, max_value=2.0)
    )
    edges = []
    weights = []
    for _ in range(num_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v))
            weights.append(draw(weight))
    graph = graph_from_edges(
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(weights) if weights else None,
        num_vertices=n,
    )
    labels = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    lam = draw(st.floats(min_value=0.0, max_value=0.9))
    return graph, labels, lam


class TestBatchKernelEquivalence:
    @given(state_instance(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batch_moves_bit_identical(self, instance, escape, swap):
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        ref_t, ref_g = reference_batch_moves(
            graph, state, batch, lam, allow_escape=escape, swap_avoidance=swap
        )
        nat_t, nat_g = native.KERNEL.batch_moves(
            graph, state, batch, lam, allow_escape=escape, swap_avoidance=swap
        )
        assert ref_t.tobytes() == nat_t.tobytes()
        assert ref_g.tobytes() == nat_g.tobytes()

    @given(state_instance(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sweep_bit_identical(self, instance, escape, data):
        graph, labels, lam = instance
        order = np.asarray(
            data.draw(st.permutations(range(graph.num_vertices))), dtype=np.int64
        )
        ref_state = ClusterState.from_assignments(graph, labels)
        nat_state = ClusterState.from_assignments(graph, labels)
        ref = reference_sweep(graph, ref_state, order, lam, allow_escape=escape)
        nat = native.KERNEL.sweep(
            graph, nat_state, order, lam, allow_escape=escape
        )
        for got, want in zip(nat[:3], ref[:3]):
            assert got.tobytes() == want.tobytes()
        assert nat[3] == ref[3]
        for field in ("assignments", "cluster_weights", "cluster_sizes"):
            got, want = getattr(nat_state, field), getattr(ref_state, field)
            assert got.tobytes() == want.tobytes(), field


def _run_engine(graph, engine, resolution, seed, plan=None):
    config = ClusteringConfig(resolution=resolution, seed=seed)
    sched = SimulatedScheduler(num_workers=8)
    resilience = None
    if plan is not None:
        resilience = ResilienceContext(
            ResiliencePolicy(faults=plan, audit=True, max_retries=3),
            sched=sched,
        )
        resilience.bind(graph, resolution, config)
    labels, stats = multilevel_with_engine(
        graph,
        resolution,
        config,
        engine=engine,
        sched=sched,
        rng=np.random.default_rng(seed),
        resilience=resilience,
    )
    return labels, sched.simulated_time(8)


WORKLOADS = [
    ("karate", lambda seed: karate_club_graph()),
    ("rmat", lambda seed: rmat_graph(6, 6 * 2**6, seed=seed)),
    ("lfr", lambda seed: lfr_like_graph(120, mixing=0.3, seed=seed).graph),
    (
        "planted",
        lambda seed: planted_partition_graph(100, seed=seed).graph,
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w[0])
    @pytest.mark.parametrize("seed,resolution", [(1, 0.05), (2, 0.3)])
    def test_engines_identical_across_kernels(
        self, engine, workload, seed, resolution
    ):
        graph = workload[1](seed)
        with reference_paths():
            ref_labels, ref_sim = _run_engine(graph, engine, resolution, seed)
        ref_objective = lambdacc_objective(graph, ref_labels, resolution)
        labels, sim = _run_engine(graph, engine, resolution, seed)
        assert np.array_equal(ref_labels, labels)
        assert ref_sim == sim  # the cost model never sees which loop ran
        assert lambdacc_objective(graph, labels, resolution) == ref_objective

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_engines_identical_under_fault_injection(self, engine):
        graph = planted_partition_graph(80, seed=5).graph
        spec = "drop-move=0.2,stale-read=0.2,dup-move=0.1"
        with reference_paths():
            ref_labels, ref_sim = _run_engine(
                graph, engine, 0.05, 7, plan=FaultPlan.from_spec(spec, seed=13)
            )
        labels, sim = _run_engine(
            graph, engine, 0.05, 7, plan=FaultPlan.from_spec(spec, seed=13)
        )
        assert np.array_equal(ref_labels, labels)
        assert ref_sim == sim
        assert lambdacc_objective(graph, labels, 0.05) == lambdacc_objective(
            graph, ref_labels, 0.05
        )


def _knn_fractional(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(12, 8))
    labels = rng.integers(0, 12, size=1500)
    return knn_graph(centers[labels] + rng.normal(size=(1500, 8)), k=10)


class TestDefaultConfigParity:
    """Parity of the C and reference paths on the default ``cluster()``
    config at a larger scale than ``TestEngineEquivalence``'s graphs, on
    integer and fractional weights."""

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: rmat_graph(11, 8 * 2**11, seed=1), lambda: _knn_fractional(3)],
        ids=["rmat11", "knn-fractional"],
    )
    def test_default_config_bit_identical(self, make_graph):
        graph = make_graph()
        config = ClusteringConfig(resolution=0.05, seed=3)
        with reference_paths():
            ref = cluster(graph, config)
        got = cluster(graph, config)
        assert np.array_equal(ref.assignments, got.assignments)
        assert ref.objective == got.objective
        assert ref.sim_time() == got.sim_time()
