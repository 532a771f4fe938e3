"""Property tests: the vectorized and native kernels are bit-identical
to the reference dict kernel.

DESIGN.md §8's contract is *exact* equality, not tolerance: both fast
kernels accumulate each S(v, c') segment in the same left-to-right CSR
order as the dict loop, so every comparison here uses ``array_equal`` /
``==`` on floats deliberately.  Coverage:

* direct ``batch_moves`` parity on adversarial hypothesis graphs
  (negative weights, self-clusters, escape and swap-avoidance variants);
* ``sweep`` parity — the speculative confirm-continue replay must
  reproduce the sequential dict sweep move-for-move, including the
  mutated state;
* end-to-end: every registry engine, on RMAT/LFR/planted workloads
  across seeds and resolutions, produces identical assignments and
  objective under every kernel;
* the same end-to-end equivalence under fault injection — the sweep
  kernel detects the ``FaultyClusterState`` wrapper and falls back, so
  injected hazards perturb every kernel identically;
* the default ``cluster()`` config at a scale where most concurrency
  windows take the segment path rather than the dict fallback, on
  integer and fractional weights;
* the row-chunked sort path, forced by shrinking the key bit budget.
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
from repro.kernels import KERNELS
from repro.kernels.reference import reference_batch_moves, reference_sweep
from repro.kernels.sweep import speculative_sweep
from repro.kernels import vectorized
from repro.kernels.vectorized import VectorizedKernel, vectorized_batch_moves
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience import FaultPlan, ResilienceContext, ResiliencePolicy

ENGINE_NAMES = sorted(ENGINES)
FAST_KERNELS = sorted(set(KERNELS) - {"reference"})


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


def _assert_batch_parity(graph, state, batch, lam, escape, swap):
    ref_t, ref_g = reference_batch_moves(
        graph, state, batch, lam, allow_escape=escape, swap_avoidance=swap
    )
    # small_batch_work=0 forces the segment-reduction path even on tiny
    # hypothesis graphs (the adaptive fallback would otherwise route them
    # all through the reference kernel).
    vec_t, vec_g = vectorized_batch_moves(
        graph, state, batch, lam,
        allow_escape=escape, swap_avoidance=swap, small_batch_work=0,
    )
    assert np.array_equal(ref_t, vec_t)
    assert np.array_equal(ref_g, vec_g)
    nat_t, nat_g = KERNELS["native"].batch_moves(
        graph, state, batch, lam, allow_escape=escape, swap_avoidance=swap
    )
    assert ref_t.tobytes() == nat_t.tobytes()
    assert ref_g.tobytes() == nat_g.tobytes()


class TestBatchKernelEquivalence:
    @given(state_instance(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batch_moves_bit_identical(self, instance, escape, swap):
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        _assert_batch_parity(graph, state, batch, lam, escape, swap)

    @given(state_instance())
    @settings(max_examples=100, deadline=None)
    def test_sweep_bit_identical(self, instance):
        graph, labels, lam = instance
        order = np.arange(graph.num_vertices, dtype=np.int64)
        ref_state = ClusterState.from_assignments(graph, labels)
        vec_state = ClusterState.from_assignments(graph, labels)
        ref = reference_sweep(graph, ref_state, order, lam)
        vec = speculative_sweep(graph, vec_state, order, lam)
        for got, want in zip(vec, ref):
            assert np.array_equal(np.asarray(got), np.asarray(want))
        assert np.array_equal(ref_state.assignments, vec_state.assignments)
        assert np.array_equal(
            ref_state.cluster_weights, vec_state.cluster_weights
        )
        assert np.array_equal(ref_state.cluster_sizes, vec_state.cluster_sizes)


class TestChunkedSort:
    """Batches whose packed keys exceed ``KEY_BITS`` sort in row chunks."""

    @given(state_instance(), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_chunked_batch_moves_bit_identical(self, instance, escape, swap, data):
        graph, labels, lam = instance
        state = ClusterState.from_assignments(graph, labels)
        batch = np.asarray(
            data.draw(st.permutations(range(graph.num_vertices))), dtype=np.int64
        )
        # n <= 16 and degree <= 15 keep one row within 8 bits, so every
        # budget here is legal while whole batches need up to ~16 bits.
        key_bits = data.draw(st.integers(min_value=8, max_value=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vectorized, "KEY_BITS", key_bits)
            _assert_batch_parity(graph, state, batch, lam, escape, swap)

    def _sparse_instance(self):
        # Rows 0, 3, 6 and 9 have no edges, so halving the batch puts
        # zero-degree rows at chunk edges.
        edges = np.asarray(
            [(1, 2), (2, 4), (4, 5), (5, 7), (7, 8), (8, 1), (1, 4), (5, 8)],
            dtype=np.int64,
        )
        weights = np.asarray([1.5, -0.5, 2.0, 0.25, 1.0, -1.0, 0.75, 0.5])
        graph = graph_from_edges(edges, weights=weights, num_vertices=10)
        labels = np.asarray([0, 1, 1, 3, 4, 4, 6, 4, 1, 9], dtype=np.int64)
        return graph, ClusterState.from_assignments(graph, labels)

    @pytest.mark.parametrize("escape", [False, True])
    @pytest.mark.parametrize("swap", [False, True])
    def test_zero_degree_rows_at_chunk_edges(self, monkeypatch, escape, swap):
        graph, state = self._sparse_instance()
        batch = np.arange(graph.num_vertices, dtype=np.int64)
        degrees = graph.offsets[batch + 1] - graph.offsets[batch]
        monkeypatch.setattr(vectorized, "KEY_BITS", 7)
        chunks = vectorized._row_chunks(degrees, int(degrees.sum()), 10)
        assert len(chunks) > 1
        assert any(degrees[r0] == 0 for r0, _, _ in chunks)
        # Chunks tile the edge range in row order.
        assert chunks[0][1] == 0 and chunks[-1][2] == degrees.sum()
        assert all(a[2] == b[1] for a, b in zip(chunks, chunks[1:]))
        _assert_batch_parity(graph, state, batch, 0.2, escape, swap)

    def test_row_wider_than_budget_raises(self, monkeypatch):
        graph, state = self._sparse_instance()
        monkeypatch.setattr(vectorized, "KEY_BITS", 4)
        with pytest.raises(ValueError, match="key bits"):
            vectorized_batch_moves(
                graph, state, np.arange(10, dtype=np.int64), 0.2,
                small_batch_work=0,
            )


def _run_engine(graph, engine, kernel, resolution, seed, plan=None):
    config = ClusteringConfig(
        resolution=resolution, seed=seed, kernel=kernel
    )
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
        ref_labels, ref_sim = _run_engine(
            graph, engine, "reference", resolution, seed
        )
        ref_objective = lambdacc_objective(graph, ref_labels, resolution)
        for kernel in FAST_KERNELS:
            labels, sim = _run_engine(graph, engine, kernel, resolution, seed)
            assert np.array_equal(ref_labels, labels), kernel
            assert ref_sim == sim  # the cost model never sees the kernel
            assert lambdacc_objective(graph, labels, resolution) == ref_objective

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_engines_identical_under_fault_injection(self, engine):
        graph = planted_partition_graph(80, seed=5).graph
        spec = "drop-move=0.2,stale-read=0.2,dup-move=0.1"
        results = {}
        for kernel in sorted(KERNELS):
            plan = FaultPlan.from_spec(spec, seed=13)
            results[kernel] = _run_engine(
                graph, engine, kernel, 0.05, 7, plan=plan
            )
        ref_labels, ref_sim = results["reference"]
        for kernel in FAST_KERNELS:
            labels, sim = results[kernel]
            assert np.array_equal(ref_labels, labels), kernel
            assert ref_sim == sim


def _knn_fractional(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(12, 8))
    labels = rng.integers(0, 12, size=1500)
    return knn_graph(centers[labels] + rng.normal(size=(1500, 8)), k=10)


class TestDefaultConfigParity:
    """Kernel parity on the default ``cluster()`` config at segment scale.

    ``TestEngineEquivalence``'s graphs are small enough that nearly every
    one of the 32 asynchronous windows drops below ``SMALL_BATCH_WORK``
    and takes the dict fallback; here most windows take the segment path.
    """

    @pytest.mark.parametrize(
        "make_graph, integer_weights",
        [
            (lambda: rmat_graph(11, 8 * 2**11, seed=1), True),
            (lambda: _knn_fractional(3), False),
        ],
        ids=["rmat11", "knn-fractional"],
    )
    def test_default_config_bit_identical(
        self, monkeypatch, make_graph, integer_weights
    ):
        graph = make_graph()
        assert graph.has_integer_weights is integer_weights
        calls = {"windows": 0, "fallbacks": 0}
        batch_moves = VectorizedKernel.batch_moves
        fallback = vectorized.reference_batch_moves

        def counted_batch_moves(self, *args, **kwargs):
            calls["windows"] += 1
            return batch_moves(self, *args, **kwargs)

        def counted_fallback(*args, **kwargs):
            calls["fallbacks"] += 1
            return fallback(*args, **kwargs)

        monkeypatch.setattr(VectorizedKernel, "batch_moves", counted_batch_moves)
        monkeypatch.setattr(vectorized, "reference_batch_moves", counted_fallback)
        results = {
            kernel: cluster(
                graph, ClusteringConfig(resolution=0.05, seed=3, kernel=kernel)
            )
            for kernel in sorted(KERNELS)
        }
        ref = results["reference"]
        for kernel in FAST_KERNELS:
            got = results[kernel]
            assert np.array_equal(ref.assignments, got.assignments), kernel
            assert ref.objective == got.objective
            assert ref.sim_time() == got.sim_time()
        assert calls["fallbacks"] < calls["windows"]
