"""DynamicClusterer: a live LambdaCC partition under edge updates.

The paper's frontier-restriction argument (§3.2.2) says only vertices
whose *move landscape* changed can profitably move.  Under the LambdaCC
objective an edge update changes neither any vertex weight ``k_v`` nor
any cluster weight ``K_c`` — the penalty term is untouched until a vertex
actually moves — so after a batch of edge inserts/deletes/reweights the
only vertices with a changed landscape are the endpoints of the updated
edges.  That makes incremental maintenance exact, not heuristic:

1. **stage** the batch on a :class:`~repro.graphs.delta.DeltaOverlayGraph`,
   accumulating the intra-cluster weight delta of updated edges whose
   endpoints currently share a cluster (the only objective term a pure
   edge update can change);
2. **compact** the overlay into a fresh CSR by splicing the staged arcs
   into the sorted base rows;
3. **refine locally** — run the configured engine/kernel through
   :func:`~repro.core.engines.run_engine_restricted`, seeded with exactly
   the touched endpoints (:func:`~repro.core.frontier.seed_frontier`);
   the engine's own frontier maintenance cascades outward only as far as
   moves actually propagate;
4. **patch the objective** from the observed moves: intra-cluster weight
   from mover-incident edges (half-counted where both endpoints moved),
   penalty from the affected clusters' ``(K_c^2 - K2_c)/2`` terms with
   per-mover ``K2`` transfers.

Because step 3 *is* the production engine running on the post-update
graph from the pre-update partition, the resulting assignments and
cluster weights are bit-identical to a from-scratch restricted run — the
acceptance property the test suite pins with
:class:`~repro.resilience.audit.StateAuditor`.

A :class:`DriftGuard` bounds the failure modes of incremental float
bookkeeping: every ``recompute_every`` batches the objective is recomputed
exactly and the incremental terms resynced (drift within tolerance) or
the whole partition is rebuilt through the existing
:class:`~repro.supervisor.RunSupervisor` (drift beyond tolerance, or a
refinement cascade that swept more than ``max_frontier_fraction`` of the
graph — the signal that the partition has gone stale enough that local
repair stopped being cheaper than re-clustering).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import ClusteringConfig, Objective
from repro.core.options import RunOptions
from repro.core.engines import run_engine_restricted
from repro.core.frontier import seed_frontier
from repro.core.objective import (
    cluster_weight_penalty,
    intra_cluster_edge_weight,
    lambdacc_objective,
)
from repro.core.state import ClusterState
from repro.errors import ConfigError, UpdateError
from repro.graphs.csr import CSRGraph
from repro.graphs.delta import DeltaOverlayGraph
from repro.obs.instrument import (
    M_DYNAMIC_BATCHES,
    M_DYNAMIC_DRIFT,
    M_DYNAMIC_ESCALATIONS,
    M_DYNAMIC_MOVES,
    M_DYNAMIC_QUERIES,
    M_DYNAMIC_SEED,
    M_DYNAMIC_UPDATES,
    M_SERVE_STALENESS,
    NULL_INSTRUMENTATION,
)
from repro.parallel.scheduler import SimulatedScheduler
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.utils.rng import make_rng


@dataclass
class DriftGuard:
    """Escalation policy for the incremental bookkeeping (DESIGN.md §11).

    ``recompute_every = 0`` disables the periodic exact recompute (tests
    that pin pure-incremental behavior);  ``max_frontier_fraction >= 1``
    disables the cascade-size trigger.
    """

    #: |incremental F - exact F| beyond which the state is considered
    #: corrupt and a full re-clustering is triggered.  Within the bound,
    #: the incremental terms are silently resynced to the exact values.
    max_drift: float = 1e-6
    #: Run the exact objective recompute every this many batches.
    recompute_every: int = 16
    #: Escalate when one refinement round's frontier exceeded this
    #: fraction of the graph — local repair stopped being local.
    max_frontier_fraction: float = 0.5


@dataclass
class UpdateReport:
    """What one :meth:`DynamicClusterer.apply` call did."""

    batch_index: int
    num_updates: int
    op_counts: dict
    seed_size: int
    new_vertices: int
    iterations: int
    moves: int
    frontier_sizes: List[int] = field(default_factory=list)
    f_objective: float = 0.0
    #: |incremental - exact| when the guard recomputed this batch.
    drift: Optional[float] = None
    #: Escalation reason ("objective-drift" / "frontier-growth"), or None.
    escalated: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def candidate_evaluations(self) -> int:
        """Candidate-move evaluations = sum of per-round frontier sizes."""
        return int(sum(self.frontier_sizes))

    def as_dict(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "num_updates": self.num_updates,
            "op_counts": dict(self.op_counts),
            "seed_size": self.seed_size,
            "new_vertices": self.new_vertices,
            "iterations": self.iterations,
            "moves": self.moves,
            "frontier_sizes": [int(x) for x in self.frontier_sizes],
            "candidate_evaluations": self.candidate_evaluations,
            "f_objective": self.f_objective,
            "drift": self.drift,
            "escalated": self.escalated,
            "wall_seconds": self.wall_seconds,
        }


class DynamicClusterer:
    """A mutable graph + partition serving queries between update batches.

    Correlation objective only: modularity's vertex weights are degrees,
    which every edge update changes — its delta algebra is a different
    (and global) computation.  Use ``Objective.CORRELATION`` configs.
    """

    def __init__(
        self,
        graph: CSRGraph,
        assignments: np.ndarray,
        config: ClusteringConfig,
        engine: Optional[str] = None,
        supervisor=None,
        instrumentation=None,
        guard: Optional[DriftGuard] = None,
    ) -> None:
        if config.objective is not Objective.CORRELATION:
            raise ConfigError(
                "DynamicClusterer requires the correlation objective: "
                "modularity re-derives vertex weights from degrees, which "
                "every edge update changes globally"
            )
        self.config = config
        self.engine_name = engine if engine is not None else (
            "relaxed" if config.parallel else "sequential"
        )
        self.resolution = float(config.resolution)
        self.graph = graph
        self.overlay = DeltaOverlayGraph(graph)
        self.state = ClusterState.from_assignments(graph, assignments)
        self.supervisor = supervisor
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self.guard = guard if guard is not None else DriftGuard()
        self.rng = make_rng(config.seed)
        # Incremental objective terms: F = intra - lambda * penalty.
        self._k2 = np.bincount(
            self.state.assignments,
            weights=graph.node_weight_sq,
            minlength=graph.num_vertices,
        )
        self._intra = intra_cluster_edge_weight(graph, self.state.assignments)
        self._penalty = cluster_weight_penalty(graph, self.state.assignments)
        # Counters (persisted by SnapshotStore).
        self.batches_applied = 0
        self.updates_applied = {"insert": 0, "delete": 0, "reweight": 0}
        self.moves_applied = 0
        self.escalations = 0
        self.queries_answered = 0
        self.last_drift: Optional[float] = None
        self.sim_seconds = 0.0
        # Serving staleness: updates applied since the last snapshot
        # save (not persisted — a just-restored state is fresh).
        self.updates_since_save = 0
        # Persistent execution backend (DESIGN.md §13): created lazily on
        # the first apply() so the process pool warms up once and is then
        # reused by every update batch (and by the serving gateway, which
        # delegates here).  None until first use or when the config runs
        # the default simulated backend.
        self._backend = None
        self._backend_ready = False

    # ------------------------------------------------------------------ #
    # Execution backend lifecycle
    # ------------------------------------------------------------------ #

    def _exec_backend(self):
        """The persistent backend, or None for inline execution."""
        if not self._backend_ready:
            self._backend_ready = True
            if self.config.backend != "simulated":
                from repro.parallel.backend import create_backend

                backend = create_backend(
                    self.config.backend,
                    workers=self.config.resolved_workers,
                    machine=self.config.machine,
                )
                if not backend.inline:
                    self._backend = backend
        return self._backend

    def close(self) -> None:
        """Release the persistent backend (worker pool, shm segments).

        Idempotent; the clusterer remains usable afterwards — the next
        apply() falls back to inline execution rather than re-spawning.
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "DynamicClusterer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    @classmethod
    def bootstrap(
        cls,
        graph: CSRGraph,
        config: ClusteringConfig,
        engine: Optional[str] = None,
        supervisor=None,
        instrumentation=None,
        guard: Optional[DriftGuard] = None,
    ) -> "DynamicClusterer":
        """Cluster ``graph`` from scratch, then serve it dynamically."""
        from repro.core.api import cluster

        result = cluster(
            graph,
            config,
            RunOptions(
                instrumentation=instrumentation,
                engine=engine,
                supervisor=supervisor,
            ),
        )
        return cls(
            graph,
            result.assignments,
            config,
            engine=engine,
            supervisor=supervisor,
            instrumentation=instrumentation,
            guard=guard,
        )

    # ------------------------------------------------------------------ #
    # Serving facade
    # ------------------------------------------------------------------ #

    @property
    def f_objective(self) -> float:
        """Incrementally maintained unordered LambdaCC objective ``F``."""
        return self._intra - self.resolution * self._penalty

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_clusters(self) -> int:
        return self.state.num_clusters

    def cluster_of(self, u: int) -> int:
        """The cluster id vertex ``u`` is currently assigned to."""
        if u < 0 or u >= self.graph.num_vertices:
            raise UpdateError(
                f"vertex {u} out of range [0, {self.graph.num_vertices})"
            )
        if self.instr.enabled:
            self.instr.count(M_DYNAMIC_QUERIES, 1.0, kind="cluster_of")
        self.queries_answered += 1
        return int(self.state.assignments[u])

    def assignments(self, u: Optional[int] = None):
        """All assignments (copy), or one vertex's assignment."""
        if u is not None:
            return self.cluster_of(u)
        if self.instr.enabled:
            self.instr.count(M_DYNAMIC_QUERIES, 1.0, kind="assignments")
        self.queries_answered += 1
        return self.state.assignments.copy()

    def members(self, cluster: int) -> np.ndarray:
        """Vertex ids currently assigned to ``cluster``."""
        if self.instr.enabled:
            self.instr.count(M_DYNAMIC_QUERIES, 1.0, kind="members")
        self.queries_answered += 1
        return np.flatnonzero(self.state.assignments == cluster).astype(np.int64)

    def stats(self) -> dict:
        """Serving-facade summary of the live state."""
        return {
            "num_vertices": int(self.graph.num_vertices),
            "num_edges": int(self.graph.num_edges),
            "num_clusters": int(self.state.num_clusters),
            "f_objective": float(self.f_objective),
            "objective": 2.0 * float(self.f_objective),
            "resolution": self.resolution,
            "engine": self.engine_name,
            "kernel": self.config.kernel,
            "batches_applied": int(self.batches_applied),
            "updates_applied": dict(self.updates_applied),
            "moves_applied": int(self.moves_applied),
            "escalations": int(self.escalations),
            "last_drift": self.last_drift,
            "queries_answered": int(self.queries_answered),
            "sim_seconds": float(self.sim_seconds),
            "updates_since_save": int(self.updates_since_save),
        }

    def mark_saved(self) -> None:
        """Reset serving staleness after a successful snapshot save."""
        self.updates_since_save = 0
        if self.instr.enabled:
            self.instr.set_gauge(M_SERVE_STALENESS, 0.0)

    def exact_objective(self) -> float:
        """Full ``F`` recompute from the current graph + assignments."""
        return lambdacc_objective(self.graph, self.state.assignments, self.resolution)

    def audit(self, auditor=None) -> List[str]:
        """Run a :class:`StateAuditor` over the live state (empty = clean)."""
        from repro.resilience.audit import StateAuditor

        auditor = auditor if auditor is not None else StateAuditor()
        issues = auditor.verify_state(self.graph, self.state, self.resolution)
        exact = self.exact_objective()
        scale = max(1.0, abs(exact))
        if abs(exact - self.f_objective) > auditor.tolerance * scale:
            issues.append(
                f"incremental objective {self.f_objective:.9g} drifted from "
                f"recomputed {exact:.9g}"
            )
        return issues

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def validate(self, updates: Iterable[EdgeUpdate]) -> List[Optional[str]]:
        """Why each update would be rejected, in order (``None`` = valid).

        Walks the updates against the live graph the way :meth:`apply`
        stages them, under :meth:`EdgeUpdate.weight_after`.  A rejected
        update is skipped, so later updates see only the valid ones before
        them; the serving gateway commits exactly the valid subset.
        """
        return [reason for _, _, reason in self._plan(updates)]

    def _plan(
        self, updates: Iterable[EdgeUpdate]
    ) -> List[Tuple[float, float, Optional[str]]]:
        """``(current, new, reason)`` edge weights per update, in order.

        ``reason`` is set (and ``new == current``) for a rejected update.
        """
        weights: Dict[Tuple[int, int], float] = {}
        plan: List[Tuple[float, float, Optional[str]]] = []
        for upd in updates:
            key = upd.key
            current = (
                weights[key] if key in weights
                else self.overlay.edge_weight(upd.u, upd.v)
            )
            try:
                new = weights[key] = upd.weight_after(current)
            except UpdateError as exc:
                plan.append((current, current, str(exc)))
            else:
                plan.append((current, new, None))
        return plan

    def apply(self, batch: Union[UpdateBatch, List[EdgeUpdate]]) -> UpdateReport:
        """Apply one update batch; localized refinement keeps F current."""
        if not isinstance(batch, UpdateBatch):
            batch = UpdateBatch(batch)
        start = time.perf_counter()
        old_n = self.graph.num_vertices
        intra_delta, counts = self._stage(batch, old_n)

        graph = self.overlay.compact()
        self._adopt_graph(graph, old_n)
        self._intra += intra_delta

        sched = SimulatedScheduler(
            num_workers=self.config.resolved_workers,
            machine=self.config.machine,
            instr=self.instr if self.instr.enabled else None,
            backend=self._exec_backend(),
        )
        touched = batch.touched_vertices()
        seed = seed_frontier(graph, touched, sched=sched)
        before = self.state.assignments.copy()
        before_weights = self.state.cluster_weights.copy()
        with self.instr.span(
            "update",
            batch=self.batches_applied,
            updates=len(batch),
            seed=int(seed.size),
            engine=self.engine_name,
        ):
            if seed.size:
                bm = run_engine_restricted(
                    graph,
                    self.state,
                    self.resolution,
                    self.config,
                    engine=self.engine_name,
                    frontier=seed,
                    sched=sched,
                    rng=self.rng,
                )
                iterations = bm.iterations
                moves = bm.total_moves
                frontier_sizes = [int(x) for x in bm.frontier_sizes]
            else:
                iterations, moves, frontier_sizes = 0, 0, []

        movers = np.flatnonzero(before != self.state.assignments)
        if movers.size:
            self._patch_intra(graph, before, movers)
            self._patch_penalty(before, before_weights, movers)

        self.batches_applied += 1
        for op, k in counts.items():
            self.updates_applied[op] += k
        self.moves_applied += int(moves)
        self.updates_since_save += len(batch)
        self.sim_seconds += sched.simulated_time()
        if self.instr.enabled:
            self.instr.set_gauge(
                M_SERVE_STALENESS, float(self.updates_since_save)
            )
            self.instr.count(M_DYNAMIC_BATCHES, 1.0)
            for op, k in counts.items():
                if k:
                    self.instr.count(M_DYNAMIC_UPDATES, float(k), op=op)
            self.instr.observe(M_DYNAMIC_SEED, float(seed.size))
            if moves:
                self.instr.count(
                    M_DYNAMIC_MOVES, float(moves), engine=self.engine_name
                )

        report = UpdateReport(
            batch_index=self.batches_applied - 1,
            num_updates=len(batch),
            op_counts=counts,
            seed_size=int(seed.size),
            new_vertices=graph.num_vertices - old_n,
            iterations=int(iterations),
            moves=int(moves),
            frontier_sizes=frontier_sizes,
        )
        self._check_guard(report)
        report.f_objective = float(self.f_objective)
        report.wall_seconds = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _stage(self, batch: UpdateBatch, old_n: int):
        """Stage the batch onto the overlay; returns (intra delta, counts).

        The whole batch is validated first, so a rejected update raises
        with the overlay untouched.
        """
        plan = self._plan(batch)
        for _, _, reason in plan:
            if reason is not None:
                raise UpdateError(reason)
        intra_delta = 0.0
        counts = {"insert": 0, "delete": 0, "reweight": 0}
        assignments = self.state.assignments
        for upd, (current, new, _) in zip(batch, plan):
            self.overlay.set_edge(upd.u, upd.v, new)
            counts[upd.op] += 1
            # New vertices enter as fresh singletons, so an edge touching
            # one is never intra-cluster at staging time.
            if (
                max(upd.u, upd.v) < old_n
                and assignments[upd.u] == assignments[upd.v]
            ):
                intra_delta += new - current
        return intra_delta, counts

    def _adopt_graph(self, graph: CSRGraph, old_n: int) -> None:
        """Swap in the compacted graph, growing state for new vertices."""
        self.graph = graph
        new_n = graph.num_vertices
        if new_n > old_n:
            grown = np.arange(old_n, new_n, dtype=np.int64)
            state = self.state
            state.assignments = np.concatenate([state.assignments, grown])
            state.cluster_weights = np.concatenate(
                [state.cluster_weights, graph.node_weights[old_n:].astype(np.float64)]
            )
            state.cluster_sizes = np.concatenate(
                [state.cluster_sizes, np.ones(new_n - old_n, dtype=np.int64)]
            )
            # Singleton clusters contribute (k^2 - k^2)/2 = 0 to the
            # penalty, so only the K2 ledger grows.
            self._k2 = np.concatenate([self._k2, graph.node_weight_sq[old_n:]])
        self.state.node_weights = graph.node_weights

    def _patch_intra(
        self, graph: CSRGraph, before: np.ndarray, movers: np.ndarray
    ) -> None:
        """Intra-cluster weight delta from the batch's observed moves.

        Every edge whose intra/inter status changed is incident to a
        mover, so scanning mover adjacency rows covers the delta exactly;
        edges between two movers appear in both rows and are half-counted.
        """
        starts = graph.offsets[movers]
        degs = (graph.offsets[movers + 1] - starts).astype(np.int64)
        total = int(degs.sum())
        if total == 0:
            return
        cum = np.zeros(movers.size, dtype=np.int64)
        np.cumsum(degs[:-1], out=cum[1:])
        flat = np.repeat(starts - cum, degs) + np.arange(total, dtype=np.int64)
        src = np.repeat(movers, degs)
        dst = graph.neighbors[flat]
        wts = graph.weights[flat]
        after = self.state.assignments
        was_intra = before[src] == before[dst]
        now_intra = after[src] == after[dst]
        mover_mask = np.zeros(graph.num_vertices, dtype=bool)
        mover_mask[movers] = True
        scale = np.where(mover_mask[dst], 0.5, 1.0)
        delta = (
            (now_intra.astype(np.float64) - was_intra.astype(np.float64))
            * wts
            * scale
        )
        self._intra += float(delta.sum())

    def _patch_penalty(
        self,
        before: np.ndarray,
        before_weights: np.ndarray,
        movers: np.ndarray,
    ) -> None:
        """Penalty delta over the clusters the movers left or joined."""
        after = self.state.assignments
        old_c = before[movers]
        new_c = after[movers]
        affected = np.union1d(old_c, new_c)
        before_term = float(
            ((before_weights[affected] ** 2 - self._k2[affected]) / 2.0).sum()
        )
        k2_moved = self.graph.node_weight_sq[movers]
        np.subtract.at(self._k2, old_c, k2_moved)
        np.add.at(self._k2, new_c, k2_moved)
        after_term = float(
            (
                (self.state.cluster_weights[affected] ** 2 - self._k2[affected])
                / 2.0
            ).sum()
        )
        self._penalty += after_term - before_term

    def _check_guard(self, report: UpdateReport) -> None:
        guard = self.guard
        n = self.graph.num_vertices
        peak = max(report.frontier_sizes, default=0)
        if (
            guard.max_frontier_fraction < 1.0
            and n
            and peak > guard.max_frontier_fraction * n
        ):
            self._escalate("frontier-growth", report)
            return
        if guard.recompute_every and (
            self.batches_applied % guard.recompute_every == 0
        ):
            exact = self.exact_objective()
            drift = abs(self.f_objective - exact)
            self.last_drift = drift
            report.drift = drift
            if self.instr.enabled:
                self.instr.set_gauge(M_DYNAMIC_DRIFT, drift)
            scale = max(1.0, abs(exact))
            if drift > guard.max_drift * scale:
                self._escalate("objective-drift", report)
            else:
                self._resync()

    def _resync(self) -> None:
        """Adopt exact objective terms (kills float-drift accumulation)."""
        graph = self.graph
        self._intra = intra_cluster_edge_weight(graph, self.state.assignments)
        self._penalty = cluster_weight_penalty(graph, self.state.assignments)
        self._k2 = np.bincount(
            self.state.assignments,
            weights=graph.node_weight_sq,
            minlength=graph.num_vertices,
        )

    def _escalate(self, reason: str, report: UpdateReport) -> None:
        """Full re-clustering through the RunSupervisor."""
        from repro.core.api import cluster
        from repro.supervisor.supervisor import RunSupervisor

        self.escalations += 1
        report.escalated = reason
        if self.instr.enabled:
            self.instr.count(M_DYNAMIC_ESCALATIONS, 1.0, reason=reason)
            self.instr.event("dynamic-escalate", reason=reason)
        supervisor = (
            self.supervisor if self.supervisor is not None else RunSupervisor()
        )
        result = cluster(
            self.graph,
            self.config,
            RunOptions(
                instrumentation=(self.instr if self.instr.enabled else None),
                engine=self.engine_name,
                supervisor=supervisor,
            ),
        )
        self.state = ClusterState.from_assignments(self.graph, result.assignments)
        self.overlay = DeltaOverlayGraph(self.graph)
        self._resync()
        self.last_drift = 0.0
