"""Clustering result record.

Bundles the clustering itself with everything the paper's evaluation
reports: the CC objective / modularity, round counts (Figure 5), the
simulated-cost ledger (Figures 4, 6, 7, 12, 13, 17), peak memory
(Figure 8), and the frontier-size history (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import ClusteringConfig
from repro.core.louvain_par import MultiLevelStats
from repro.parallel.scheduler import CostLedger, Machine


@dataclass
class ClusterResult:
    """Output of :func:`repro.core.api.cluster`."""

    #: Dense cluster label per vertex (labels in ``[0, num_clusters)``).
    assignments: np.ndarray
    #: The paper's CC objective (ordered-pair scale, ``2 F``) at the
    #: effective lambda.
    objective: float
    #: The unordered LambdaCC objective ``F`` (see repro.core.objective).
    f_objective: float
    #: Reichardt–Bornholdt modularity of the clustering (always computed;
    #: the optimization target only under Objective.MODULARITY).
    modularity: float
    #: The resolution as configured (lambda for CC, gamma for modularity).
    resolution: float
    #: The LambdaCC lambda actually optimized (== resolution for CC).
    effective_lambda: float
    config: ClusteringConfig
    stats: MultiLevelStats
    ledger: CostLedger
    machine: Machine
    #: Peak graph bytes retained by the algorithm (this implementation's
    #: arrays, not the paper's 8-bytes-per-edge convention).
    peak_memory_bytes: int
    #: The input graph's bytes under the same accounting.
    input_bytes: int
    wall_seconds: float
    #: The seed the run's RNG was seeded with: the config's, or the one
    #: ``cluster()`` drew for a config without one.
    seed: Optional[int] = None
    #: True when the run degraded gracefully instead of completing cleanly
    #: (budget exhausted, transient-fault retries exhausted, or an audit
    #: had to repair corrupted aggregates); see ``failure_log`` for why.
    degraded: bool = False
    #: Human-readable log of faults survived, repairs, retries, and budget
    #: stops (empty for a clean run).
    failure_log: List[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        return int(self.assignments.max()) + 1 if self.assignments.size else 0

    @property
    def rounds(self) -> int:
        """Total best-move iterations across levels (Figure 5's count)."""
        return self.stats.total_iterations

    @property
    def num_levels(self) -> int:
        return self.stats.num_levels

    @property
    def memory_overhead(self) -> float:
        """Peak retained bytes over input bytes (Figure 8's ratio)."""
        return self.peak_memory_bytes / max(1, self.input_bytes)

    def clusters(self) -> List[np.ndarray]:
        """Member arrays per cluster, ordered by cluster label."""
        order = np.argsort(self.assignments, kind="stable")
        labels = self.assignments[order]
        boundaries = np.flatnonzero(np.diff(labels)) + 1
        return np.split(order, boundaries)

    def stats_dict(self) -> dict:
        """Structured run summary: rounds, moves, per-level timings.

        The same numbers the trace's ``run``/``level`` spans carry
        (``tests/obs`` asserts the two agree), in a JSON-ready dict for
        benches and reports.
        """
        summary = self.stats.as_dict()
        # Disambiguate: the stats total is instrumented per-level time; the
        # result's wall_seconds is the whole driver invocation.
        summary["levels_wall_seconds"] = summary.pop("wall_seconds")
        summary.update(
            num_clusters=self.num_clusters,
            objective=self.objective,
            f_objective=self.f_objective,
            modularity=self.modularity,
            wall_seconds=self.wall_seconds,
            sim_time_seconds=self.sim_time(),
            degraded=self.degraded,
            seed=self.seed,
        )
        # Surface input repairs and supervision decisions when present so
        # bench/report consumers see them without digging into extras.
        for key in ("input_repairs", "supervisor"):
            if key in self.extras:
                summary[key] = self.extras[key]
        return summary

    def sim_time(self, num_workers: Optional[int] = None) -> float:
        """Simulated seconds at ``num_workers`` (default: as scheduled).

        ``resolved_workers`` rather than the raw ``num_workers`` so that
        auto-sized runs (``num_workers=0``) report the worker count the
        scheduler actually ran with.
        """
        workers = num_workers if num_workers is not None else (
            self.config.resolved_workers if self.config.parallel else 1
        )
        return self.ledger.simulated_time(workers, machine=self.machine)

    def summary(self) -> str:
        """One-line human-readable summary."""
        tail = ", DEGRADED" if self.degraded else ""
        return (
            f"{self.config.describe()} resolution={self.resolution:g}: "
            f"{self.num_clusters} clusters, objective={self.objective:.6g}, "
            f"modularity={self.modularity:.4f}, rounds={self.rounds}, "
            f"sim_time={self.sim_time():.4g}s, wall={self.wall_seconds:.3f}s{tail}"
        )
