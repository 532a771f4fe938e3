"""Chaos-matrix harness: sweep faults under the supervisor, assert recovery.

The matrix crosses **fault kind × injection site × engine** and runs
every cell under a
:class:`~repro.supervisor.RunSupervisor`, then checks the recovery
invariants the supervisor promises:

* every cell **terminates** (fault plans carry ``max_injections``, so the
  hazard eventually stops firing and recovery-by-rerun must converge);
* the final labels are a **valid clustering** (dense, right length);
* the final objective is within ``tolerance`` (relative) of the
  fault-free baseline for the same engine — or the result is
  explicitly ``degraded=True`` with a populated ``failure_log``;
* per engine, **checkpoints replay bit-identically**: resuming
  a fault-free run's checkpoint reproduces the uninterrupted run's
  assignments and objective exactly.

Used by ``repro chaos`` (the CLI), ``make chaos`` (CI), and the
``tests/supervisor`` suite.  Everything is seeded, so a matrix replays
deterministically.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import cluster
from repro.core.options import RunOptions
from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES
from repro.errors import SupervisorExhausted
from repro.resilience.context import ResiliencePolicy
from repro.resilience.faults import FaultKind, FaultPlan
from repro.supervisor import RunSupervisor

#: Injection site exercised by each hazard class (module docstring of
#: :mod:`repro.resilience.faults`): state mutations go through
#: ``FaultyClusterState``, CAS failures through the atomics windows,
#: frontier delays through ``next_frontier``.
FAULT_SITES: Dict[FaultKind, str] = {
    FaultKind.TRANSIENT: "state-mutation",
    FaultKind.DROP_MOVE: "state-mutation",
    FaultKind.DUP_MOVE: "state-mutation",
    FaultKind.STALE_READ: "state-mutation",
    FaultKind.CAS_FAIL: "atomics",
    FaultKind.DELAY_FRONTIER: "frontier",
}

#: Default hazard sweep: one kind per injection site plus the corrupting
#: double-apply — the acceptance floor of >= 3 fault kinds.
DEFAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.TRANSIENT,
    FaultKind.DUP_MOVE,
    FaultKind.CAS_FAIL,
    FaultKind.DELAY_FRONTIER,
)

#: Relative objective tolerance vs the fault-free baseline.  Survived
#: hazards legitimately perturb move interleavings (the paper's whole
#: point is that quality is robust to them), so this is a sanity band,
#: not an equality check.
DEFAULT_TOLERANCE = 0.15


@dataclass
class CellOutcome:
    """One chaos cell's verdict: identity, objectives, recovery record."""

    kind: str
    site: str
    engine: str
    objective: float
    baseline_objective: float
    rel_delta: float
    degraded: bool
    injections: int
    attempts: int
    retries: int
    fallbacks: int
    salvaged: bool
    failure_log_size: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.site}/{self.engine}"

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["violations"] = list(self.violations)
        out["ok"] = self.ok
        return out


@dataclass
class ChaosReport:
    """Every cell outcome plus the per-engine replay verdicts."""

    outcomes: List[CellOutcome]
    replay_failures: List[str]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.replay_failures and all(c.ok for c in self.outcomes)

    @property
    def num_cells(self) -> int:
        return len(self.outcomes)

    def failures(self) -> List[str]:
        out = [
            f"{cell.label}: {violation}"
            for cell in self.outcomes
            for violation in cell.violations
        ]
        out.extend(self.replay_failures)
        return out

    def summary(self) -> str:
        """Human-readable table of every cell, one line each."""
        lines = [
            f"chaos matrix: {self.num_cells} cells, "
            f"tolerance {self.tolerance:.0%}, "
            f"{'ALL RECOVERED' if self.ok else 'FAILURES'}"
        ]
        for cell in self.outcomes:
            status = "ok" if cell.ok else "FAIL"
            flags = []
            if cell.degraded:
                flags.append("degraded")
            if cell.salvaged:
                flags.append("salvaged")
            if cell.fallbacks:
                flags.append(f"fallbacks={cell.fallbacks}")
            if cell.retries:
                flags.append(f"retries={cell.retries}")
            lines.append(
                f"  [{status}] {cell.label}: injected={cell.injections} "
                f"delta={cell.rel_delta:.2%} {' '.join(flags)}".rstrip()
            )
            for violation in cell.violations:
                lines.append(f"         !! {violation}")
        for failure in self.replay_failures:
            lines.append(f"  [FAIL] replay: {failure}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "cells": [c.as_dict() for c in self.outcomes],
            "replay_failures": list(self.replay_failures),
        }


def _check_labels(assignments: np.ndarray, num_vertices: int) -> List[str]:
    issues = []
    if assignments.shape != (num_vertices,):
        issues.append(
            f"assignment shape {assignments.shape} != ({num_vertices},)"
        )
        return issues
    if assignments.size:
        low, high = int(assignments.min()), int(assignments.max())
        if low < 0 or high >= num_vertices:
            issues.append(f"labels outside [0, n): min={low} max={high}")
    return issues


def replay_check(graph, config: ClusteringConfig, engine: Optional[str]) -> Optional[str]:
    """Checkpoint bit-identity for one engine: resume == full run.

    Runs fault-free with checkpointing, then resumes the newest checkpoint
    and demands the exact assignments and objective of the uninterrupted
    run.  Returns a violation message, or ``None`` (also when the run was
    too shallow to ever write a checkpoint).
    """
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = os.path.join(tmp, "replay.npz")
        full = cluster(
            graph, config,
            RunOptions(
                resilience=ResiliencePolicy(checkpoint_path=path),
                engine=engine,
            ),
        )
        if not os.path.exists(path):
            return None
        resumed = cluster(
            graph, config,
            RunOptions(
                resilience=ResiliencePolicy(resume_from=path),
                engine=engine,
            ),
        )
    tag = engine or "default"
    if not np.array_equal(full.assignments, resumed.assignments):
        return f"{tag}: resumed assignments differ from the full run"
    if full.objective != resumed.objective:
        return (
            f"{tag}: resumed objective {resumed.objective!r} != "
            f"full-run objective {full.objective!r}"
        )
    return None


def chaos_matrix(
    graph,
    config: Optional[ClusteringConfig] = None,
    engines: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[FaultKind]] = None,
    rate: float = 0.3,
    max_injections: int = 6,
    seed: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    audit: bool = True,
    check_replay: bool = True,
    instrumentation=None,
) -> ChaosReport:
    """Run the full chaos matrix on ``graph`` and return a report.

    Cells are seeded ``seed + cell_index`` and supervised with two
    attempts per rung, so the whole matrix is deterministic.
    """
    config = config if config is not None else ClusteringConfig(num_workers=4)
    engines = list(engines) if engines is not None else sorted(ENGINES)
    kinds = list(kinds) if kinds is not None else list(DEFAULT_KINDS)

    outcomes: List[CellOutcome] = []
    replay_failures: List[str] = []
    cell_config = config.with_options(seed=seed)
    cell_index = 0
    for engine in engines:
        baseline = cluster(
            graph, cell_config,
            RunOptions(
                resilience=ResiliencePolicy(audit=audit),
                engine=engine,
            ),
        )
        if check_replay:
            failure = replay_check(graph, cell_config, engine)
            if failure is not None:
                replay_failures.append(failure)
        for kind in kinds:
            cell_index += 1
            outcomes.append(
                _run_cell(
                    graph, cell_config, engine, kind,
                    baseline.objective,
                    rate=rate,
                    max_injections=max_injections,
                    seed=seed + cell_index,
                    tolerance=tolerance,
                    audit=audit,
                    instrumentation=instrumentation,
                )
            )
    return ChaosReport(
        outcomes=outcomes,
        replay_failures=replay_failures,
        tolerance=tolerance,
    )


def _run_cell(
    graph, cell_config, engine, kind, baseline_objective,
    rate, max_injections, seed, tolerance, audit, instrumentation,
) -> CellOutcome:
    plan = FaultPlan.single(
        kind, rate=rate, seed=seed, max_injections=max_injections
    )
    policy = ResiliencePolicy(faults=plan, audit=audit)
    violations: List[str] = []
    try:
        result = RunSupervisor(max_attempts=2).run(
            graph, cell_config,
            resilience=policy,
            instrumentation=instrumentation,
            engine=engine,
        )
    except SupervisorExhausted as exc:
        return CellOutcome(
            kind=kind.value,
            site=FAULT_SITES[kind],
            engine=engine,
            objective=float("nan"),
            baseline_objective=baseline_objective,
            rel_delta=float("inf"),
            degraded=True,
            injections=plan.total_injections,
            attempts=0,
            retries=0,
            fallbacks=0,
            salvaged=False,
            failure_log_size=0,
            violations=[f"no result produced: {exc}"],
        )

    violations.extend(_check_labels(result.assignments, graph.num_vertices))
    scale = max(abs(baseline_objective), 1e-12)
    rel_delta = abs(result.objective - baseline_objective) / scale
    if rel_delta > tolerance:
        if not result.degraded:
            violations.append(
                f"objective {result.objective:.6g} deviates "
                f"{rel_delta:.2%} from baseline "
                f"{baseline_objective:.6g} without degraded flag"
            )
        elif not result.failure_log:
            violations.append("degraded result with an empty failure_log")
    if result.degraded and not result.failure_log:
        violations.append("degraded result with an empty failure_log")
    meta = result.extras.get("supervisor", {})
    return CellOutcome(
        kind=kind.value,
        site=FAULT_SITES[kind],
        engine=engine,
        objective=result.objective,
        baseline_objective=baseline_objective,
        rel_delta=rel_delta,
        degraded=result.degraded,
        injections=plan.total_injections,
        attempts=int(meta.get("attempts", 0)),
        retries=int(meta.get("retries", 0)),
        fallbacks=int(meta.get("fallbacks", 0)),
        salvaged=bool(meta.get("salvaged", False)),
        failure_log_size=len(result.failure_log),
        violations=violations,
    )
