"""Run doctor: facts, decomposition, and verdicts on canned runs."""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.core.objective import lambdacc_objective
from repro.graphs.karate import karate_club_graph
from repro.obs.doctor import (
    DoctorInputs,
    cluster_decomposition,
    collect_facts,
    diagnose,
    dynamic_facts,
    stats_facts,
    trace_series,
)
from repro.obs.instrument import Instrumentation

pytestmark = pytest.mark.obs

RESOLUTION = 0.05


@pytest.fixture(scope="module")
def karate_run():
    """One instrumented healthy clustering of the karate club."""
    instr = Instrumentation()
    config = ClusteringConfig(resolution=RESOLUTION, seed=3)
    result = cluster(karate_club_graph(), config, RunOptions(instrumentation=instr))
    return result, instr


def round_span(span_id, parent, iteration, moves, frontier, gain=0.0):
    return {
        "type": "span", "name": "round", "id": span_id, "parent": parent,
        "start": float(iteration), "wall_seconds": 0.001,
        "attrs": {"engine": "relaxed", "iteration": iteration,
                  "frontier": frontier, "moves": moves, "gain": gain},
    }


def phase_span(span_id, phase="best-moves", level=0):
    return {
        "type": "span", "name": "phase", "id": span_id, "parent": None,
        "start": 0.0, "wall_seconds": 0.01,
        "attrs": {"phase": phase, "level": level},
    }


def stalled_trace(rounds=6):
    """A phase that churns ~the same moves every round: never converging."""
    records = [phase_span("p0")]
    for i in range(rounds):
        records.append(round_span(f"r{i}", "p0", i, moves=20, frontier=30,
                                  gain=0.01))
    return records


def converging_trace(rounds=6):
    records = [phase_span("p0")]
    moves = 64
    for i in range(rounds):
        records.append(round_span(f"r{i}", "p0", i, moves=moves,
                                  frontier=2 * moves, gain=1.0 / (i + 1)))
        moves //= 4
    return records


class TestHealthyRun:
    def test_all_ok_and_exit_zero(self, karate_run):
        result, instr = karate_run
        decomposition = cluster_decomposition(
            karate_club_graph(), result.assignments, RESOLUTION
        )
        doctor = diagnose(DoctorInputs(
            stats=result.stats_dict(),
            trace=list(instr.tracer.records),
            metric_samples=instr.metrics.collect(),
            decomposition=decomposition,
            iteration_cap=10,
        ))
        assert doctor.report.exit_code == 0
        assert doctor.report.count("crit") == 0
        assert doctor.report.count("warn") == 0
        # The core convergence facts must all have been observable.
        for fact in ("run.rounds", "run.f_objective",
                     "convergence.stall_levels",
                     "quality.singleton_fraction"):
            assert fact in doctor.facts

    def test_uninstrumented_run_skips_instead_of_failing(self, karate_run):
        result, _ = karate_run
        doctor = diagnose(DoctorInputs(stats=result.stats_dict()))
        assert doctor.report.exit_code == 0
        assert doctor.report.count("crit") == 0
        assert any("unavailable" in s for s in doctor.report.skipped)


class TestStallDetection:
    def test_stalled_trace_trips_convergence_stall(self):
        doctor = diagnose(DoctorInputs(trace=stalled_trace()))
        assert doctor.facts["convergence.stall_levels"] >= 1
        by_rule = {f.rule: f.severity for f in doctor.report.findings}
        assert by_rule["convergence-stall"] == "crit"
        assert doctor.report.exit_code == 1

    def test_converging_trace_is_clean(self):
        doctor = diagnose(DoctorInputs(trace=converging_trace()))
        assert doctor.facts["convergence.stalled_phases"] == 0
        by_rule = {f.rule: f.severity for f in doctor.report.findings}
        assert by_rule["convergence-stall"] == "ok"

    def test_short_phases_never_count_as_stalled(self):
        records = [phase_span("p0")]
        for i in range(3):  # under STALL_MIN_ROUNDS
            records.append(round_span(f"r{i}", "p0", i, moves=20, frontier=30))
        series = trace_series(records)
        assert series["phases"][0]["stalled"] is False

    def test_stats_based_cap_detection(self):
        stats = {
            "levels": [
                {"iterations": 10, "refine_iterations": 2,
                 "frontier_sizes": [30, 28, 29, 30, 28, 30, 29, 28, 30, 29]},
                {"iterations": 3, "refine_iterations": 10,
                 "frontier_sizes": [20, 4, 1]},
            ],
        }
        facts = stats_facts(stats, iteration_cap=10)
        assert facts["convergence.capped_levels"] == 1
        assert facts["convergence.refine_capped_levels"] == 1
        assert facts["convergence.stall_levels"] == 1


class TestRegistryRegression:
    def make_record(self, f, wall=1.0, run_id="r"):
        return {
            "run_id": run_id,
            "workload": {"graph": "karate", "engine": "relaxed"},
            "metrics": {"f_objective": f, "modularity": 0.4,
                        "wall_seconds": wall, "sim_time_seconds": wall},
            "info": {},
        }

    def test_injected_objective_regression_is_crit(self):
        history = [self.make_record(100.0, run_id=f"h{i}") for i in range(5)]
        doctor = diagnose(DoctorInputs(
            record=self.make_record(80.0, run_id="bad"),
            history=history,
        ))
        by_rule = {f.rule: f.severity for f in doctor.report.findings}
        assert by_rule["objective-regression"] == "crit"
        assert doctor.report.exit_code == 1

    def test_matching_objective_passes(self):
        history = [self.make_record(100.0, run_id=f"h{i}") for i in range(5)]
        doctor = diagnose(DoctorInputs(
            record=self.make_record(100.0, run_id="same"),
            history=history,
        ))
        by_rule = {f.rule: f.severity for f in doctor.report.findings}
        assert by_rule["objective-regression"] == "ok"
        assert doctor.report.exit_code == 0


class TestDecomposition:
    def test_per_cluster_f_sums_to_objective(self, karate_run):
        result, _ = karate_run
        graph = karate_club_graph()
        decomposition = cluster_decomposition(
            graph, result.assignments, RESOLUTION
        )
        expected = lambdacc_objective(graph, result.assignments, RESOLUTION)
        assert decomposition["f_total"] == pytest.approx(expected, rel=1e-12)
        assert decomposition["per_cluster_f"].sum() == pytest.approx(
            expected, rel=1e-12
        )

    def test_all_singletons(self):
        graph = karate_club_graph()
        labels = np.arange(graph.num_vertices)
        decomposition = cluster_decomposition(graph, labels, RESOLUTION)
        assert decomposition["singleton_fraction"] == 1.0
        assert decomposition["num_clusters"] == graph.num_vertices
        # Singletons have no intra weight and no pair penalty.
        assert decomposition["f_total"] == pytest.approx(
            lambdacc_objective(graph, labels, RESOLUTION)
        )

    def test_size_histogram_covers_every_cluster(self, karate_run):
        result, _ = karate_run
        decomposition = cluster_decomposition(
            karate_club_graph(), result.assignments, RESOLUTION
        )
        total = sum(b["count"] for b in decomposition["size_histogram"])
        assert total == decomposition["num_clusters"]

    def test_worst_clusters_sorted_ascending(self, karate_run):
        result, _ = karate_run
        decomposition = cluster_decomposition(
            karate_club_graph(), result.assignments, RESOLUTION, top_k=4
        )
        fs = [row["f"] for row in decomposition["worst"]]
        assert fs == sorted(fs)

    def test_singleton_warn_rule_fires(self):
        graph = karate_club_graph()
        labels = np.arange(graph.num_vertices)
        decomposition = cluster_decomposition(graph, labels, RESOLUTION)
        doctor = diagnose(DoctorInputs(decomposition=decomposition))
        by_rule = {f.rule: f.severity for f in doctor.report.findings}
        assert by_rule["singleton-fraction"] == "warn"


class TestFacts:
    def test_dynamic_facts_mapping(self):
        stats = {
            "batches_applied": 3, "moves_applied": 7, "escalations": 1,
            "queries_answered": 12, "last_drift": 2e-7,
            "updates_since_save": 5, "f_objective": 75.0,
            "num_clusters": 4, "updates_applied": {"insert": 5, "delete": 2},
        }
        facts = dynamic_facts(stats)
        assert facts["dynamic.batches"] == 3
        assert facts["dynamic.staleness"] == 5
        assert facts["dynamic.updates"] == 7
        assert facts["run.f_objective"] == 75.0

    def test_trace_stall_merges_with_stats_stall(self):
        stats = {
            "levels": [{"iterations": 10, "refine_iterations": 0,
                        "frontier_sizes": [10] * 10}] * 2,
        }
        inputs = DoctorInputs(
            stats=stats, trace=stalled_trace(), iteration_cap=10
        )
        facts = collect_facts(inputs)
        # stats sees 2 stalled levels, the trace 1 — max wins.
        assert facts["convergence.stall_levels"] == 2
