"""Instrumentation threading: engines, driver, resilience, no-op path."""

import numpy as np
import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.core.engines import ENGINES
from repro.obs.instrument import (
    M_COMPRESSION,
    M_FRONTIER,
    M_MOVES,
    M_RESILIENCE_EVENTS,
    M_ROUND_GAIN,
    M_ROUNDS,
    NULL_INSTRUMENTATION,
    Instrumentation,
    instr_of,
)
from repro.obs.schema import validate_trace_records
from repro.obs.tracer import NULL_SPAN, span_tree
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience import ResiliencePolicy, RunBudget


def test_instr_of_defaults_to_disabled_null():
    assert instr_of(None) is NULL_INSTRUMENTATION
    assert instr_of(SimulatedScheduler(num_workers=4)) is NULL_INSTRUMENTATION
    assert not NULL_INSTRUMENTATION.enabled


def test_disabled_instrumentation_records_nothing():
    instr = Instrumentation(enabled=False)
    assert instr.span("run") is NULL_SPAN
    instr.event("e")
    instr.count(M_MOVES, 5, engine="relaxed")
    instr.observe(M_ROUND_GAIN, 1.0)
    instr.set_gauge("g", 1.0)
    instr.record_round("relaxed", 10, 5, 1.0)
    assert instr.tracer.records == []
    assert instr.metrics.collect() == []


def test_disabled_run_identical_to_uninstrumented(karate):
    config = ClusteringConfig(resolution=0.05, seed=3)
    plain = cluster(karate, config)
    shadowed = cluster(
        karate, config, RunOptions(instrumentation=Instrumentation(enabled=False))
    )
    assert np.array_equal(plain.assignments, shadowed.assignments)
    assert plain.sim_time() == shadowed.sim_time()


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_emits_moves_and_gains(karate, engine):
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3)
    result = cluster(karate, config, RunOptions(instrumentation=instr, engine=engine))
    assert result.num_clusters > 1

    moves = instr.metrics.get(M_MOVES)
    rounds = instr.metrics.get(M_ROUNDS)
    gains = instr.metrics.get(M_ROUND_GAIN)
    assert moves.value(engine=engine) > 0
    assert moves.value(engine=engine) == result.stats.total_moves
    assert rounds.value(engine=engine) == result.rounds
    assert gains.sum(engine=engine) > 0
    assert instr.metrics.get(M_FRONTIER).count(engine=engine) == result.rounds
    assert instr.metrics.get(M_COMPRESSION).total_count() >= 1

    assert validate_trace_records(instr.tracer.records) == []


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_trace_agrees_with_result_stats(karate, engine):
    """The trace's round spans and ClusterResult.stats tell one story."""
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3)
    result = cluster(karate, config, RunOptions(instrumentation=instr, engine=engine))

    (root,) = span_tree(instr.tracer.records)
    assert root.name == "run"
    rounds = [n for n in root.walk() if n.name == "round"]
    levels = [n for n in root.walk() if n.name == "level"]
    assert len(rounds) == result.rounds
    assert len(levels) == result.num_levels
    assert (
        sum(n.record["attrs"]["moves"] for n in rounds)
        == result.stats.total_moves
    )
    assert root.record["attrs"]["rounds"] == result.rounds
    assert root.record["attrs"]["moves"] == result.stats.total_moves
    assert root.record["attrs"]["clusters"] == result.num_clusters
    assert root.record["attrs"]["objective"] == pytest.approx(result.objective)

    # Per-level frontier history matches the level's round spans.
    for level_node, level_stats in zip(levels, result.stats.levels):
        level_rounds = [
            n for n in level_node.walk()
            if n.name == "round"
        ]
        assert [
            n.record["attrs"]["frontier"] for n in level_rounds
        ] == [int(x) for x in level_stats.frontier_sizes]
        assert level_stats.wall_seconds > 0.0

    summary = result.stats_dict()
    assert summary["rounds"] == result.rounds
    assert summary["levels_wall_seconds"] > 0.0
    assert len(summary["levels"]) == result.num_levels


def test_phase_spans_cover_the_taxonomy(karate):
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3)
    cluster(karate, config, RunOptions(instrumentation=instr))
    (root,) = span_tree(instr.tracer.records)
    phases = {
        n.record["attrs"]["phase"]
        for n in root.walk()
        if n.name == "phase"
    }
    assert {"best-moves", "compress", "flatten", "refine"} <= phases


def test_resilience_events_land_in_trace_and_metrics(karate):
    instr = Instrumentation()
    config = ClusteringConfig(resolution=0.05, seed=3)
    policy = ResiliencePolicy(budget=RunBudget(max_rounds=1))
    result = cluster(
        karate, config, RunOptions(resilience=policy, instrumentation=instr)
    )
    assert result.degraded
    assert result.failure_log

    events = [
        r for r in instr.tracer.event_records() if r["name"] == "resilience"
    ]
    kinds = {e["attrs"]["kind"] for e in events}
    assert "budget-stop" in kinds
    # Every failure_log line has a matching trace event message.
    messages = {e["attrs"]["message"] for e in events}
    assert set(result.failure_log) <= messages
    counter = instr.metrics.get(M_RESILIENCE_EVENTS)
    assert counter.value(kind="budget-stop") >= 1
    assert validate_trace_records(instr.tracer.records) == []
