"""HTML observability report: self-contained, renders every section."""

import re

import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate
from repro.graphs.karate import karate_club_graph
from repro.obs.doctor import DoctorInputs, cluster_decomposition, diagnose
from repro.obs.instrument import Instrumentation
from repro.obs.report import render_report, write_report
from repro.serving import Request, ServingGateway

pytestmark = pytest.mark.obs

RESOLUTION = 0.05


def assert_self_contained(html):
    """No scripts, no external fetches: the ISSUE's report contract."""
    lowered = html.lower()
    assert "<script" not in lowered
    assert not re.search(r'(?:src|href)\s*=\s*["\']https?://', html)
    assert "url(" not in lowered
    assert "@import" not in lowered


@pytest.fixture(scope="module")
def batch_doctor():
    instr = Instrumentation()
    config = ClusteringConfig(resolution=RESOLUTION, seed=3)
    result = cluster(karate_club_graph(), config, RunOptions(instrumentation=instr))
    return diagnose(DoctorInputs(
        stats=result.stats_dict(),
        trace=list(instr.tracer.records),
        metric_samples=instr.metrics.collect(),
        decomposition=cluster_decomposition(
            karate_club_graph(), result.assignments, RESOLUTION
        ),
        iteration_cap=10,
    ))


@pytest.fixture(scope="module")
def update_doctor():
    instr = Instrumentation()
    config = ClusteringConfig(resolution=RESOLUTION, seed=3)
    clusterer = DynamicClusterer.bootstrap(
        karate_club_graph(), config, instrumentation=instr,
        guard=DriftGuard(recompute_every=0, max_frontier_fraction=1.0),
    )
    gateway = ServingGateway(clusterer)
    gateway.serve_read(Request.read(0, "cluster_of", 0), 0.0)
    gateway.stage_write(Request.write(1, EdgeUpdate("insert", 0, 9, 2.0)), 0.0)
    gateway.commit(0.0)
    return diagnose(DoctorInputs(
        trace=list(instr.tracer.records),
        metric_samples=instr.metrics.collect(),
        dynamic_stats=clusterer.stats(),
    ))


class TestBatchReport:
    def test_self_contained(self, batch_doctor):
        assert_self_contained(render_report(batch_doctor))

    def test_sections_present(self, batch_doctor):
        html = render_report(batch_doctor, source="karate")
        for section in ("Findings", "Span waterfall", "Worker lanes",
                        "Quality panels", "Run summary"):
            assert f"<h2>{section}</h2>" in html
        assert "<svg" in html
        assert "karate" in html

    def test_no_nan_coordinates(self, batch_doctor):
        html = render_report(batch_doctor)
        assert "NaN" not in html
        assert "Infinity" not in html

    def test_registry_section_only_with_runs(self, batch_doctor):
        without = render_report(batch_doctor)
        assert "<h2>Registry</h2>" not in without
        record = {
            "run_id": "r1", "workload": {"graph": "karate",
                                         "engine": "relaxed",
                                         "resolution": 0.05},
            "metrics": {"wall_seconds": 0.1, "sim_time_seconds": 0.01,
                        "f_objective": 54.0, "modularity": 0.42},
            "info": {},
        }
        with_runs = render_report(batch_doctor, runs=[record])
        assert "<h2>Registry</h2>" in with_runs
        assert "r1" in with_runs

    def test_write_report(self, batch_doctor, tmp_path):
        out = tmp_path / "report.html"
        write_report(out, batch_doctor, title="test run")
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "test run" in html
        assert_self_contained(html)


class TestUpdateReport:
    def test_self_contained(self, update_doctor):
        assert_self_contained(render_report(update_doctor))

    def test_slo_table_present(self, update_doctor):
        html = render_report(update_doctor)
        assert "<h2>Serving SLOs</h2>" in html
        # Read and commit ops were both exercised.
        assert re.search(r"<td[^>]*>read</td>", html)
        assert re.search(r"<td[^>]*>commit</td>", html)

    def test_findings_chips_are_labeled_not_color_alone(self, update_doctor):
        html = render_report(update_doctor)
        # Status is icon+label per the dataviz contract, never color alone.
        assert "✓ ok<" in html


class TestEmptyInputs:
    def test_report_renders_from_bare_findings(self):
        doctor = diagnose(DoctorInputs(stats={"rounds": 3, "moves": 10}))
        html = render_report(doctor)
        assert_self_contained(html)
        assert "<h2>Findings</h2>" in html
        # Sections without data stay out instead of rendering empty shells.
        assert "<h2>Span waterfall</h2>" not in html
        assert "<h2>Serving SLOs</h2>" not in html
