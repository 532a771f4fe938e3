from pathlib import Path

from repro.bench.suites import SUITES

BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks/baselines"


def test_every_committed_baseline_has_exactly_one_suite():
    committed = {
        path.name[len("BENCH_"):-len(".json")]
        for path in BASELINE_DIR.glob("BENCH_*.json")
    }
    assert set(SUITES) == committed
