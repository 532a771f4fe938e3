import pytest

from repro.bench.harness import (
    ExperimentTable,
    bench_repeats,
    bench_scale,
    geometric_mean,
)


class TestEnvKnobs:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_scale_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_repeats_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "7")
        assert bench_repeats() == 7


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestExperimentTable:
    def test_render(self):
        table = ExperimentTable("Figure X", ["graph", "speedup"])
        table.add_row("amazon", 12.345)
        text = table.render()
        assert "Figure X" in text
        assert "amazon" in text
        assert "12.345" in text

    def test_row_arity_checked(self):
        table = ExperimentTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_float_formatting(self):
        assert ExperimentTable._fmt(0.000123) == "0.000123"
        assert ExperimentTable._fmt(123456.0) == "1.23e+05"
        assert ExperimentTable._fmt(1.5) == "1.5"
        assert ExperimentTable._fmt(0) == "0"

    def test_emit_prints(self, capfd):
        # emit() writes through pytest's sys-level capture to the real
        # stdout so bench tables reach tee'd logs; capture at the fd level.
        table = ExperimentTable("T", ["a"])
        table.add_row(1)
        table.emit()
        assert "== T ==" in capfd.readouterr().out

