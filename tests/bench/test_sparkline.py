from repro.bench.sparkline import sparkline


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_extremes_mapped(self):
        line = sparkline([0, 100, 0])
        assert line == "▁█▁"

