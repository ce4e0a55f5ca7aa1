"""scripts/bench_pairs.py: the WORSE, GAIN and unresolved flags of
``compare``, on which every committed BENCH_*.json verdict rests."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "latency_us.p50", "unit": "us", "better": "lower",
         "bound": 0.25}
HIGHER = {"name": "throughput_ops", "unit": "1/s", "better": "higher",
          "bound": 0.25}
BOTH = pytest.mark.parametrize("metric", [LOWER, HIGHER],
                               ids=["lower", "higher"])

# median 100, inclusive quartiles 98.25 and 101.75: a spread of 3.5
BASE = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]
# median 100, quartiles 75 and 125: a spread of half the median
WIDE = [50, 60, 70, 90, 100, 100, 110, 130, 140, 150]


def moved(metric, base, frac):
    """Each value made worse by frac (better when frac < 0)."""
    s = 1 if metric["better"] == "lower" else -1
    return [v * (1 + s * frac) for v in base]


def flags(metric, base, change):
    return bench_pairs.compare(metric, base, change)["flags"]


@BOTH
class TestWorse:
    def test_median_worse_by_more_than_the_bound(self, metric):
        assert "WORSE" in flags(metric, BASE, moved(metric, BASE, 0.30))

    def test_median_worse_within_the_bound(self, metric):
        assert "WORSE" not in flags(metric, BASE, moved(metric, BASE, 0.20))

    def test_better_median(self, metric):
        assert "WORSE" not in flags(metric, BASE, moved(metric, BASE, -0.30))

    def test_a_few_far_worse_pairs_leave_the_median_within_the_bound(
            self, metric):
        change = moved(metric, BASE[:3], 0.9) + BASE[3:]
        assert "WORSE" not in flags(metric, BASE, change)


@BOTH
class TestGain:
    def test_ten_of_ten_wins_beyond_the_spread(self, metric):
        row = bench_pairs.compare(metric, BASE, moved(metric, BASE, -0.10))
        assert (row["wins"], row["flags"]) == (10, ["GAIN"])

    def test_nine_of_ten_wins_beyond_the_spread(self, metric):
        change = moved(metric, BASE[:1], 0.01) + moved(metric, BASE[1:], -0.10)
        row = bench_pairs.compare(metric, BASE, change)
        assert (row["wins"], row["flags"]) == (9, ["GAIN"])

    def test_nine_of_ten_wins_within_the_spread(self, metric):
        change = moved(metric, BASE[:1], 0.01) + moved(metric, BASE[1:], -0.02)
        row = bench_pairs.compare(metric, BASE, change)
        assert (row["wins"], row["flags"]) == (9, [])

    def test_eight_of_ten_wins(self, metric):
        change = moved(metric, BASE[:2], 0.01) + moved(metric, BASE[2:], -0.10)
        row = bench_pairs.compare(metric, BASE, change)
        assert (row["wins"], row["flags"]) == (8, [])

    def test_fewer_than_ten_pairs(self, metric):
        base = BASE[:9]
        row = bench_pairs.compare(metric, base, moved(metric, base, -0.10))
        assert (row["wins"], row["flags"]) == (9, [])


@BOTH
class TestUnresolved:
    def test_base_spread_beyond_the_bound(self, metric):
        assert flags(metric, WIDE, WIDE) == ["unresolved"]

    def test_base_spread_within_the_bound(self, metric):
        assert flags(metric, BASE, BASE) == []


def test_direction_flips_every_verdict():
    up, down = moved(LOWER, BASE, 0.30), moved(LOWER, BASE, -0.30)
    assert flags(LOWER, BASE, up) == ["WORSE"]
    assert flags(HIGHER, BASE, up) == ["GAIN"]
    assert flags(LOWER, BASE, down) == ["GAIN"]
    assert flags(HIGHER, BASE, down) == ["WORSE"]
