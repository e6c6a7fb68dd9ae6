"""Smoke test: the example scripts run end to end against this checkout,
without a RuntimeWarning, ResourceWarning or unraisable exception; and the
summary of `scripts/compare_benchmark.py` applies its gain rule to canned
numbers.

Each script runs in this process as `__main__` (`runpy.run_path`), in the
order a reader runs them, so the suite's own warning filters turn those
warnings into errors; each must leave stderr empty.
"""

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_example_scripts_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ZADR_THREADS", "1")
    for script, args in [
        ("make_example_data.py", []),
        ("run_diagnostic_example.py", ["--B", "19"]),
        ("run_simulation_study.py", ["--sizes", "30", "--reps", "2"]),
    ]:
        path = str(SCRIPTS / script)
        monkeypatch.setattr(sys, "argv", [path, *args])
        runpy.run_path(path, run_name="__main__")
        assert capsys.readouterr().err == "", f"{script} wrote to stderr"


def load_compare_benchmark():
    spec = importlib.util.spec_from_file_location("compare_benchmark",
                                                  SCRIPTS / "compare_benchmark.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareBenchmarkSummary:
    """The gain rule on canned pairs: ten or more pairs, nine tenths won,
    medians apart by more than the parent's quartile spread."""

    compare = load_compare_benchmark()
    PARENT = [1.00, 1.02, 0.98, 1.05, 0.95, 1.01, 0.99, 1.03, 0.97, 1.00]

    def test_clear_gain_holds(self):
        s = self.compare.summarize(self.PARENT, [v - 0.2 for v in self.PARENT], "lower")
        assert s["wins"] == 10 and s["pairs"] == 10 and s["gain"]
        assert s["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
        assert s["spread"] == s["parent"][2] - s["parent"][0]

    def test_ties_count_for_neither_side(self):
        change = [v - 0.2 for v in self.PARENT[:8]] + self.PARENT[8:]
        s = self.compare.summarize(self.PARENT, change, "lower")
        assert s["wins"] == 8 and not s["gain"]

    def test_nine_wins_of_ten_suffice(self):
        change = [v - 0.2 for v in self.PARENT[:9]] + [self.PARENT[9] + 0.5]
        assert self.compare.summarize(self.PARENT, change, "lower")["gain"]

    def test_median_gap_within_the_parent_spread_is_no_gain(self):
        # Every pair won, by less than the parent's quartile spread (0.035).
        s = self.compare.summarize(self.PARENT, [v - 0.01 for v in self.PARENT], "lower")
        assert s["wins"] == 10 and not s["gain"]

    def test_fewer_than_ten_pairs_is_no_gain(self):
        s = self.compare.summarize(self.PARENT[:9], [v - 0.2 for v in self.PARENT[:9]], "lower")
        assert s["wins"] == 9 and not s["gain"]

    def test_higher_is_better_flips_the_direction(self):
        s = self.compare.summarize(self.PARENT, [v - 0.2 for v in self.PARENT], "higher")
        assert s["wins"] == 0 and not s["gain"]
        assert self.compare.summarize(self.PARENT, [v + 0.2 for v in self.PARENT],
                                      "higher")["gain"]

    def test_seed_lists(self):
        assert self.compare.parse_seeds("21-23,7") == [21, 22, 23, 7]
