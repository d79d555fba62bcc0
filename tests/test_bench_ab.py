"""The arithmetic of ``tools/bench_ab.py`` on fixed numbers."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", PATH)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def test_summary_gives_each_metrics_median_and_iqr():
    runs = [{"metrics": {"ops_per_s": v, "peak_rss_mb": m}}
            for v, m in ((3.0, 24.0), (1.0, 25.0), (2.0, 24.0), (4.0, 24.5))]
    assert bench_ab.summary(runs) == {
        "ops_per_s": {"median": 2.5, "iqr": 1.5},
        "peak_rss_mb": {"median": 24.25, "iqr": 0.625}}
    assert bench_ab.summary(runs[:1]) == {
        "ops_per_s": {"median": 3.0, "iqr": 0.0},
        "peak_rss_mb": {"median": 24.0, "iqr": 0.0}}


def test_iqr_reads_the_quartiles_off_the_values():
    # inclusive quartiles of 1..9 are 3 and 7
    assert bench_ab.iqr([float(x) for x in range(9, 0, -1)]) == 4.0
    # of 1, 2, 3, 4: 1.75 and 3.25
    assert bench_ab.iqr([1.0, 2.0, 3.0, 4.0]) == 1.5
    assert bench_ab.iqr([10.0, 10.0]) == 0.0
    assert bench_ab.iqr([5.0]) == 0.0


def test_wins_count_strictly_better_pairs_in_the_metric_direction():
    parent = [100.0, 110.0, 120.0, 130.0]
    change = [101.0, 110.0, 119.0, 140.0]
    assert bench_ab.wins(parent, change, "higher") == 2
    assert bench_ab.wins(parent, change, "lower") == 1
    assert bench_ab.wins([1.0], [1.0], "higher") == 0
    with pytest.raises(ValueError):
        bench_ab.wins(parent, change, "faster")
