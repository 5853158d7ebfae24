"""tools/bench_pairs.py's no-regression verdict, on synthetic runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]   # median 1.0


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert bench_pairs.verdict(TIGHT, [1.3] * 10, "lower", 0.24) == "worse"
    assert bench_pairs.verdict(TIGHT, [0.7] * 10, "higher", 0.24) == "worse"
    # within the bound, either way, on a tight parent
    assert bench_pairs.verdict(TIGHT, [1.2] * 10, "lower", 0.24) == "ok"
    assert bench_pairs.verdict(TIGHT, [0.8] * 10, "higher", 0.24) == "ok"
    assert bench_pairs.verdict(TIGHT, [0.5] * 10, "lower", 0.24) == "ok"


def test_a_wide_parent_is_unresolved_unless_every_change_run_beats_it():
    # quartiles 0.8 and 1.2 around a median of 1.0: an IQR of 0.4 > 0.24
    wide = [0.6, 0.8, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.2, 1.4]
    assert bench_pairs.verdict(wide, wide, "lower", 0.24) == "unresolved"
    assert bench_pairs.verdict(wide, [0.5] * 10, "lower", 0.24) == "ok"
    assert bench_pairs.verdict(wide, [1.5] * 10, "higher", 0.24) == "ok"
    assert bench_pairs.verdict(wide, [0.5] * 9 + [0.6], "lower", 0.24) == "unresolved"
    assert bench_pairs.verdict(wide, wide, "lower", 0.5) == "ok"     # IQR 0.4 <= 0.5
    assert bench_pairs.verdict(wide, [1.3] * 10, "lower", 0.24) == "worse"


def test_verdicts_list_the_worse_and_the_unresolved_metrics():
    wide = [0.6, 0.8, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.2, 1.4]
    runs = {"wall_s": (TIGHT, [1.3] * 10, "lower"), "peak_rss_mb": (wide, wide, "lower"),
            "path_evals_per_s": (TIGHT, TIGHT, "higher")}
    end_to_end = {"tail_sweep": {"metrics": {
        name: bench_pairs.compare(parent, change, better, 0.24)
        for name, (parent, change, better) in runs.items()}}}
    assert [m["verdict"] for m in end_to_end["tail_sweep"]["metrics"].values()] == [
        "worse", "unresolved", "ok"]
    assert bench_pairs.verdicts(end_to_end) == {"worse": ["tail_sweep.wall_s"],
                                                "unresolved": ["tail_sweep.peak_rss_mb"]}
