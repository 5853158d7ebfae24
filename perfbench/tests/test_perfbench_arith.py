"""Tests of the benchmark's own arithmetic: self time, timing summary, path reuse, checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def span(sid, name, t0, t1, parent=None, tid=0, attrs=None):
    return (sid, name, t0, t1, parent, tid, attrs)


def test_union_length_merges_overlaps_and_gaps():
    assert layers.union_length([]) == 0
    assert layers.union_length([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26


def test_self_time_when_children_overlap_across_threads():
    spans = [
        span(1, "estimators.tail_is", 0, 100, tid=1),
        span(2, "gauss_sim.sample", 10, 50, parent=1, tid=2),
        span(3, "gauss_sim.sample", 30, 70, parent=1, tid=3),
        span(4, "gauss_sim.sample", 90, 120, parent=1, tid=2),   # runs past the parent
        span(5, "gauss_sim.standard_normals", 15, 45, parent=2, tid=2),
    ]
    self_ns = layers.self_times(spans)
    # children cover [10, 70) and [90, 100) of the parent: 70 of 100 ns
    assert self_ns[1] == 30
    assert self_ns[2] == 40 - 30
    assert self_ns[3] == 40
    assert self_ns[5] == 30


def test_worker_spans_take_the_open_estimator_as_parent():
    tracer = Tracer()
    both_running = threading.Barrier(2, timeout=10)   # so the two thread ids differ
    work = tracer.wrap("gauss_sim.sample", both_running.wait)

    def estimator():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap("estimators.tail_crude", estimator, estimator=True)()
    (est,) = [s for s in tracer.spans if s[1] == "estimators.tail_crude"]
    workers = [s for s in tracer.spans if s[1] == "gauss_sim.sample"]
    assert est[4] is None
    assert len(workers) == 2 and all(s[4] == est[0] for s in workers)
    assert len({s[5] for s in workers} | {est[5]}) == 3


def test_hot_loop_layers_add_up_per_sampled_value():
    batch = {"seed": 1, "stream": 0, "start": 0, "count": 2, "n": 5}
    spans = [
        span(1, "estimators.tail_is", 0, 200),
        span(2, "gauss_sim.sample", 0, 100, parent=1, attrs=batch),
        span(3, "gauss_sim.standard_normals", 0, 60, parent=2),
        span(4, "gauss_sim.ndtri", 20, 50, parent=3, attrs={"values": 10}),
        span(5, "gauss_sim.functionals", 100, 150, parent=1, attrs={"values": 10}),
    ]
    m = layers.layer_metrics(spans, wall_s=400e-9)
    assert m["gauss_sim.values"] == (10.0, "count")
    assert m["gauss_sim.keystream.ns_per_value"][0] == pytest.approx(3.0)
    assert m["gauss_sim.ndtri.ns_per_value"][0] == pytest.approx(3.0)
    assert m["gauss_sim.matmul.ns_per_value"][0] == pytest.approx(4.0)
    assert m["gauss_sim.functionals.ns_per_value"][0] == pytest.approx(5.0)
    assert m["estimators.reduce.ns_per_value"][0] == pytest.approx(5.0)
    assert m["gauss_sim.matmul.flops_computed"][0] == 2 * 25 * 2
    assert m["gauss_sim.parallelism"][0] == pytest.approx(0.5)
    assert m["trace.coverage"][0] == pytest.approx(0.5)


def test_summary_median_and_highest_percentile_with_ten_beyond():
    s = layers.summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0, "tail": None}
    s = layers.summarize(range(1, 101))
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["tail"] == (90, 90)            # 10 samples above the 90th smallest
    assert layers.summarize(range(1, 26))["tail"] == (50, 13)
    assert layers.summarize(range(1, 1001))["tail"] == (99, 990)
    assert layers.summarize(range(1, 20))["tail"] is None


def test_path_reuse_counts_distinct_paths_per_stream_and_grid():
    def b(start, count, stream=0, n=33):
        return {"seed": 7, "stream": stream, "start": start, "count": count, "n": n}

    # ten passes over the same 100 paths
    assert layers.path_reuse([b(s, 50) for _ in range(10) for s in (0, 50)]) == 0.1
    # overlapping ranges, another stream, another grid size
    batches = [b(0, 10), b(5, 10), b(0, 10, stream=1), b(0, 10, n=65)]
    assert layers.path_reuse(batches) == pytest.approx((15 + 10 + 10) / 40)


SUMMARY_HEADER = ('# reproducibility: rerun with this resolved config\n'
                  '# config: {"n_paths":1000000,"seed":1}\n'
                  'u,p_crude,stderr_crude,p_is,stderr_is,agreement_sigmas\n')
SUMMARY_ROWS = [
    "0.0,0.154042,0.00036098900569961963,0.154042,0.0003609891861942578,0.0",
    "1.0,0.015429,0.00012325155560478741,0.015199621469373186,4.20117805373411e-05,1.76",
    "2.0,0.000457,2.137267299614159e-05,0.00044538958688350233,1.647486470507575e-06,0.54",
]


def write_summary(tmp_path, rows):
    (tmp_path / "tail_summary.csv").write_text(SUMMARY_HEADER + "\n".join(rows) + "\n")
    return tmp_path


def test_honest_tail_summary_passes(tmp_path):
    results = checks.check_tail_sweep(write_summary(tmp_path, SUMMARY_ROWS))
    assert len(results) == 4 and all(ok for _, ok, _ in results)


def test_doctored_tail_summary_fails_agreement(tmp_path):
    rows = list(SUMMARY_ROWS)
    rows[1] = "1.0,0.015429,0.00012325155560478741,0.0162,4.20117805373411e-05,1.76"
    failed = [name for name, ok, _ in checks.check_tail_sweep(write_summary(tmp_path, rows))
              if not ok]
    assert failed == ["u=1 crude/is agree"]


def test_u0_identity_is_exact(tmp_path):
    rows = list(SUMMARY_ROWS)
    one_ulp_off = repr(math.nextafter(0.154042, 1.0))
    rows[0] = f"0.0,0.154042,0.00036098900569961963,{one_ulp_off},0.00036,0.0"
    failed = [name for name, ok, _ in checks.check_tail_sweep(write_summary(tmp_path, rows))
              if not ok]
    assert failed == ["u=0 p_is == p_crude"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
