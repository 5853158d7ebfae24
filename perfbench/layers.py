"""Arithmetic on recorded spans and timing samples.

A span is the tuple written by tracer.py: (id, name, start_ns, end_ns,
parent_id, thread_id, attrs). A layer's self time is its span's duration
minus the union of its children's intervals, clipped to the span; children
on other threads may overlap each other, so they are merged, not summed.
Every ``ns_per_value`` metric divides by the same count, ``gauss_sim.values``
(paths x grid points sampled), so the hot-loop layers add up.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

ESTIMATOR = "estimators."
NS = 1e-9
PERCENTILES = (50, 90, 95, 99, 99.9)


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total, covered_to = 0, None
    for start, end in sorted(intervals):
        if covered_to is None or start > covered_to:
            total += end - start
            covered_to = end
        elif end > covered_to:
            total += end - covered_to
            covered_to = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children[sid] if min(b, t1) > max(a, t0)]
        out[sid] = (t1 - t0) - union_length(clipped)
    return out


def outermost(spans, in_layer) -> list[tuple]:
    """Spans of a layer that have no ancestor in the same layer."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if not in_layer(s[1]):
            continue
        parent = s[4]
        while parent is not None and not in_layer(by_id[parent][1]):
            parent = by_id[parent][4]
        if parent is None:
            out.append(s)
    return out


def path_reuse(batches) -> float:
    """Distinct (seed, stream, n, path index) / paths drawn, over sample() batches."""
    runs = defaultdict(list)
    drawn = 0
    for b in batches:
        runs[(b["seed"], b["stream"], b["n"])].append((b["start"], b["start"] + b["count"]))
        drawn += b["count"]
    distinct = sum(union_length(r) for r in runs.values())
    return distinct / drawn if drawn else math.nan


def summarize(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it.

    Percentiles are nearest-rank: the p-th is the ceil(p/100 * n)-th smallest
    sample, with n minus that rank samples beyond it. ``tail`` is None when no
    percentile in PERCENTILES has ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "tail": None}
    for p in reversed(PERCENTILES):
        rank = max(math.ceil(p / 100 * n), 1)
        if n - rank >= 10:
            out["tail"] = (p, xs[rank - 1])
            break
    return out


def layer_metrics(spans, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced CLI run; ``wall_s`` is that run's wall time."""
    self_ns = self_times(spans)

    def named(name):
        return [s for s in spans if s[1] == name]

    def self_s(name):
        return sum(self_ns[s[0]] for s in named(name)) * NS

    def layer_s(in_layer):
        return sum(s[3] - s[2] for s in outermost(spans, in_layer)) * NS

    batches = [s[6] for s in named("gauss_sim.sample")]
    values = sum(b["count"] * b["n"] for b in batches)
    per_value = (lambda s: s / NS / values) if values else (lambda s: math.nan)
    estimators = outermost(spans, lambda n: n.startswith(ESTIMATOR))
    est_wall = sum(s[3] - s[2] for s in estimators) * NS
    solves = named("optimizer.solve")
    stages = sorted({s[1] for s in spans if s[1].startswith("cli.cmd_")})
    top = [(s[2], s[3]) for s in spans if s[4] is None]

    metrics = {
        "gauss_sim.keystream.ns_per_value": (per_value(self_s("gauss_sim.standard_normals")), "ns"),
        "gauss_sim.ndtri.ns_per_value": (per_value(self_s("gauss_sim.ndtri")), "ns"),
        "gauss_sim.matmul.ns_per_value": (per_value(self_s("gauss_sim.sample")), "ns"),
        "gauss_sim.matmul.flops_computed": (
            float(sum(2 * b["n"] ** 2 * b["count"] for b in batches)), "flop"),
        "gauss_sim.matmul.bytes_computed": (
            float(sum(8 * (2 * b["count"] * b["n"] + b["n"] ** 2) for b in batches)), "B"),
        "gauss_sim.functionals.ns_per_value": (per_value(self_s("gauss_sim.functionals")), "ns"),
        "estimators.reduce.ns_per_value": (
            per_value(sum(self_ns[s[0]] for s in spans if s[1].startswith(ESTIMATOR)) * NS),
            "ns"),
        "gauss_sim.values": (float(values), "count"),
        "estimators.paths_drawn": (float(sum(b["count"] for b in batches)), "count"),
        "estimators.path_reuse": (path_reuse(batches), "ratio"),
        "gauss_sim.parallelism": (
            sum(s[3] - s[2] for s in named("gauss_sim.sample")) * NS / est_wall
            if est_wall else math.nan, "ratio"),
        "optimizer.solve.calls": (float(len(solves)), "count"),
        "optimizer.solve.s": (layer_s(lambda n: n == "optimizer.solve"), "s"),
        "optimizer.solve.iterations": (float(sum(s[6]["iterations"] for s in solves)), "count"),
        "optimizer.solve.reuse": (
            len({s[6]["gram"] for s in solves}) / len(solves) if solves else math.nan, "ratio"),
        "optimizer.certify.calls": (float(len(named("optimizer.certify"))), "count"),
        "optimizer.certify.s": (layer_s(lambda n: n == "optimizer.certify"), "s"),
        "kernels.gram.calls": (float(len(named("kernels.gram"))), "count"),
        "kernels.gram.s": (layer_s(lambda n: n == "kernels.gram"), "s"),
        "gauss_sim.factorize.calls": (float(len(named("gauss_sim.factorize"))), "count"),
        "gauss_sim.factorize.s": (layer_s(lambda n: n == "gauss_sim.factorize"), "s"),
        "linalg.cholesky.calls": (
            float(len(named("linalg.cholesky")) + len(named("linalg.cho_factor"))), "count"),
        "closedform.calls": (
            float(sum(1 for s in spans if s[1].startswith("closedform."))), "count"),
        "closedform.s": (layer_s(lambda n: n.startswith("closedform.")), "s"),
        "measure.s": (layer_s(lambda n: n.startswith("measure.")), "s"),
        "cli.io.s": (layer_s(lambda n: n in ("cli.write_csv", "cli.write_json")), "s"),
        "svgplot.write.s": (layer_s(lambda n: n == "svgplot.write"), "s"),
        "trace.coverage": (union_length(top) * NS / wall_s, "ratio"),
    }
    for stage in stages:
        metrics[f"{stage}.s"] = (layer_s(lambda n, stage=stage: n == stage), "s")
    return metrics
