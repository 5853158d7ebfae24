"""Benchmark a git revision against the working tree in alternating pairs of runs.

Usage: python tools/bench_pairs.py OUT.json [--parent REV] [--workloads W ...]
           [--pairs 10] [--seconds 30] [--first-seed 3301]
           [--claim-workload W --claim-metric M] [--description TEXT]

Copies REV's files (``git archive``, default HEAD) and the working tree's
(``git ls-files``: tracked and untracked files that .gitignore does not
name, uncommitted changes included) into two temporary directories. Then,
for each workload of BENCHMARK.json (or those named), it runs ``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each copy
with OPENBLAS_NUM_THREADS=1, ``--pairs`` times with seeds S = first-seed,
first-seed + 1, ...: the parent first in even pairs and the change first in
odd ones. Every result line is parsed by json.loads with a parse_constant
that raises on NaN or Infinity. OUT.json gets, per workload and end-to-end
metric of BENCHMARK.json, each side's runs, median and quartiles
(statistics.quantiles(n=4, method="inclusive")), the number of pairs the
change wins and the relative change of the medians; with --claim-metric, the
claim rule of the benchmark: the change wins at least 9 of 10 pairs and the
medians differ by more than the parent's interquartile range. The
temporary directories are removed either way.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def export_working_tree(dest: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():   # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def source_digest(copy: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((copy / "src").rglob("*.py")):
        digest.update(path.relative_to(copy).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def hardware() -> dict:
    import numpy
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    return {"cpu_model": models[0] if models else platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "OPENBLAS_NUM_THREADS": "1"}


def _no_constant(name: str):
    raise ValueError(f"{name} in a result line")


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=copy, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    result = json.loads(res.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    result["exit_code"] = res.returncode
    return result


def summarize(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent": summarize(parent), "change": summarize(change),
            "change_better_in": f"{wins} of {len(parent)}", "wins": wins,
            "median_relative_change": (c_med - p_med) / p_med if p_med else None,
            "parent_runs": parent, "change_runs": change}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, default=3301)
    ap.add_argument("--claim-workload")
    ap.add_argument("--claim-metric")
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    parent_rev = _git("rev-parse", "--short", args.parent).decode().strip()
    doc = {
        "description": args.description,
        "command": (f"python tools/bench_pairs.py {args.out.name} --parent {args.parent} "
                    f"--pairs {args.pairs} --seconds {args.seconds:g} "
                    f"--first-seed {args.first_seed}: perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0 in a copy of each side, "
                    "OPENBLAS_NUM_THREADS=1, the parent first in even pairs"),
        "parent": parent_rev,
        "hardware": hardware(),
        "end_to_end": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for copy in copies.values():
            copy.mkdir()
        export_revision(args.parent, copies["parent"])
        export_working_tree(copies["change"])
        doc["source_sha256"] = {side: source_digest(copy) for side, copy in copies.items()}
        for workload in workloads:
            results = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(run_once(copies[side], workload, seed, args.seconds))
                print(f"{workload} pair {i + 1}/{len(seeds)}: " + ", ".join(
                    f"{side} {results[side][-1]['metrics']['wall_s']['value']:.4f} s"
                    for side in ("parent", "change")), flush=True)
            entry = {
                "pairs": len(seeds), "seeds": seeds,
                "checks": {side: {"attempted": sum(r["attempted"] for r in rs),
                                  "failed": sum(r["failed"] for r in rs),
                                  "correct": all(r["correct"] for r in rs)}
                           for side, rs in results.items()},
                "exit_codes": sorted({r["exit_code"] for rs in results.values() for r in rs}),
                "metrics": {},
            }
            for name, spec in metrics.items():
                parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                                  for side in ("parent", "change"))
                entry["metrics"][name] = {"bound": spec["bound"], "better": spec["better"],
                                          **compare(parent, change, spec["better"])}
            doc["end_to_end"][workload] = entry
    if args.claim_metric:
        claimed = doc["end_to_end"][args.claim_workload]["metrics"][args.claim_metric]
        parent_iqr = claimed["parent"]["q3"] - claimed["parent"]["q1"]
        gap = abs(claimed["change"]["median"] - claimed["parent"]["median"])
        doc["claim"] = {
            "workload": args.claim_workload, "metric": args.claim_metric,
            "rule": "the change wins at least 9 of 10 pairs and the medians differ by more "
                    "than the parent's interquartile range",
            "wins": claimed["change_better_in"], "median_gap": gap, "parent_iqr": parent_iqr,
            "holds": claimed["wins"] >= 0.9 * args.pairs and gap > parent_iqr,
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
