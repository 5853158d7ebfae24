"""gaussmin benchmark: run one workload as real CLI commands and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gaussmin checkout. Every CLI command runs in a fresh
child process (child.py) with PYTHONPATH=src and OPENBLAS_NUM_THREADS=1.
``--trace 0`` repeats the command for about S seconds (at least MIN_REPS
times) and prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced commands and prints the per-layer metrics. Outputs are checked
after every command. The last stdout line is the JSON result; the lines
before it are a readable table and the environment record. Scratch files go
to .bench_out/ in the checkout. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_REPS = 3
SETUP_PROBES = 3
RUN_BUDGET_S = 165.0   # every child is killed past this point of the run

END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "path_evals_per_s",
              "time_to_1pct_s")
PER_LAYER = (
    "gauss_sim.keystream.ns_per_value", "gauss_sim.ndtri.ns_per_value",
    "gauss_sim.matmul.ns_per_value", "gauss_sim.matmul.flops_computed",
    "gauss_sim.matmul.bytes_computed", "gauss_sim.functionals.ns_per_value",
    "estimators.reduce.ns_per_value", "gauss_sim.values", "estimators.paths_drawn",
    "estimators.path_reuse", "gauss_sim.parallelism",
    "optimizer.solve.calls", "optimizer.solve.s", "optimizer.solve.iterations",
    "optimizer.solve.reuse", "optimizer.certify.calls", "optimizer.certify.s",
    "kernels.gram.calls", "kernels.gram.s", "gauss_sim.factorize.calls",
    "gauss_sim.factorize.s", "linalg.cholesky.calls", "closedform.calls", "measure.s",
    "cli.io.s", "svgplot.write.s", "cli.bytes_written", "cli.cmd_tail.s",
    "trace.overhead", "trace.coverage",
)

WORKLOADS = {
    "tail_sweep": {
        "argv": ["tail", "--preset", "ou", "--threads", "2"],
        "config": {"n_paths": 500_000},
        "check": checks.check_tail_sweep,
    },
    "fine_grid": {
        "argv": ["tail", "--preset", "example1", "--threads", "1"],
        "config": {"k": 10, "u_list": [3.0], "methods": ["is"], "n_paths": 50_000},
        "check": checks.check_fine_grid,
    },
    "report_full": {
        "argv": ["report", "--preset", "full_repro", "--threads", "1"],
        "config": None,
        "check": checks.check_report_full,
    },
}


class Abort(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(args: list[str], rep_dir: Path, deadline: float) -> dict:
    """Run child.py with ``args`` and wait for it; wall, cpu and peak RSS of that child."""
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(rep_dir / "stdout.txt"), out_flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(rep_dir / "stderr.txt"), out_flags, 0o644)]
    timeout = max(deadline - time.monotonic(), 1.0)
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), *args], child_env(),
                         file_actions=actions)
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:   # SIGTERM or ^C while waiting: take the child down too
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def probe(rep_dir: Path, deadline: float) -> dict:
    """Import gaussmin in a fresh process; Abort when that fails."""
    rep_dir.mkdir(parents=True)
    res = spawn([str(rep_dir / "record.json")], rep_dir, deadline)
    if res["exit"] != 0:
        err = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise Abort(f"cannot import gaussmin from {ROOT / 'src'} (exit {res['exit']}):\n{err}")
    return json.loads((rep_dir / "record.json").read_text())


def run_cli(workload: dict, seed: int, rep_dir: Path, deadline: float,
            traced: bool) -> dict:
    """One CLI command in a fresh child; returns timings, checks and output facts."""
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    argv = [*workload["argv"], "--seed", str(seed), "--out", str(out)]
    if workload["config"] is not None:
        cfg_path = rep_dir / "config.json"
        cfg_path.write_text(json.dumps(workload["config"]), encoding="utf-8")
        argv += ["--config", str(cfg_path)]
    trace_args = ["--trace", str(rep_dir / "spans.json")] if traced else []
    res = spawn([str(rep_dir / "record.json"), *trace_args, "--", *argv], rep_dir, deadline)
    res["traced"] = traced
    res["checks"] = [("command exits 0", res["exit"] == 0, f"exit {res['exit']}")]
    if res["exit"] != 0:
        return res
    res["setup_s"] = json.loads((rep_dir / "record.json").read_text())["setup_s"]
    try:
        res["checks"] += workload["check"](out)
    except (OSError, KeyError, ValueError) as exc:
        res["checks"].append(("outputs readable", False, f"{type(exc).__name__}: {exc}"))
        return res
    res["digest"] = checks.tree_digest(out)
    res["paths"] = checks.paths_requested(out)
    res["rel_stderr"] = checks.worst_is_rel_stderr(out)
    res["bytes_written"] = checks.bytes_in(out)
    if traced:
        spans = [tuple(s) for s in json.loads((rep_dir / "spans.json").read_text())["spans"]]
        res["layers"] = layers.layer_metrics(spans, res["wall_s"])
    return res


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def digest_checks(reps: list[dict], key: str) -> list[tuple[str, bool, str]]:
    """Every command of this run, and every earlier run with the same key, wrote the same bytes."""
    digests = [r["digest"] for r in reps if "digest" in r]
    if not digests:
        return []
    out = [(f"rep {i} tree == rep 0 tree", d == digests[0], d[:16])
           for i, d in enumerate(digests[1:], 1)]
    store = WORK / "digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if key in seen:
        out.append(("tree == earlier run, same seed and source", seen[key] == digests[0],
                    f"{digests[0][:16]} vs {seen[key][:16]}"))
    else:
        seen[key] = digests[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return out


def fmt_summary(samples: list[float]) -> str:
    s = layers.summarize(samples)
    tail = f"p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else "no percentile has 10 beyond"
    return f"median of n={s['n']}; {tail}"


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """Medians over the untraced commands of a run."""
    ok = [r for r in reps if r["exit"] == 0 and "digest" in r]
    if not ok:
        return {}, []
    walls = [r["wall_s"] for r in ok]
    wall = statistics.median(walls)
    paths, rel = ok[0]["paths"][0], ok[0]["rel_stderr"]
    samples = {"wall_s": walls, "setup_s": setups, "cpu_s": [r["cpu_s"] for r in ok],
               "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}
    metrics = {name: (statistics.median(v), "MB" if name == "peak_rss_mb" else "s")
               for name, v in samples.items()}
    metrics["path_evals_per_s"] = (paths / wall, "1/s")
    metrics["time_to_1pct_s"] = (wall * (rel / 0.01) ** 2, "s")
    notes = {name: fmt_summary(v) for name, v in samples.items()}
    notes["path_evals_per_s"] = f"{paths} paths requested / median wall_s"
    notes["time_to_1pct_s"] = f"median wall_s x (worst IS rel_stderr {rel:.5g} / 0.01)^2"
    metrics = {name: metrics[name] for name in END_TO_END}
    lines = [f"  {name:<36} {v:>14.6g} {unit:<6} {notes[name]}"
             for name, (v, unit) in metrics.items()]
    return metrics, lines


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced commands; overhead against the untraced ones."""
    traced = [r for r in reps if r["traced"] and "layers" in r]
    plain = [r for r in reps if not r["traced"] and "digest" in r]
    if not traced or not plain:
        return {}, []
    metrics = {name: (statistics.median(r["layers"][name][0] for r in traced), unit)
               for name, (_, unit) in traced[0]["layers"].items()}
    metrics["cli.bytes_written"] = (float(traced[0]["bytes_written"]), "B")
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0, "ratio")
    lines = [f"  {name:<36} {v:>14.6g} {unit}{'' if name in PER_LAYER else '  (table only)'}"
             for name, (v, unit) in sorted(metrics.items())]
    return {name: metrics[name] for name in PER_LAYER}, lines


def measure(workload: dict, seed: int, run_dir: Path, seconds: float, trace: bool,
            deadline: float) -> list[dict]:
    """CLI commands for about ``seconds``: MIN_REPS or more untraced ones, or
    untraced/traced pairs whose order alternates from pair to pair."""
    reps: list[dict] = []
    t0 = time.monotonic()
    while True:
        i = len(reps)
        traced = trace and (i % 2 == 1) != ((i // 2) % 2 == 1)
        reps.append(run_cli(workload, seed, run_dir / f"rep{i}", deadline, traced))
        if reps[-1]["exit"] != 0:
            return reps
        step = 2 if trace else 1
        if len(reps) % step:
            continue
        elapsed = time.monotonic() - t0
        per_step = elapsed / len(reps) * step
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if (enough and elapsed + per_step > seconds) or time.monotonic() + per_step > deadline:
            return reps


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "gaussmin" / "cli.py").is_file():
        raise Abort(f"no gaussmin source at {ROOT / 'src' / 'gaussmin'}")
    os.chdir(ROOT)
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload]

    record = probe(run_dir / "warmup", deadline)   # also compiles bytecode on a fresh checkout
    setups = [] if args.trace else [
        probe(run_dir / f"setup{i}", deadline)["setup_s"] for i in range(SETUP_PROBES)]
    reps = measure(workload, args.seed, run_dir, args.seconds, bool(args.trace), deadline)
    setups += [r["setup_s"] for r in reps if "setup_s" in r and not r["traced"]]

    src_key = checks.tree_digest(ROOT / "src", skip="__pycache__")
    results = [c for r in reps for c in r["checks"]]
    command = json.dumps([workload["argv"], workload["config"]], sort_keys=True)
    results += digest_checks(reps, f"{command}|seed={args.seed}|src={src_key}")
    failed = [c for c in results if not c[1]]
    metrics, lines = per_layer(reps) if args.trace else end_to_end(reps, setups)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        **record["versions"], "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "source_sha256": src_key,
        "cli_argv": workload["argv"], "cli_config": workload["config"],
        "n_paths": reps[0].get("paths", (None, None))[1],
        "paths_requested_per_command": reps[0].get("paths", (None, None))[0],
        "commands": len(reps),
    }
    (run_dir / "run.json").write_text(json.dumps(
        {"env": env, "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
         "layers": [r["layers"] for r in reps if "layers" in r]},
        indent=1), encoding="utf-8")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} commands "
          f"({'untraced/traced pairs' if args.trace else 'untraced'})")
    print("\n".join(lines))
    print(f"  {'fail_ratio':<36} {len(failed) / len(results):>14.6g} ratio  "
          f"{len(failed)} of {len(results)} checks failed")
    for name, _, detail in failed:
        print(f"  FAILED check: {name} ({detail})")
    result = {"correct": not failed and bool(metrics), "attempted": len(results),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Abort as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
