"""Command-line front door.

Subcommands: solve | analytic | tail | argmin | smallball | diagnose | report.
Configs are JSON; a "preset" key (or --preset) expands a named study so the
whole reproduction is one command. Every output embeds the fully resolved
config, outputs carry no timestamps, and all sampling is counter-addressed,
so reruns with the same config are byte-identical at any thread count.

Exit codes: 0 success, 2 numerical or statistical failure, 3 config/usage
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .closedform import ou_measure, ou_sigma_star_sq, sigma_star_from_mu, tbm_measure
from .estimators import (ESS_WARN_THRESHOLD, Problem, argmin_conditional,
                         correction_diagnostic, mx_conditional, small_ball, tail_crude,
                         tail_is)
from .exceptions import ConfigError, EstimationError, GaussminError
# factorize, certify and solve_simplex_qp stay importable here for perfbench/tracer.py
from .gauss_sim import DEFAULT_BATCH, SamplerConfig, factorize, sample  # noqa: F401
from .grids import MAX_LEVEL, DyadicGrid, Grid
from .kernels import (ExplicitGram, Kernel, ModulatedBrownian, OrnsteinUhlenbeck,
                      PowerExponential, PowerScale, ScaleFunction, ShiftedRootScale,
                      TabulatedScale)
from .measure import GridMeasure, MixedMeasure, discretize, normalize, tv_distance
from .optimizer import certify, refine, solve_simplex_qp  # noqa: F401
from .svgplot import Plot

DEFAULT_SEED = 12345
DEFAULT_N_PATHS = 100_000
PATH_DUMP_CAP = 10_000

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


PRESETS: dict[str, dict] = {
    "ou": {
        "kernel": {"type": "ou"},
        "interval": [0.0, 1.0],
        "k": 5, "k_min": 2, "k_max": 8,
        "u_list": [0.0, 0.5, 1.0, 1.5, 2.0],
        "argmin_u_list": [1.0, 2.0, 3.0],
        "eps_list": [0.5, 0.4, 0.3],
        "x_list": [1.0, 0.5, 0.25],
        "overrides": {
            "diagnose": {"k": 6, "u_list": [2.0, 2.5, 3.0, 3.5, 4.0]},
            "tail": {"k": 5},
        },
    },
    "example1": {
        "kernel": {"type": "modulated_bm", "g": {"power": 0.5}},
        "interval": [1.0, 4.0],
        "k": 6, "k_min": 2, "k_max": 8,
        "u_list": [0.0, 0.5, 1.0, 1.5, 2.0],
        "argmin_u_list": [1.0, 2.0, 3.0],
        "beta": 0.5,
        "overrides": {
            "diagnose": {"interval": [1.0, 2.0], "k": 6,
                         "u_list": [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]},
        },
    },
    "example2": {
        "kernel": {"type": "modulated_bm", "g": {"shifted_root": 1.0}},
        "interval": [1.5, 4.0],
        "k": 6, "k_min": 2, "k_max": 8,
        "u_list": [0.0, 1.0, 2.0],
        "argmin_u_list": [1.0, 2.0],
    },
    "full_repro": {
        "studies": [
            {"name": "ou", "preset": "ou", "n_paths": 50_000,
             "x_list": [1.0, 0.5],
             "diagnose_u_list": [2.0, 2.5, 3.0, 3.5, 4.0], "diagnose_k": 6},
            {"name": "example1", "preset": "example1", "n_paths": 50_000,
             "diagnose_u_list": [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
             "diagnose_interval": [1.0, 2.0], "diagnose_k": 6},
            {"name": "example2", "preset": "example2", "n_paths": 50_000},
        ],
    },
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    out.update({k: v for k, v in extra.items() if v is not None})
    return out


def resolve_config(command: str, file_config: dict | None, preset: str | None,
                   seed: int | None, threads: int | None) -> dict:
    """Preset defaults, then file config, then CLI flag overrides."""
    cfg: dict = {}
    file_config = dict(file_config or {})
    preset = file_config.pop("preset", preset) if "preset" in file_config else preset
    if preset is not None:
        _require(preset in PRESETS, f"unknown preset {preset!r}; "
                 f"choose from {sorted(PRESETS)}")
        p = dict(PRESETS[preset])
        overrides = p.pop("overrides", {})
        cfg = _merge(p, overrides.get(command, {}))
    cfg = _merge(cfg, file_config)
    if seed is not None:
        cfg["seed"] = seed
    if threads is not None:
        cfg["threads"] = threads
    cfg.setdefault("seed", DEFAULT_SEED)
    cfg.setdefault("threads", 1)
    cfg.setdefault("n_paths", DEFAULT_N_PATHS)
    cfg["command"] = command
    return cfg


def build_scale(gcfg: dict) -> ScaleFunction:
    _require(isinstance(gcfg, dict), "modulated_bm needs a 'g' object")
    if "power" in gcfg:
        return PowerScale(float(gcfg["power"]))
    if "shifted_root" in gcfg:
        return ShiftedRootScale(float(gcfg["shifted_root"]))
    if "tabulated" in gcfg:
        t = gcfg["tabulated"]
        for key in ("x", "g", "dg", "d2g"):
            _require(key in t, f"tabulated scale needs '{key}'")
        return TabulatedScale(np.asarray(t["x"], float), np.asarray(t["g"], float),
                              np.asarray(t["dg"], float), np.asarray(t["d2g"], float))
    raise ConfigError("scale 'g' must contain 'power', 'shifted_root' or 'tabulated'")


def build_kernel(cfg: dict) -> Kernel:
    kcfg = cfg.get("kernel")
    _require(isinstance(kcfg, dict) and "type" in kcfg, "config needs kernel.type")
    ktype = kcfg["type"]
    if ktype == "ou":
        return OrnsteinUhlenbeck()
    if ktype == "power_exponential":
        _require("alpha" in kcfg, "power_exponential needs 'alpha'")
        return PowerExponential(float(kcfg["alpha"]))
    if ktype == "modulated_bm":
        interval = cfg.get("interval")
        _require(isinstance(interval, (list, tuple)) and len(interval) == 2,
                 "modulated_bm needs interval [a, b]")
        return ModulatedBrownian(build_scale(kcfg.get("g", {})),
                                 float(interval[0]), float(interval[1]))
    if ktype == "explicit":
        _require("matrix" in kcfg, "explicit kernel needs 'matrix'")
        matrix = np.asarray(kcfg["matrix"], dtype=float)
        points = (np.asarray(kcfg["points"], dtype=float) if "points" in kcfg
                  else np.arange(matrix.shape[0], dtype=float))
        return ExplicitGram(matrix, points)
    raise ConfigError(f"unknown kernel type {ktype!r}")


def resolve_grid(cfg: dict, kernel: Kernel, k_key: str = "k") -> Grid:
    if isinstance(kernel, ExplicitGram):
        return kernel.grid()
    interval = cfg.get("interval")
    _require(isinstance(interval, (list, tuple)) and len(interval) == 2,
             "config needs interval [a, b]")
    k = cfg.get(k_key, 5)
    _require(isinstance(k, int) and 0 <= k <= MAX_LEVEL,
             f"'{k_key}' must be an integer in [0, {MAX_LEVEL}]")
    return DyadicGrid(float(interval[0]), float(interval[1]), k)


def sampler_config(cfg: dict, stream: int = 0) -> SamplerConfig:
    n = int(cfg.get("n_paths", DEFAULT_N_PATHS))
    return SamplerConfig(seed=int(cfg["seed"]), n_paths=n,
                         batch_size=int(cfg.get("batch_size", DEFAULT_BATCH)),
                         stream=int(cfg.get("stream", stream)),
                         workers=int(cfg.get("threads", 1)))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _repro_config(cfg: dict) -> dict:
    # Worker count never changes results (determinism contract), so it is
    # excluded to keep reruns byte-identical across --threads settings.
    return {k: v for k, v in cfg.items() if k != "threads"}


def _config_line(cfg: dict) -> str:
    return json.dumps(_repro_config(cfg), sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, cfg: dict, columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# reproducibility: rerun with this resolved config\n")
        fh.write(f"# config: {_config_line(cfg)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_json(path: Path, cfg: dict, payload: dict) -> None:
    doc = {"config": _repro_config(cfg), **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _measure_rows(m: GridMeasure) -> list[tuple]:
    return list(zip(m.grid.points.tolist(), m.weights.tolist()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict, out: Path) -> int:
    kernel = build_kernel(cfg)
    if isinstance(kernel, ExplicitGram):
        trace = refine(kernel, (0.0, 1.0), 0, 0)
    else:
        interval = cfg.get("interval")
        _require(interval is not None, "solve needs interval [a, b]")
        k_min, k_max = int(cfg.get("k_min", 2)), int(cfg.get("k_max", 8))
        trace = refine(kernel, (float(interval[0]), float(interval[1])), k_min, k_max,
                       stop_tol=float(cfg.get("stop_tol", 1e-6)))
    final = trace.final
    report = trace.problem.solution.report
    write_csv(out / "weights.csv", cfg, ["point", "weight"], _measure_rows(final.measure))
    write_csv(out / "trace.csv", cfg, ["k", "n_points", "sigma_star_sq"],
              [(e.k, e.measure.grid.points.size, e.sigma_star_sq) for e in trace.entries])
    write_json(out / "solution.json", cfg, {
        "sigma_star_sq": final.sigma_star_sq,
        "weights_csv_path": "weights.csv",
        "certificate": {"min_slack": report.min_slack,
                        "max_support_violation": report.max_support_violation,
                        "passed": report.passed},
        "k_final": final.k,
        "converged": trace.converged,
        # a single level has no gap; inf is not valid JSON
        "final_gap": trace.final_gap if math.isfinite(trace.final_gap) else None,
    })
    plot = Plot("refinement of sigma*^2 over dyadic levels", "level k", "sigma*^2_k")
    plot.add([e.k for e in trace.entries], [e.sigma_star_sq for e in trace.entries],
             mode="both")
    plot.write(out / "refinement.svg")
    return EXIT_OK


def _analytic_measure(cfg: dict) -> tuple[MixedMeasure, Kernel, dict]:
    kcfg = cfg.get("kernel", {})
    ktype = kcfg.get("type")
    _require(ktype in ("ou", "modulated_bm"),
             "analytic supports kernel types 'ou' and 'modulated_bm'")
    interval = cfg.get("interval")
    _require(isinstance(interval, (list, tuple)) and len(interval) == 2,
             "analytic needs interval [a, b]")
    a, b = float(interval[0]), float(interval[1])
    if ktype == "ou":
        measure = ou_measure(a, b)
        return measure, OrnsteinUhlenbeck(), {
            "case": None, "a0": None,
            "total_mass": measure.total_mass,
            "sigma_star_sq": ou_sigma_star_sq(a, b),
        }
    kernel = ModulatedBrownian(build_scale(kcfg.get("g", {})), a, b)
    result = tbm_measure(kernel.scale, a, b)
    sigma_sq = sigma_star_from_mu(kernel, result.measure)
    return result.measure, kernel, {
        "case": result.case, "a0": result.a0,
        "total_mass": result.measure.total_mass,
        "sigma_star_sq": sigma_sq,
    }


def cmd_analytic(cfg: dict, out: Path) -> int:
    measure, kernel, info = _analytic_measure(cfg)
    payload = {"measure": measure.to_dict(), **info}
    probability = normalize(measure)
    if cfg.get("cross_check", True):
        k = int(cfg.get("k", 8))
        a, b = measure.interval
        grid = DyadicGrid(a, b, k)
        sol = Problem(kernel, grid).solution
        disc = discretize(probability, grid)
        payload["cross_check"] = {
            "k": k,
            "solver_sigma_star_sq": sol.sigma_star_sq,
            "sigma_diff": abs(sol.sigma_star_sq - info["sigma_star_sq"]),
            "tv_distance": tv_distance(sol.measure, disc),
        }
        write_csv(out / "measure.csv", cfg, ["point", "weight"], _measure_rows(disc))
    write_json(out / "analytic.json", cfg, payload)
    return EXIT_OK


def _u_values(cfg: dict) -> list[float]:
    if "u_list" in cfg:
        us = [float(u) for u in cfg["u_list"]]
    elif "u" in cfg:
        us = [float(cfg["u"])]
    else:
        raise ConfigError("config needs 'u' or 'u_list'")
    _require(len(us) >= 1, "empty u list")
    return us


def cmd_tail(cfg: dict, out: Path) -> int:
    kernel = build_kernel(cfg)
    grid = resolve_grid(cfg, kernel)
    us = _u_values(cfg)
    methods = cfg.get("methods", ["crude", "is"])
    _require(set(methods) <= {"crude", "is"} and methods, "methods must be crude and/or is")
    problem = Problem(kernel, grid)
    s2 = problem.solution.sigma_star_sq
    config = sampler_config(cfg)
    if cfg.get("dump_paths"):
        n_dump = min(int(cfg["dump_paths"]), config.n_paths, PATH_DUMP_CAP)
        batch = sample(problem.factor, grid, config, start=0, count=n_dump)
        write_csv(out / "paths.csv", cfg,
                  [f"x{i}" for i in range(grid.points.size)],
                  [tuple(row) for row in batch.values])
    rows: dict[str, list] = {"crude": [], "is": []}
    estimates: dict[str, list] = {"crude": [], "is": []}
    for u in us:
        if "crude" in methods:
            e = tail_crude(problem, u, config)
            estimates["crude"].append(e)
            rows["crude"].append((u, e.value, e.stderr, e.log_value,
                                  e.log_value + u * u / (2 * s2)))
        if "is" in methods:
            e = tail_is(problem, u, config)
            estimates["is"].append(e)
            rows["is"].append((u, e.value, e.stderr, e.log_value,
                               e.log_value + u * u / (2 * s2)))
    for method in methods:
        write_csv(out / f"tail_{method}.csv", cfg,
                  ["u", "p_hat", "stderr", "log_p", "D_u"], rows[method])
    plot = Plot("tail of the grid minimum", "u", "log P(min > u)")
    if set(methods) == {"crude", "is"}:
        summary = []
        for u, ec, ei in zip(us, estimates["crude"], estimates["is"]):
            comb = math.hypot(ec.stderr, ei.stderr)
            agreement = abs(ec.value - ei.value) / comb if comb > 0 else 0.0
            summary.append((u, ec.value, ec.stderr, ei.value, ei.stderr, agreement))
        write_csv(out / "tail_summary.csv", cfg,
                  ["u", "p_crude", "stderr_crude", "p_is", "stderr_is",
                   "agreement_sigmas"], summary)
    for method in methods:
        pts = [(u, r[3]) for u, r in zip(us, rows[method]) if math.isfinite(r[3])]
        if pts:
            plot.add([p[0] for p in pts], [p[1] for p in pts], label=method, mode="both")
    plot.write(out / "tail.svg")
    if "crude" in methods and all(e.meta["hits"] == 0 for e in estimates["crude"]):
        print("tail_crude recorded zero hits at every u; use the change-of-measure "
              "estimator for this range", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_smallball(cfg: dict, out: Path) -> int:
    kernel = build_kernel(cfg)
    grid = resolve_grid(cfg, kernel)
    eps_list = [float(e) for e in cfg.get("eps_list", [])] or None
    _require(eps_list is not None, "smallball needs 'eps_list'")
    mode = cfg.get("mode", "range")
    _require(mode in ("range", "zstar"), "mode must be 'range' or 'zstar'")
    problem = Problem(kernel, grid)
    config = sampler_config(cfg)
    rows = []
    for eps in eps_list:
        e = small_ball(problem, eps, config, mode=mode)
        rows.append((eps, e.value, e.stderr, e.log_value, e.meta["hits"]))
    write_csv(out / "smallball.csv", cfg, ["eps", "p_hat", "stderr", "log_p", "hits"], rows)
    plot = Plot(f"small-ball probability ({mode} mode)", "eps", "p_hat")
    plot.add([r[0] for r in rows], [r[1] for r in rows], mode="both")
    plot.write(out / "smallball.svg")
    return EXIT_OK


def cmd_argmin(cfg: dict, out: Path) -> int:
    kernel = build_kernel(cfg)
    grid = resolve_grid(cfg, kernel)
    us = [float(u) for u in cfg.get("argmin_u_list", [])] or _u_values(cfg)
    problem = Problem(kernel, grid)
    solution = problem.solution
    config = sampler_config(cfg)
    summary = {}
    warnings: list[str] = []
    plot = Plot("conditional argmin law vs optimal measure", "t", "weight")
    plot.add(grid.points.tolist(), solution.measure.weights.tolist(),
             label="optimal measure", mode="line")
    for u in us:
        try:
            hist, ess = argmin_conditional(problem, u, config)
        except EstimationError as exc:
            summary[f"u={u:g}"] = {"failed": str(exc)}
            warnings.append(f"u={u:g}: {exc}")
            continue
        write_csv(out / f"argmin_u{u:g}.csv", cfg, ["point", "weight"],
                  _measure_rows(hist))
        summary[f"u={u:g}"] = {"ess": ess,
                               "tv_to_optimal": tv_distance(hist, solution.measure)}
        plot.add(grid.points.tolist(), hist.weights.tolist(), label=f"u={u:g}", mode="dots")
        if ess < ESS_WARN_THRESHOLD:
            warnings.append(f"u={u:g}: effective sample size {ess:.1f} < "
                            f"{ESS_WARN_THRESHOLD:g}; histogram is noise-dominated")
    for x in [float(x) for x in cfg.get("x_list", [])]:
        try:
            hist = mx_conditional(problem, x, config)
        except EstimationError as exc:
            summary[f"x={x:g}"] = {"failed": str(exc)}
            warnings.append(f"x={x:g}: {exc}")
            continue
        write_csv(out / f"mx_x{x:g}.csv", cfg, ["point", "weight"], _measure_rows(hist))
        summary[f"x={x:g}"] = {"tv_to_optimal": tv_distance(hist, solution.measure)}
    write_json(out / "argmin.json", cfg, {
        "sigma_star_sq": solution.sigma_star_sq,
        "results": summary,
        "ess_threshold": ESS_WARN_THRESHOLD,
    })
    plot.write(out / "argmin.svg")
    if warnings:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_diagnose(cfg: dict, out: Path) -> int:
    local = dict(cfg)
    if "diagnose_interval" in cfg:
        local["interval"] = cfg["diagnose_interval"]
    if "diagnose_k" in cfg:
        local["k"] = cfg["diagnose_k"]
    if "diagnose_u_list" in cfg:
        local["u_list"] = cfg["diagnose_u_list"]
    kernel = build_kernel(local)
    grid = resolve_grid(local, kernel)
    us = _u_values(local)
    _require(len(us) >= 2, "diagnose needs at least two u values")
    problem = Problem(kernel, grid)
    config = sampler_config(local)
    beta = cfg.get("beta")
    diag = correction_diagnostic(problem, us, config,
                                 beta=float(beta) if beta is not None else None)
    rows = [(u, est.value, est.stderr, lp, d)
            for (u, lp, d), est in zip(diag.rows, diag.estimates)]
    write_csv(out / "diagnose.csv", cfg, ["u", "p_hat", "stderr", "log_p", "D_u"], rows)
    write_json(out / "diagnose.json", cfg, {
        "exponent": diag.exponent,
        "intercept": diag.intercept,
        "exponent_halfwidth": diag.exponent_halfwidth,
        "excluded_u": list(diag.excluded),
        "beta": diag.beta,
        "lower_bound_exponent": diag.lower_bound_exponent,
        "sigma_star_sq": problem.solution.sigma_star_sq,
        "rows": [{"u": u, "log_p": lp, "D": d} for u, lp, d in diag.rows],
    })
    plot = Plot("second-order tail correction -D(u)", "u", "-D(u)", logx=True, logy=True)
    used = [(u, -d) for u, _, d in diag.rows if d < 0]
    plot.add([p[0] for p in used], [p[1] for p in used], label="measured", mode="dots")
    fit_y = [math.exp(diag.intercept) * u ** diag.exponent for u, _ in used]
    plot.add([p[0] for p in used], fit_y,
             label=f"fit slope {diag.exponent:.3f}", mode="line")
    plot.write(out / "diagnose.svg")
    return EXIT_OK


STAGES = ("solve", "analytic", "tail", "diagnose", "argmin")


def cmd_report(cfg: dict, out: Path) -> int:
    studies = cfg.get("studies", [])
    _require(isinstance(studies, list), "'studies' must be a list")
    lines = ["# reproduction report", "",
             "Optimal measures, tails and argmin laws for minima of Gaussian "
             "processes on an interval.", "",
             f"Resolved master config: `{_config_line(cfg)}`", ""]
    any_failed = False
    for study in studies:
        _require(isinstance(study, dict) and "name" in study, "each study needs a name")
        name = study["name"]
        scfg_base = resolve_config("report", {k: v for k, v in study.items()
                                              if k not in ("name",)},
                                   study.get("preset"), None, cfg.get("threads"))
        scfg_base["seed"] = study.get("seed", cfg.get("seed", DEFAULT_SEED))
        lines.append(f"## study: {name}")
        lines.append("")
        sdir = out / name
        for stage in STAGES:
            stage_cfg = dict(scfg_base)
            stage_cfg["command"] = stage
            if stage == "diagnose" and "diagnose_u_list" not in stage_cfg:
                lines.append(f"- {stage}: skipped (no diagnose_u_list)")
                continue
            if stage == "analytic" and stage_cfg.get("kernel", {}).get("type") not in (
                    "ou", "modulated_bm"):
                lines.append(f"- {stage}: skipped (no closed form for this kernel)")
                continue
            if stage == "diagnose":
                stage_cfg["u_list"] = stage_cfg["diagnose_u_list"]
            stage_dir = sdir / stage
            stage_dir.mkdir(parents=True, exist_ok=True)
            try:
                code = COMMANDS[stage](stage_cfg, stage_dir)
            except GaussminError as exc:
                lines.append(f"- {stage}: FAILED ({type(exc).__name__}: {exc})")
                any_failed = True
                continue
            status = "ok" if code == EXIT_OK else f"completed with exit {code}"
            any_failed = any_failed or code != EXIT_OK
            lines.append(f"- {stage}: {status}")
            lines.extend(_stage_summary(stage, stage_dir, name))
        lines.append("")
    report_path = out / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"report written to {report_path}")
    return EXIT_NUMERICAL if any_failed else EXIT_OK


def _stage_summary(stage: str, stage_dir: Path, study: str) -> list[str]:
    lines: list[str] = []
    try:
        if stage == "solve":
            doc = json.loads((stage_dir / "solution.json").read_text())
            lines.append(f"  - sigma*^2 = {doc['sigma_star_sq']:.8f} at k={doc['k_final']} "
                         f"(certificate pass: {doc['certificate']['passed']})")
            lines.append(f"  - ![refinement](./{study}/solve/refinement.svg)")
        elif stage == "analytic":
            doc = json.loads((stage_dir / "analytic.json").read_text())
            lines.append(f"  - case {doc['case']}, a0 = {doc['a0']}, "
                         f"sigma*^2 = {doc['sigma_star_sq']:.8f}, "
                         f"total mass {doc['total_mass']:.8f}")
            if "cross_check" in doc:
                cc = doc["cross_check"]
                lines.append(f"  - solver cross-check at k={cc['k']}: "
                             f"tv = {cc['tv_distance']:.4f}, "
                             f"sigma diff = {cc['sigma_diff']:.2e}")
        elif stage == "tail":
            path = stage_dir / "tail_summary.csv"
            if path.exists():
                rows = _read_csv_rows(path)
                lines.append("  - | u | crude | is | agreement (sigmas) |")
                lines.append("  - |---|-------|----|--------------------|")
                for r in rows:
                    lines.append(f"  - | {r[0]} | {float(r[1]):.3e} | {float(r[3]):.3e} | "
                                 f"{float(r[5]):.2f} |")
                lines.append(f"  - ![tail](./{study}/tail/tail.svg)")
        elif stage == "diagnose":
            doc = json.loads((stage_dir / "diagnose.json").read_text())
            hw = doc["exponent_halfwidth"]
            lines.append(f"  - fitted correction exponent {doc['exponent']:.3f} "
                         f"(half-width {hw:.3f}); excluded u: {doc['excluded_u']}")
            if doc.get("lower_bound_exponent") is not None:
                lines.append(f"  - lower-bound exponent 1/(beta+1) = "
                             f"{doc['lower_bound_exponent']:.3f}")
            lines.append(f"  - ![diagnose](./{study}/diagnose/diagnose.svg)")
        elif stage == "argmin":
            doc = json.loads((stage_dir / "argmin.json").read_text())
            for key, val in doc["results"].items():
                if "failed" in val:
                    lines.append(f"  - {key}: FAILED ({val['failed']})")
                    continue
                ess = f", ess = {val['ess']:.0f}" if "ess" in val else ""
                lines.append(f"  - {key}: tv to optimal = {val['tv_to_optimal']:.4f}{ess}")
            lines.append(f"  - ![argmin](./{study}/argmin/argmin.svg)")
    except FileNotFoundError:
        lines.append("  - (outputs missing)")
    return lines


def _read_csv_rows(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        rows.append(line.split(","))
    return rows[1:]


COMMANDS = {
    "solve": cmd_solve,
    "analytic": cmd_analytic,
    "tail": cmd_tail,
    "argmin": cmd_argmin,
    "smallball": cmd_smallball,
    "diagnose": cmd_diagnose,
    "report": cmd_report,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures exit 3, per the contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussmin",
                     description="Optimal measures, tail estimates and argmin laws "
                                 "for minima of Gaussian processes on an interval.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "solve the grid problem with dyadic refinement"),
        ("analytic", "construct the closed-form optimal measure"),
        ("tail", "estimate P(min > u) by crude and change-of-measure MC"),
        ("argmin", "conditional argmin histograms (and Y<=x variants)"),
        ("smallball", "small-ball probability estimates"),
        ("diagnose", "second-order correction exponent fit"),
        ("report", "run configured studies and write a markdown report"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[])
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("gaussmin-results"),
                       help="output directory (default: gaussmin-results)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for sampling (results are identical "
                            "for any value)")
        p.add_argument("--preset", type=str, default=None,
                       help=f"named preset: {', '.join(sorted(PRESETS))}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = None
        if args.config is not None:
            try:
                file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed JSON in {args.config}: {exc}") from None
            if not isinstance(file_config, dict):
                raise ConfigError("config root must be a JSON object")
        cfg = resolve_config(args.command, file_config, args.preset,
                             args.seed, args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GaussminError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
