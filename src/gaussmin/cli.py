"""Command-line front door.

Subcommands: solve | analytic | tail | argmin | smallball | diagnose | report.
Configs are JSON; a "preset" key (or --preset) expands a named study so the
whole reproduction is one command. Every output embeds the fully resolved
config, outputs carry no timestamps, and all sampling is counter-addressed,
so reruns with the same config are byte-identical at any thread count.

Every command takes a dict of ``Problem``s, one per (kernel, grid), that
``build_problem`` fills: ``main`` passes an empty one and ``report`` one per
study, so a study's stages share each path map and certified solution.
A ``Problem`` is deterministic, so sharing moves no byte.

The sampling commands ``tail`` and ``argmin`` are two steps: a plan
(``plan_tail``, ``plan_argmin``: the config checks, the ``Problem``, the
sampling plan and the sweeps the command needs) and a write step (files,
plot, warnings and exit code, from the sweeps' results). Alone, a command
plans, makes one pass and writes. ``report`` plans a study's ``tail`` and
``argmin`` stages before running either, makes one pass per distinct
(``Problem``, sampling plan), then writes each stage at its place. A sweep's
result does not depend on the sweeps that share its pass, so this too moves
no byte.

Exit codes: 0 success, 2 numerical or statistical failure, 3 config/usage
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .closedform import ou_measure, ou_sigma_star_sq, sigma_star_from_mu, tbm_measure
from .estimators import (ESS_WARN_THRESHOLD, JACKKNIFE_GROUPS, Problem, Sweep, argmin_sweep,
                         correction_diagnostic, mx_sweep, run_sweeps, small_ball, tail_crude,
                         tail_crude_sweep, tail_is, tail_is_sweep)
from .exceptions import ConfigError, EstimationError, GaussminError
# factorize, certify and solve_simplex_qp stay importable here for perfbench/tracer.py
from .gauss_sim import SamplerConfig, batch_rows, factorize, sample  # noqa: F401
from .grids import MAX_LEVEL, DyadicGrid, Grid
from .kernels import (ExplicitGram, Kernel, ModulatedBrownian, OrnsteinUhlenbeck,
                      PowerExponential, PowerScale, ScaleFunction, ShiftedRootScale,
                      TabulatedScale)
from .measure import GridMeasure, discretize, normalize, tv_distance
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


def _number(cfg: dict, key: str, default, integer: bool = False,
            low: float = -math.inf, high: float = math.inf) -> int | float:
    """A scalar config value: a JSON integer when ``integer``, else a finite
    number, in [low, high]; anything else is a ConfigError, not a traceback."""
    v = cfg.get(key, default)
    ok = (isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
          and (integer or math.isfinite(v)) and low <= v <= high)
    bounds = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
    _require(ok, f"'{key}' must be {'an integer' if integer else 'a finite number'}"
                 f"{bounds}; got {v!r}")
    return int(v) if integer else float(v)


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
    """Preset defaults, then file config, then CLI flag overrides (``preset``
    included: the flag's preset wins over the file's "preset" key)."""
    cfg: dict = {}
    file_config = dict(file_config or {})
    file_preset = file_config.pop("preset", None)
    if preset is None:
        preset = file_preset
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


def _interval(cfg: dict) -> tuple[float, float]:
    """The config's interval [a, b]: two finite numbers with a < b."""
    iv = cfg.get("interval")
    ok = (isinstance(iv, (list, tuple)) and len(iv) == 2
          and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  and math.isfinite(v) for v in iv)
          and iv[0] < iv[1])
    _require(ok, f"'interval' must be [a, b] with finite numbers a < b; got {iv!r}")
    return float(iv[0]), float(iv[1])


def build_kernel(cfg: dict) -> Kernel:
    """The config's kernel; a parameter its constructor rejects is a ConfigError."""
    kcfg = cfg.get("kernel")
    _require(isinstance(kcfg, dict) and "type" in kcfg, "config needs kernel.type")
    ktype = kcfg["type"]
    try:
        if ktype == "ou":
            return OrnsteinUhlenbeck()
        if ktype == "power_exponential":
            _require("alpha" in kcfg, "power_exponential needs 'alpha'")
            return PowerExponential(float(kcfg["alpha"]))
        if ktype == "modulated_bm":
            return ModulatedBrownian(build_scale(kcfg.get("g", {})), *_interval(cfg))
        if ktype == "explicit":
            _require("matrix" in kcfg, "explicit kernel needs 'matrix'")
            matrix = np.asarray(kcfg["matrix"], dtype=float)
            points = (np.asarray(kcfg["points"], dtype=float) if "points" in kcfg
                      else np.arange(matrix.shape[0], dtype=float))
            return ExplicitGram(matrix, points)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {ktype!r} kernel parameters: {exc}") from None
    raise ConfigError(f"unknown kernel type {ktype!r}")


def _problem_key(cfg: dict, grid: Grid) -> str:
    """The canonical JSON of the config values that fix a Problem: the kernel
    and, for a dyadic grid, its interval and level (a repr truncates arrays)."""
    dyadic = [grid.a, grid.b, grid.k] if isinstance(grid, DyadicGrid) else []
    return json.dumps([cfg["kernel"], *dyadic], sort_keys=True)


def build_problem(cfg: dict, problems: dict, k_default: int = 5) -> Problem:
    """The config's kernel on its grid: an explicit Gram's own points, else the
    level-``k`` dyadic grid of the interval. Built once per ``_problem_key`` in
    ``problems``, so commands given the same dict share it."""
    kernel = build_kernel(cfg)
    if isinstance(kernel, ExplicitGram):
        grid = kernel.grid()
    else:
        k = _number(cfg, "k", k_default, integer=True, low=0, high=MAX_LEVEL)
        grid = DyadicGrid(*_interval(cfg), k)
    key = _problem_key(cfg, grid)
    if key not in problems:
        problems[key] = Problem(kernel, grid)
    return problems[key]


def sampler_config(cfg: dict) -> SamplerConfig:
    """The four sampling settings, each a JSON integer in range. ``stream``
    stops at 2^64 - 2, because ``diagnose`` draws on ``stream + 1``. The
    retired ``batch_size`` is refused, not ignored: it would sit in every
    output header and change nothing."""
    _require("batch_size" not in cfg,
             "'batch_size' is retired: a pass's batches depend on its grid alone")
    return SamplerConfig(
        seed=_number(cfg, "seed", DEFAULT_SEED, integer=True, low=0, high=2**64 - 1),
        n_paths=_number(cfg, "n_paths", DEFAULT_N_PATHS, integer=True, low=1),
        stream=_number(cfg, "stream", 0, integer=True, low=0, high=2**64 - 2),
        workers=_number(cfg, "threads", 1, integer=True, low=1))


PARAM_DOMAINS = {"finite": lambda v: True, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}


def _param_list(values, key: str, domain: str = "finite") -> list[float]:
    """A sweep's parameter list, checked before any pass over the paths.

    Entries must be finite numbers in ``domain`` (a PARAM_DOMAINS key), and
    their ``:g`` labels distinct: the labels name output files and JSON keys,
    so two values sharing one would overwrite each other's results.
    """
    _require(isinstance(values, list), f"'{key}' must be a list of numbers")
    labels: dict[str, float] = {}
    for v in values:
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 f"'{key}' entry {v!r} is not a number")
        _require(math.isfinite(v), f"'{key}' entry {v!r} is not finite")
        _require(PARAM_DOMAINS[domain](v), f"'{key}' entries must be {domain}; got {v!r}")
        label = f"{v:g}"
        _require(label not in labels,
                 f"'{key}' entries {labels.get(label)!r} and {v!r} share the label {label!r}")
        labels[label] = float(v)
    return list(labels.values())


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _repro_config(cfg: dict) -> dict:
    # Worker count never changes results (determinism contract), so it is
    # excluded to keep reruns byte-identical across --threads settings.
    return {k: v for k, v in cfg.items() if k != "threads"}


def _config_line(cfg: dict) -> str:
    return json.dumps(_repro_config(cfg), sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, cfg: dict, columns: list[str], rows: Iterable) -> None:
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


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _measure_rows(m: GridMeasure) -> list[tuple]:
    return list(zip(m.grid.points.tolist(), m.weights.tolist()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict, out: Path, problems: dict) -> tuple[int, dict]:
    kernel = build_kernel(cfg)
    if isinstance(kernel, ExplicitGram):
        trace = refine(kernel, (0.0, 1.0), 0, 0)
    else:
        k_min = _number(cfg, "k_min", 2, integer=True, low=0, high=MAX_LEVEL)
        k_max = _number(cfg, "k_max", 8, integer=True, low=k_min, high=MAX_LEVEL)
        trace = refine(kernel, _interval(cfg), k_min, k_max,
                       stop_tol=_number(cfg, "stop_tol", 1e-6))
    final, problem = trace.final, trace.problem
    problems.setdefault(_problem_key(cfg, problem.grid), problem)
    solution = problem.solution
    report = solution.report
    write_csv(out / "weights.csv", cfg, ["point", "weight"], _measure_rows(final.measure))
    write_csv(out / "trace.csv", cfg, ["k", "n_points", "sigma_star_sq"],
              [(e.k, e.measure.grid.points.size, e.sigma_star_sq) for e in trace.entries])
    result = {
        "sigma_star_sq": final.sigma_star_sq,
        "weights_csv_path": "weights.csv",
        "certificate": {"min_slack": report.min_slack,
                        "max_support_violation": report.max_support_violation,
                        "passed": report.passed},
        "k_final": final.k,
        "converged": trace.converged,
        # a single level has no gap; inf is not valid JSON
        "final_gap": _finite_or_none(trace.final_gap),
        "method": solution.method,
        "support_size": int(solution.support.size),
        "route": problem.route,
        # the Markov route factors nothing
        "jitter": problem.factor.jitter if problem.markov is None else None,
    }
    write_json(out / "solution.json", cfg, result)
    plot = Plot("refinement of sigma*^2 over dyadic levels", "level k", "sigma*^2_k")
    plot.add([e.k for e in trace.entries], [e.sigma_star_sq for e in trace.entries],
             mode="both")
    plot.write(out / "refinement.svg")
    return EXIT_OK, result


class NoClosedFormError(ConfigError):
    """``cmd_analytic``, the one owner of this decision, has no closed form."""


def cmd_analytic(cfg: dict, out: Path, problems: dict) -> tuple[int, dict]:
    kernel = build_kernel(cfg)
    if isinstance(kernel, OrnsteinUhlenbeck):
        a, b = _interval(cfg)
        measure = ou_measure(a, b)
        result = {"case": None, "a0": None, "sigma_star_sq": ou_sigma_star_sq(a, b)}
    elif isinstance(kernel, ModulatedBrownian):
        closed = tbm_measure(kernel.scale, kernel.a, kernel.b)
        measure = closed.measure
        result = {"case": closed.case, "a0": closed.a0,
                  "sigma_star_sq": sigma_star_from_mu(kernel, measure)}
    else:
        raise NoClosedFormError("analytic supports kernel types 'ou' and 'modulated_bm'")
    result.update(measure=measure.to_dict(), total_mass=measure.total_mass)
    probability = normalize(measure)
    if cfg.get("cross_check", True):
        problem = build_problem(cfg, problems, k_default=8)
        sol = problem.solution
        disc = discretize(probability, problem.grid)
        result["cross_check"] = {
            "k": problem.grid.k,
            "solver_sigma_star_sq": sol.sigma_star_sq,
            "sigma_diff": abs(sol.sigma_star_sq - result["sigma_star_sq"]),
            "tv_distance": tv_distance(sol.measure, disc),
        }
        write_csv(out / "measure.csv", cfg, ["point", "weight"], _measure_rows(disc))
    write_json(out / "analytic.json", cfg, result)
    return EXIT_OK, result


def _u_values(cfg: dict, domain: str = "finite") -> list[float]:
    _require("u" not in cfg, "'u' is retired: give a one-element 'u_list'")
    _require("u_list" in cfg, "config needs 'u_list'")
    us = _param_list(cfg["u_list"], "u_list", domain)
    _require(len(us) >= 1, "empty u list")
    return us


@dataclass(frozen=True)
class Plan:
    """A sampling stage, checked and ready to run: its Problem, its sampling
    plan, the sweeps it reads, and ``write(out, results)``, which turns their
    results (one per sweep) into its files, warnings and exit code. ``alone``
    runs the sweeps in the stage's own pass."""

    problem: Problem
    config: SamplerConfig
    sweeps: tuple[Sweep, ...]
    write: Callable[[Path, list], tuple[int, object]]
    alone: Callable[[], list]


def _run_alone(plan: Plan) -> tuple[Plan, list]:
    return plan, plan.alone()


def _first_paths(problem: Problem, config: SamplerConfig, count: int
                 ) -> Iterator[list[float]]:
    """Paths [0, count) as lists, one at a time, from the pass's own batches."""
    rows = batch_rows(problem.path_map.n)
    for start in range(0, count, rows):
        batch = sample(problem.path_map, problem.grid, config, start,
                       min(rows, config.n_paths - start))
        for path in batch.values[:count - start]:
            yield path.tolist()


def plan_tail(cfg: dict, problems: dict) -> Plan:
    us = _u_values(cfg)
    methods = cfg.get("methods", ["crude", "is"])
    _require(isinstance(methods, list) and methods
             and all(isinstance(m, str) and m in ("crude", "is") for m in methods),
             f"'methods' must be a non-empty list of 'crude' and/or 'is'; got {methods!r}")
    if len(set(methods)) < len(methods):  # a repeated method runs, and is written, once
        methods = list(dict.fromkeys(methods))
        cfg = dict(cfg, methods=methods)
    config = sampler_config(cfg)
    n_dump = min(_number(cfg, "dump_paths", 0, integer=True, low=0), config.n_paths,
                 PATH_DUMP_CAP)
    problem = build_problem(cfg, problems)
    grid = problem.grid
    s2 = problem.solution.sigma_star_sq
    # tail_is counts the crude hits in its own pass, so a run with IS makes one pass
    estimator, sweep = (tail_is, tail_is_sweep) if "is" in methods else (tail_crude,
                                                                          tail_crude_sweep)

    def write(out: Path, results: list) -> tuple[int, list[tuple] | None]:
        [estimates] = results
        if n_dump:
            write_csv(out / "paths.csv", cfg, [f"x{i}" for i in range(grid.points.size)],
                      _first_paths(problem, config, n_dump))
        if "is" in methods:
            estimates = {"is": estimates, "crude": [e.meta["crude"] for e in estimates]}
        else:
            estimates = {"crude": estimates}
        rows = {m: [(u, e.value, e.stderr, e.log_value, e.log_value + u * u / (2 * s2))
                    for u, e in zip(us, estimates[m])] for m in estimates}
        for method in methods:
            write_csv(out / f"tail_{method}.csv", cfg,
                      ["u", "p_hat", "stderr", "log_p", "D_u"], rows[method])
        plot = Plot("tail of the grid minimum", "u", "log P(min > u)")
        summary = None
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
        if "is" not in methods and all(e.meta["hits"] == 0 for e in estimates["crude"]):
            print("tail_crude recorded zero hits at every u; use the change-of-measure "
                  "estimator for this range", file=sys.stderr)
            return EXIT_NUMERICAL, summary
        return EXIT_OK, summary

    # alone, the pass runs inside the public estimator, which perfbench/tracer.py times
    return Plan(problem, config, (sweep(problem, us),), write,
                lambda: [estimator(problem, us, config)])


def cmd_tail(cfg: dict, out: Path, problems: dict, ran: tuple[Plan, list] | None = None
             ) -> tuple[int, list[tuple] | None]:
    """``ran``: this stage's plan and results, from a pass it shared in ``report``."""
    plan, results = ran or _run_alone(plan_tail(cfg, problems))
    return plan.write(out, results)


def cmd_smallball(cfg: dict, out: Path, problems: dict) -> tuple[int, None]:
    eps_list = _param_list(cfg.get("eps_list", []), "eps_list", "> 0")
    _require(bool(eps_list), "smallball needs 'eps_list'")
    mode = cfg.get("mode", "range")
    _require(mode in ("range", "zstar"), "mode must be 'range' or 'zstar'")
    config = sampler_config(cfg)
    problem = build_problem(cfg, problems)
    rows = [(eps, e.value, e.stderr, e.log_value, e.meta["hits"])
            for eps, e in zip(eps_list, small_ball(problem, eps_list, config, mode=mode))]
    write_csv(out / "smallball.csv", cfg, ["eps", "p_hat", "stderr", "log_p", "hits"], rows)
    plot = Plot(f"small-ball probability ({mode} mode)", "eps", "p_hat")
    plot.add([r[0] for r in rows], [r[1] for r in rows], mode="both")
    plot.write(out / "smallball.svg")
    return EXIT_OK, None


def plan_argmin(cfg: dict, problems: dict) -> Plan:
    us = (_param_list(cfg.get("argmin_u_list", []), "argmin_u_list", ">= 0")
          or _u_values(cfg, ">= 0"))
    xs = _param_list(cfg.get("x_list", []), "x_list", "> 0")
    config = sampler_config(cfg)
    problem = build_problem(cfg, problems)
    grid, solution = problem.grid, problem.solution
    # the argmin law over every u, and m_x over every x, from one pass
    sweeps = (argmin_sweep(problem, us), *([mx_sweep(problem, xs)] if xs else []))

    def write(out: Path, results: list) -> tuple[int, dict]:
        argmins, mxs = results[0], (results[1] if xs else [])
        summary = {}
        warnings: list[str] = []
        plot = Plot("conditional argmin law vs optimal measure", "t", "weight")
        plot.add(grid.points.tolist(), solution.measure.weights.tolist(),
                 label="optimal measure", mode="line")
        for u, result in zip(us, argmins):
            if isinstance(result, EstimationError):
                summary[f"u={u:g}"] = {"failed": str(result)}
                warnings.append(f"u={u:g}: {result}")
                continue
            hist, ess = result
            write_csv(out / f"argmin_u{u:g}.csv", cfg, ["point", "weight"],
                      _measure_rows(hist))
            summary[f"u={u:g}"] = {"ess": ess,
                                   "tv_to_optimal": tv_distance(hist, solution.measure)}
            plot.add(grid.points.tolist(), hist.weights.tolist(), label=f"u={u:g}",
                     mode="dots")
            if ess < ESS_WARN_THRESHOLD:
                warnings.append(f"u={u:g}: effective sample size {ess:.1f} < "
                                f"{ESS_WARN_THRESHOLD:g}; histogram is noise-dominated")
        for x, hist in zip(xs, mxs):
            if isinstance(hist, EstimationError):
                summary[f"x={x:g}"] = {"failed": str(hist)}
                warnings.append(f"x={x:g}: {hist}")
                continue
            write_csv(out / f"mx_x{x:g}.csv", cfg, ["point", "weight"], _measure_rows(hist))
            summary[f"x={x:g}"] = {"tv_to_optimal": tv_distance(hist, solution.measure)}
        result = {"sigma_star_sq": solution.sigma_star_sq, "results": summary,
                  "ess_threshold": ESS_WARN_THRESHOLD}
        write_json(out / "argmin.json", cfg, result)
        plot.write(out / "argmin.svg")
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return (EXIT_NUMERICAL if warnings else EXIT_OK), result

    return Plan(problem, config, sweeps, write, lambda: run_sweeps(problem, config, sweeps))


def cmd_argmin(cfg: dict, out: Path, problems: dict, ran: tuple[Plan, list] | None = None
               ) -> tuple[int, dict]:
    """``ran``: this stage's plan and results, from a pass it shared in ``report``."""
    plan, results = ran or _run_alone(plan_argmin(cfg, problems))
    return plan.write(out, results)


def cmd_diagnose(cfg: dict, out: Path, problems: dict) -> tuple[int, dict]:
    local = dict(cfg)
    for key in ("interval", "k", "u_list"):
        if f"diagnose_{key}" in cfg:
            local[key] = cfg[f"diagnose_{key}"]
    us = _u_values(local, "> 0")
    _require(len(us) >= 2 and all(b > a for a, b in zip(us, us[1:])),
             "diagnose needs at least two strictly increasing u values")
    beta = None if cfg.get("beta") is None else _number(cfg, "beta", None, low=0)
    config = sampler_config(local)
    problem = build_problem(local, problems)
    diag = correction_diagnostic(problem, us, config)
    rows = [(u, est.value, est.stderr, lp, d)
            for (u, lp, d), est in zip(diag.rows, diag.estimates)]
    write_csv(out / "diagnose.csv", cfg, ["u", "p_hat", "stderr", "log_p", "D_u"], rows)
    # a u with no surviving path has log_p = D = -inf, and a failed jackknife
    # refit an infinite half-width; neither is valid JSON
    result = {
        "exponent": diag.exponent,
        "intercept": diag.intercept,
        "exponent_halfwidth": _finite_or_none(diag.exponent_halfwidth),
        "halfwidth_method": "jackknife",
        "groups": JACKKNIFE_GROUPS,
        "excluded_u": list(diag.excluded),
        "beta": beta,
        "lower_bound_exponent": None if beta is None else 1.0 / (beta + 1.0),
        "sigma_star_sq": problem.solution.sigma_star_sq,
        "rows": [{"u": u, "log_p": _finite_or_none(lp), "D": _finite_or_none(d)}
                 for u, lp, d in diag.rows],
    }
    write_json(out / "diagnose.json", cfg, result)
    plot = Plot("second-order tail correction -D(u)", "u", "-D(u)", logx=True, logy=True)
    used = [(u, -d) for u, _, d in diag.rows if u not in diag.excluded]
    plot.add([p[0] for p in used], [p[1] for p in used], label="measured", mode="dots")
    fit_y = [math.exp(diag.intercept) * u ** diag.exponent for u, _ in used]
    plot.add([p[0] for p in used], fit_y,
             label=f"fit slope {diag.exponent:.3f}", mode="line")
    plot.write(out / "diagnose.svg")
    return EXIT_OK, result


STAGES = ("solve", "analytic", "tail", "diagnose", "argmin")
PLANS = {"tail": plan_tail, "argmin": plan_argmin}   # the stages a study plans together


def _stage_config(study_cfg: dict, stage: str) -> dict:
    stage_cfg = dict(study_cfg, command=stage)
    if stage == "diagnose":
        stage_cfg["u_list"] = stage_cfg["diagnose_u_list"]
    return stage_cfg


def _run_planned(study_cfg: dict, problems: dict) -> dict[str, tuple[Plan, list]]:
    """Each stage of PLANS planned, then one pass per distinct (Problem,
    sampling plan) for all their sweeps: {stage: (plan, results)}.

    A stage whose plan or pass raises is left out, so that it runs alone at
    its own position in the report, and fails there as it would alone.
    """
    plans = {}
    for stage, plan_stage in PLANS.items():
        try:
            plans[stage] = plan_stage(_stage_config(study_cfg, stage), problems)
        except GaussminError:
            continue
    ran = {}
    for problem, config in dict.fromkeys((plan.problem, plan.config) for plan in plans.values()):
        group = {stage: plan for stage, plan in plans.items()
                 if plan.problem is problem and plan.config == config}
        try:
            results = iter(run_sweeps(problem, config,
                                      [sweep for plan in group.values() for sweep in plan.sweeps]))
        except GaussminError:
            continue
        for stage, plan in group.items():
            ran[stage] = plan, [next(results) for _ in plan.sweeps]
    return ran


def cmd_report(cfg: dict, out: Path, _problems: dict) -> tuple[int, None]:
    studies = cfg.get("studies", [])
    _require(isinstance(studies, list), "'studies' must be a list")
    # a name is its study's directory under --out: all are checked before any stage writes
    names = [study.get("name") if isinstance(study, dict) else None for study in studies]
    for name in names:
        _require(isinstance(name, str) and name not in ("", ".", "..")
                 and not set(name) & set("/\\\0"), "each study needs a name that is one "
                 f"path component: not empty, '.' or '..', no '/', '\\' or NUL; got {name!r}")
    _require(len(set(names)) == len(names), f"two studies share a name in {names}")
    lines = ["# reproduction report", "",
             "Optimal measures, tails and argmin laws for minima of Gaussian "
             "processes on an interval.", "",
             f"Resolved master config: `{_config_line(cfg)}`", ""]
    any_failed = False
    for study in studies:
        name = study["name"]
        scfg_base = resolve_config("report", {k: v for k, v in study.items()
                                              if k not in ("name",)},
                                   study.get("preset"), None, cfg.get("threads"))
        scfg_base["seed"] = study.get("seed", cfg.get("seed", DEFAULT_SEED))
        lines.append(f"## study: {name}")
        lines.append("")
        sdir = out / name
        shared: dict = {}  # this study's Problems, freed when it ends
        ran: dict = {}
        for stage in STAGES:
            if stage == "diagnose" and "diagnose_u_list" not in scfg_base:
                lines.append(f"- {stage}: skipped (no diagnose_u_list)")
                continue
            if stage == "tail":   # the first stage of PLANS: plan them all, share passes
                ran = _run_planned(scfg_base, shared)
            stage_dir = sdir / stage
            stage_dir.mkdir(parents=True, exist_ok=True)
            args = (_stage_config(scfg_base, stage), stage_dir, shared)
            if stage in ran:
                args += (ran[stage],)
            try:
                code, result = COMMANDS[stage](*args)
            except NoClosedFormError:
                if not any(stage_dir.iterdir()):  # made above, not by an earlier run
                    stage_dir.rmdir()
                lines.append(f"- {stage}: skipped (no closed form for this kernel)")
                continue
            except GaussminError as exc:
                lines.append(f"- {stage}: FAILED ({type(exc).__name__}: {exc})")
                any_failed = True
                continue
            status = "ok" if code == EXIT_OK else f"completed with exit {code}"
            any_failed = any_failed or code != EXIT_OK
            lines.append(f"- {stage}: {status}")
            lines.extend(_stage_summary(stage, result, name))
        lines.append("")
    report_path = out / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"report written to {report_path}")
    return (EXIT_NUMERICAL if any_failed else EXIT_OK), None


def _stage_summary(stage: str, result, study: str) -> list[str]:
    """Report lines for one stage, from the result its command returned."""
    if stage == "solve":
        return [f"  - sigma*^2 = {result['sigma_star_sq']:.8f} at k={result['k_final']} "
                f"(certificate pass: {result['certificate']['passed']})",
                f"  - ![refinement](./{study}/solve/refinement.svg)"]
    if stage == "analytic":
        lines = [f"  - case {result['case']}, a0 = {result['a0']}, "
                 f"sigma*^2 = {result['sigma_star_sq']:.8f}, "
                 f"total mass {result['total_mass']:.8f}"]
        if "cross_check" in result:
            cc = result["cross_check"]
            lines.append(f"  - solver cross-check at k={cc['k']}: "
                         f"tv = {cc['tv_distance']:.4f}, "
                         f"sigma diff = {cc['sigma_diff']:.2e}")
        return lines
    if stage == "tail":
        if result is None:  # one method only: no crude/IS comparison
            return []
        return ["  - | u | crude | is | agreement (sigmas) |",
                "  - |---|-------|----|--------------------|",
                *(f"  - | {u!r} | {p_crude:.3e} | {p_is:.3e} | {agreement:.2f} |"
                  for u, p_crude, _, p_is, _, agreement in result),
                f"  - ![tail](./{study}/tail/tail.svg)"]
    if stage == "diagnose":
        halfwidth = result["exponent_halfwidth"]
        halfwidth = "n/a" if halfwidth is None else f"{halfwidth:.3f}"
        lines = [f"  - fitted correction exponent {result['exponent']:.3f} "
                 f"(jackknife half-width {halfwidth}); "
                 f"excluded u: {result['excluded_u']}"]
        if result["lower_bound_exponent"] is not None:
            lines.append(f"  - lower-bound exponent 1/(beta+1) = "
                         f"{result['lower_bound_exponent']:.3f}")
        lines.append(f"  - ![diagnose](./{study}/diagnose/diagnose.svg)")
        return lines
    # argmin: the keys in the order argmin.json stores them
    lines = []
    for key, val in sorted(result["results"].items()):
        if "failed" in val:
            lines.append(f"  - {key}: FAILED ({val['failed']})")
            continue
        ess = f", ess = {val['ess']:.0f}" if "ess" in val else ""
        lines.append(f"  - {key}: tv to optimal = {val['tv_to_optimal']:.4f}{ess}")
    lines.append(f"  - ![argmin](./{study}/argmin/argmin.svg)")
    return lines


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
            except OSError as exc:   # missing, a directory, or unreadable
                raise ConfigError(f"cannot read --config {args.config}: {exc.strerror}") from None
            except ValueError as exc:   # not JSON, or not UTF-8
                raise ConfigError(f"malformed JSON in {args.config}: {exc}") from None
            if not isinstance(file_config, dict):
                raise ConfigError("config root must be a JSON object")
        cfg = resolve_config(args.command, file_config, args.preset,
                             args.seed, args.threads)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # an existing file, or a path under one
            raise ConfigError(f"cannot create --out {out}: {exc.strerror}") from None
        code, _ = COMMANDS[args.command](cfg, out, {})
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GaussminError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
