"""Command-line front door.

Subcommands: solve | analytic | tail | argmin | smallball | diagnose | report.
Configs are JSON; a "preset" key (or --preset) expands a named study so the
whole reproduction is one command. Every output embeds the fully resolved
config, outputs carry no timestamps, and all sampling is counter-addressed,
so reruns with the same config are byte-identical at any thread count.

``KEYS`` gives every config key its kind, range and default. ``resolve_config``
refuses an unknown or retired key, or a bad value, before any command runs;
every command accepts every key, so presets and embedded configs replay
anywhere. A command checks only rules of its own or across keys (k_min <= k_max).

Every command takes a dict of ``Problem``s, one per (kernel, grid), that
``build_problem`` fills: ``main`` passes an empty one and ``report`` one per
study, so a study's stages share each route and certified solution.
A ``Problem`` is deterministic, so sharing moves no byte.

The sampling commands ``tail`` and ``argmin`` are two steps: a plan
(``plan_tail``, ``plan_argmin``: the command's rules, the ``Problem``, the
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
from typing import Callable, Iterable, Iterator, NamedTuple

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
                      PowerExponential, PowerScale, ShiftedRootScale, TabulatedScale)
from .measure import GridMeasure, discretize, normalize, tv_distance
from .optimizer import certify, refine, solve_simplex_qp  # noqa: F401
from .svgplot import Plot

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


def _finite(v) -> bool:
    """A finite JSON number, not a boolean."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class Key(NamedTuple):
    """A config key: what its value must be, the test ``ok(value)`` of that,
    the default a command reads without it (None: no default), and, for a
    value that holds keys of its own, ``inner(value, name)``, which checks
    them once ``ok`` holds and names each under the key's full ``name``."""
    must: str
    ok: Callable[[object], bool]
    default: object = None
    inner: Callable[[object, str], None] | None = None


def _check_keys(obj: dict, table: dict[str, Key], prefix: str = "") -> None:
    """Raise a ConfigError naming the first key of ``obj`` that ``table``
    does not know (with the closest known) or that is not of its kind."""
    for key, value in obj.items():
        if key not in table:
            import difflib   # on this error path only: a valid config never loads it
            close = difflib.get_close_matches(key, list(table), n=1)
            raise ConfigError(f"unknown key '{prefix}{key}'"
                              + "".join(f"; did you mean '{prefix}{c}'?" for c in close))
        entry = table[key]
        _require(entry.ok(value), f"'{prefix}{key}' must be {entry.must}; got {value!r}")
        if entry.inner is not None:
            entry.inner(value, f"{prefix}{key}")


def _integer(low: int, high: float = math.inf, default: int | None = None) -> Key:
    return Key(f"an integer in [{low}, {high}]",
               lambda v: _finite(v) and isinstance(v, int) and low <= v <= high, default)


def _params(must: str = "", ok: Callable[[float], bool] = lambda v: True, default=None) -> Key:
    """A sweep's parameters, whose ``:g`` labels name output files and JSON keys."""
    return Key(f"a list of numbers{must} with distinct ':g' labels", lambda v: NUMBERS.ok(v)
               and all(map(ok, v)) and len({f"{x:g}" for x in v}) == len(v), default)


def _kernel_keys(v: dict, name: str) -> None:
    """The own keys of kernel ``name``, beside its "type"."""
    keys = KERNELS[v["type"]]
    _check_keys({k: x for k, x in v.items() if k != "type"}, keys, f"{name}.")
    missing = sorted(set(keys) - set(v) - {"points"})
    _require(not missing, f"'{name}' of type {v['type']!r} needs {missing}")


def _study_keys(v: list, name: str) -> None:
    """Each study's keys: those of KEYS and its "name", a null one unset as
    ``resolve_config`` reads it."""
    for i, study in enumerate(v):
        _check_keys({k: x for k, x in study.items() if x is not None},
                    {**KEYS, "name": NAME}, f"{name}[{i}].")


NUMBERS = Key("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_finite, v)))
INTERVAL = Key("[a, b] with finite numbers a < b",
               lambda v: NUMBERS.ok(v) and len(v) == 2 and v[0] < v[1])
NAME = Key("one path component: not empty, '.' or '..', and no '/', '\\' or NUL",
           lambda v: v not in ("", ".", "..") and not set(v) & set("/\\\0"))
SCALES = {"power": Key("a number in (0, 1)", lambda v: _finite(v) and 0 < v < 1),
          "shifted_root": Key("a number >= 0", lambda v: _finite(v) and v >= 0),
          "tabulated": Key("an object of the number lists 'x', 'g', 'dg' and 'd2g'",
                           lambda v: isinstance(v, dict) and sorted(v) == ["d2g", "dg", "g", "x"]
                           and all(map(NUMBERS.ok, v.values())))}
KERNELS = {   # each kernel type's own keys, beside "type"; all are required but "points"
    "ou": {},
    "power_exponential": {"alpha": Key("a number in (0, 1]", lambda v: _finite(v) and 0 < v <= 1)},
    "modulated_bm": {"g": Key(f"an object of exactly one of {list(SCALES)}",
                              lambda v: isinstance(v, dict) and len(v) == 1,
                              inner=lambda v, name: _check_keys(v, SCALES, f"{name}."))},
    "explicit": {"matrix": Key("a list of rows of finite numbers",
                               lambda v: isinstance(v, list) and all(map(NUMBERS.ok, v))),
                 "points": NUMBERS},
}
KEYS: dict[str, Key] = {
    "preset": Key(f"one of {sorted(PRESETS)}", lambda v: v in tuple(PRESETS)),
    "command": Key("a command name", lambda v: v in tuple(COMMANDS)),
    "kernel": Key(f"an object with a 'type' of {list(KERNELS)} and its keys",
                  lambda v: isinstance(v, dict) and v.get("type") in tuple(KERNELS),
                  inner=_kernel_keys),
    "interval": INTERVAL,
    "k": _integer(0, MAX_LEVEL, 5),
    "k_min": _integer(0, MAX_LEVEL, 2),
    "k_max": _integer(0, MAX_LEVEL, 8),
    "stop_tol": Key("a finite number", _finite, 1e-6),
    "cross_check": Key("true or false", lambda v: isinstance(v, bool), True),
    "u_list": _params(),
    "methods": Key("a non-empty list of 'crude' and 'is'", lambda v: isinstance(v, list)
                   and bool(v) and all(m in ("crude", "is") for m in v), ["crude", "is"]),
    "dump_paths": _integer(0, default=0),
    "argmin_u_list": _params(" >= 0", lambda v: v >= 0),
    "x_list": _params(" > 0", lambda v: v > 0, default=[]),
    "eps_list": _params(" > 0", lambda v: v > 0),
    "mode": Key("'range' or 'zstar'", lambda v: v in ("range", "zstar"), "range"),
    "beta": Key("a number >= 0", lambda v: _finite(v) and v >= 0),
    "diagnose_u_list": _params(),
    "diagnose_k": _integer(0, MAX_LEVEL),
    "diagnose_interval": INTERVAL,
    "seed": _integer(0, 2**64 - 1, 12345),
    "stream": _integer(0, 2**64 - 2, 0),   # diagnose draws on stream + 1
    "n_paths": _integer(1, default=100_000),
    "threads": _integer(1, default=1),
    # a study's "name" is its directory under --out, which no two share
    "studies": Key("a list of objects with distinct names", lambda v: isinstance(v, list)
                   and all(isinstance(s, dict) and isinstance(s.get("name"), str) for s in v)
                   and len({s["name"] for s in v}) == len(v), [], _study_keys),
    "u": Key("left out: it is retired, give a one-element 'u_list'", lambda v: False),
    "batch_size": Key("left out: it is retired, batches depend on the grid", lambda v: False),
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    out.update({k: v for k, v in extra.items() if v is not None})
    return out


def resolve_config(command: str, file_config: dict | None, preset: str | None,
                   seed: int | None, threads: int | None) -> dict:
    """Preset defaults, then file config, then CLI flag overrides (``preset``
    included: the flag's preset wins over the file's "preset" key), each key
    checked against KEYS. The check writes nothing into the config, which
    every output embeds."""
    cfg: dict = {}
    file_config = dict(file_config or {})
    file_preset = file_config.pop("preset", None)
    preset = file_preset if preset is None else preset
    if preset is not None:
        _check_keys({"preset": preset}, KEYS)
        p = dict(PRESETS[preset])
        overrides = p.pop("overrides", {})
        cfg = _merge(p, overrides.get(command, {}))
    cfg = _merge(_merge(cfg, file_config), {"seed": seed, "threads": threads})
    for key in ("seed", "threads", "n_paths"):
        cfg.setdefault(key, KEYS[key].default)
    cfg["command"] = command
    _check_keys(cfg, KEYS)
    return cfg


def build_kernel(cfg: dict) -> Kernel:
    """The config's kernel; every kernel but an explicit Gram needs the
    interval, and a parameter its constructor rejects is a ConfigError."""
    kcfg = cfg.get("kernel")
    _require(kcfg is not None, "config needs 'kernel'")
    ktype = kcfg["type"]
    _require(ktype == "explicit" or "interval" in cfg, "config needs 'interval'")
    try:
        if ktype == "ou":
            return OrnsteinUhlenbeck()
        if ktype == "power_exponential":
            return PowerExponential(float(kcfg["alpha"]))
        if ktype == "explicit":
            return ExplicitGram(kcfg["matrix"], kcfg.get("points", range(len(kcfg["matrix"]))))
        [(form, value)] = kcfg["g"].items()   # exactly one, as SCALES requires
        scale = (TabulatedScale(*(value[key] for key in ("x", "g", "dg", "d2g")))
                 if form == "tabulated" else
                 (PowerScale if form == "power" else ShiftedRootScale)(float(value)))
        return ModulatedBrownian(scale, *map(float, cfg["interval"]))
    except ValueError as exc:
        raise ConfigError(f"bad {ktype!r} kernel parameters: {exc}") from None


def _problem_key(cfg: dict, grid: Grid) -> str:
    """The canonical JSON of the config values that fix a Problem: the kernel
    and, for a dyadic grid, its interval and level (a repr truncates arrays)."""
    dyadic = [grid.a, grid.b, grid.k] if isinstance(grid, DyadicGrid) else []
    return json.dumps([cfg["kernel"], *dyadic], sort_keys=True)


def build_problem(cfg: dict, problems: dict, k_default: int = KEYS["k"].default) -> Problem:
    """The config's kernel on its grid: an explicit Gram's own points, else the
    level-``k`` dyadic grid of the interval. Built once per ``_problem_key`` in
    ``problems``, so commands given the same dict share it."""
    kernel = build_kernel(cfg)
    if isinstance(kernel, ExplicitGram):
        grid = kernel.grid()
    else:
        grid = DyadicGrid(*map(float, cfg["interval"]), cfg.get("k", k_default))
    key = _problem_key(cfg, grid)
    if key not in problems:
        problems[key] = Problem(kernel, grid)
    return problems[key]


def sampler_config(cfg: dict) -> SamplerConfig:
    """The config's sampling settings, whose ranges KEYS has checked."""
    return SamplerConfig(seed=cfg["seed"], n_paths=cfg["n_paths"],
                         stream=cfg.get("stream", KEYS["stream"].default), workers=cfg["threads"])


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
        k_min = cfg.get("k_min", KEYS["k_min"].default)
        k_max = cfg.get("k_max", KEYS["k_max"].default)
        _require(k_min <= k_max, f"'k_max' must be >= 'k_min' = {k_min}; got {k_max}")
        trace = refine(kernel, tuple(map(float, cfg["interval"])), k_min, k_max,
                       stop_tol=float(cfg.get("stop_tol", KEYS["stop_tol"].default)))
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
        "route": problem.route.name,
        "jitter": problem.route.jitter,
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
        a, b = map(float, cfg["interval"])
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
    if cfg.get("cross_check", KEYS["cross_check"].default):
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
    route = problem.route
    support = None if route.prefix is None else problem.solution.support
    rows = batch_rows(route.n)
    for start in range(0, count, rows):
        batch = sample(route, problem.grid, config, start,
                       min(rows, config.n_paths - start), support)
        for path in batch.values[:count - start]:
            yield path.tolist()


def plan_tail(cfg: dict, problems: dict) -> Plan:
    us = [float(u) for u in cfg.get("u_list", [])]
    _require(bool(us), "tail needs a non-empty 'u_list'")
    methods = cfg.get("methods", KEYS["methods"].default)
    if len(set(methods)) < len(methods):  # a repeated method runs, and is written, once
        methods = list(dict.fromkeys(methods))
        cfg = dict(cfg, methods=methods)
    config = sampler_config(cfg)
    n_dump = min(cfg.get("dump_paths", KEYS["dump_paths"].default), config.n_paths,
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
    eps_list = [float(eps) for eps in cfg.get("eps_list", [])]
    _require(bool(eps_list), "smallball needs a non-empty 'eps_list'")
    mode = cfg.get("mode", KEYS["mode"].default)
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
    us = [float(u) for u in cfg.get("argmin_u_list") or cfg.get("u_list", [])]
    _require(bool(us) and min(us) >= 0, "argmin needs 'argmin_u_list', or a 'u_list' >= 0")
    xs = [float(x) for x in cfg.get("x_list", KEYS["x_list"].default)]
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
    us = [float(u) for u in local.get("u_list", [])]
    _require(len(us) >= 2 and us[0] > 0 and all(b > a for a, b in zip(us, us[1:])),
             "diagnose needs at least two 'u_list' values, > 0 and strictly increasing")
    beta = None if cfg.get("beta") is None else float(cfg["beta"])
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
    """Each stage of PLANS planned, then one pass for all their sweeps:
    {stage: (plan, results)}. The plans share one Problem and sampling plan,
    since ``_stage_config`` changes only their ``command``.

    A stage whose plan raises, or every stage if the pass raises, is left
    out, so that it runs alone at its own position in the report, and fails
    there as it would alone.
    """
    plans = {}
    for stage, plan_stage in PLANS.items():
        try:
            plans[stage] = plan_stage(_stage_config(study_cfg, stage), problems)
        except GaussminError:
            continue
    if not plans:
        return {}
    first = next(iter(plans.values()))
    assert all(plan.problem is first.problem and plan.config == first.config
               for plan in plans.values())
    try:
        results = iter(run_sweeps(first.problem, first.config,
                                  [sweep for plan in plans.values() for sweep in plan.sweeps]))
    except GaussminError:
        return {}
    return {stage: (plan, [next(results) for _ in plan.sweeps]) for stage, plan in plans.items()}


def cmd_report(cfg: dict, out: Path, _problems: dict) -> tuple[int, None]:
    lines = ["# reproduction report", "",
             "Optimal measures, tails and argmin laws for minima of Gaussian "
             "processes on an interval.", "",
             f"Resolved master config: `{_config_line(cfg)}`", ""]
    any_failed = False
    for study in cfg.get("studies", KEYS["studies"].default):   # checked with cfg
        name = study["name"]
        own = {k: v for k, v in study.items() if v is not None and k != "name"}
        scfg_base = resolve_config("report", own, own.get("preset"),
                                   own.get("seed", cfg.get("seed")),
                                   own.get("threads", cfg.get("threads")))
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
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # an existing file, or a path under one
            raise ConfigError(f"cannot create --out {out}: {exc.strerror}") from None
        cfg = resolve_config(args.command, file_config, args.preset,
                             args.seed, args.threads)
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
