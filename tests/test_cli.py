"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import importlib.util
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gaussmin.cli
import gaussmin.estimators
import gaussmin.optimizer
from gaussmin import (MAX_LEVEL, DyadicGrid, Kernel, OrnsteinUhlenbeck, PowerExponential,
                      Problem, SamplerConfig, sample)
from gaussmin.cli import main as cli_main
from conftest import markov_problem, run_python

EXIT_OK, EXIT_NUMERICAL, EXIT_CONFIG = 0, 2, 3


def read_csv(path: Path):
    """Parse one of our CSVs into (header_lines, columns, rows-of-floats-or-str)."""
    headers, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            headers.append(line)
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
            continue
        parsed = []
        for c in cells:
            try:
                parsed.append(float(c))
            except ValueError:
                parsed.append(c)
        rows.append(parsed)
    return headers, columns, rows


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# configuration failures exit 3
# ---------------------------------------------------------------------------


def test_unknown_command_exits_3():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == EXIT_CONFIG


def test_malformed_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


def test_config_that_is_not_utf8_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli_main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


def test_missing_config_file_exits_3(tmp_path):
    assert cli_main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_config_that_is_a_directory_exits_3(tmp_path, capsys):
    assert cli_main(["solve", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert "config error: cannot read --config" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["existing_file", "under_a_file"])
def test_out_that_cannot_be_a_directory_exits_3(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("")
    assert cli_main(["solve", "--preset", "ou", "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert "config error: cannot create --out" in capsys.readouterr().err


def test_non_object_config_exits_3(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert cli_main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


def test_unknown_preset_exits_3(run_cli):
    code, _ = run_cli("solve", extra=["--preset", "not-a-preset"])
    assert code == EXIT_CONFIG


def test_missing_kernel_exits_3(run_cli):
    code, _ = run_cli("solve", config={"interval": [0.0, 1.0]})
    assert code == EXIT_CONFIG


def test_level_out_of_range_exits_3(run_cli):
    code, _ = run_cli("tail", config={"kernel": {"type": "ou"},
                                      "interval": [0.0, 1.0],
                                      "k": MAX_LEVEL + 1, "u_list": [1.0]})
    assert code == EXIT_CONFIG


def test_analytic_rejects_explicit_kernel(run_cli):
    code, _ = run_cli("analytic", config={"kernel": {"type": "explicit",
                                                     "matrix": [[1.0]]}})
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["solve", "tail"])
def test_unsorted_explicit_points_exit_3(run_cli, capsys, command):
    code, out = run_cli(command, config={
        "kernel": {"type": "explicit", "matrix": [[1.0, 0.5], [0.5, 1.0]],
                   "points": [1.0, 0.0]},
        "u_list": [1.0], "n_paths": 100})
    assert code == EXIT_CONFIG
    assert "strictly increasing" in capsys.readouterr().err
    assert list(out.iterdir()) == []


INF_GRAM = {"kernel": {"type": "modulated_bm",
                       "g": {"tabulated": {"x": [1, 2], "g": [1e-200, 1e-200],
                                           "dg": [0, 0], "d2g": [0, 0]}}},
            "interval": [1, 2], "u_list": [1.0], "n_paths": 1000}


@pytest.mark.parametrize("command", ["solve", "tail"])
def test_non_finite_gram_matrix_exits_2(run_cli, capsys, command):
    # g = 1e-200 makes every entry min(s, t) / (g(s) g(t)) inf: factorize
    # refuses it as a numerical failure, before the solver or the sampler runs
    code, _ = run_cli(command, config=INF_GRAM)
    assert code == EXIT_NUMERICAL
    assert "matrix has a NaN or inf entry" in capsys.readouterr().err


def test_diagnose_requires_two_u_values(run_cli):
    code, _ = run_cli("diagnose", config={"kernel": {"type": "ou"},
                                          "interval": [0.0, 1.0], "k": 3,
                                          "u_list": [2.0], "n_paths": 1000})
    assert code == EXIT_CONFIG


def test_smallball_requires_eps_list(run_cli):
    code, _ = run_cli("smallball", config={"kernel": {"type": "ou"},
                                           "interval": [0.0, 1.0], "k": 3,
                                           "n_paths": 1000})
    assert code == EXIT_CONFIG


# every sweep parameter and sampling setting is checked before any pass over
# the paths, so a bad one exits 3, names its key and writes nothing; the
# retired batch_size and u are refused the same way, and so is an unknown key,
# named with the closest known one

OU_K3 = {"kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3, "n_paths": 1000}


@pytest.mark.parametrize("setting, extra", [
    ({"n_paths": 0}, []), ({"batch_size": 512}, []), ({}, ["--threads", "0"]),
    ({"n_paths": 1000.9}, []), ({"seed": 7.5}, []),
    ({"stream": -1}, []), ({"stream": 2**64 - 1}, []), ({"u": 1.0}, []),
    ({"n_path": 1000}, [])],
    ids=["n_paths", "batch_size", "threads", "n_paths_float", "seed_float",
         "stream_negative", "stream_past_diagnose", "u", "n_path"])
def test_bad_sampling_setting_exits_3(run_cli, capsys, setting, extra):
    code, out = run_cli("tail", config=dict(OU_K3, u_list=[1.0], **setting), extra=extra)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{next(iter(setting), 'threads')}'" in err
    if "n_path" in setting:
        assert "did you mean 'n_paths'?" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, key", [("tail", "u_list"), ("argmin", "x_list")])
def test_non_numeric_sweep_parameter_exits_3(run_cli, command, key):
    code, out = run_cli(command, config={**OU_K3, "u_list": [1.0], key: ["a"]})
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


def test_negative_eps_exits_3(run_cli):
    code, out = run_cli("smallball", config=dict(OU_K3, eps_list=[0.5, -0.1]))
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


def test_non_finite_u_exits_3(run_cli):
    # Python's json reads NaN, so the value reaches the config
    code, out = run_cli("tail", config=dict(OU_K3, u_list=[math.nan, 1.0]))
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


def test_argmin_u_labels_must_stay_distinct(run_cli):
    # both values would be labelled u=1: one argmin_u1.csv, one "u=1" key
    code, out = run_cli("argmin", config=dict(OU_K3, argmin_u_list=[1.0, 1.0000001]))
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


def test_negative_argmin_u_exits_3(run_cli):
    code, out = run_cli("argmin", config=dict(OU_K3, argmin_u_list=[1.0, -0.5]))
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("u_list", [[0.0, 1.0], [2.0, 1.0]], ids=["zero", "decreasing"])
def test_diagnose_bad_u_list_exits_3(run_cli, u_list):
    # the fit needs u > 0, strictly increasing; checked before any pass
    code, out = run_cli("diagnose", config={"preset": "ou", "n_paths": 1000,
                                            "u_list": u_list})
    assert code == EXIT_CONFIG
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, key, value", [
    ("tail", "dump_paths", "abc"),
    ("diagnose", "beta", "x"),
    ("solve", "k_min", "2"),
    ("solve", "k_max", 1),       # below k_min = 2
    ("solve", "stop_tol", "tiny"),
    ("analytic", "k", 2.5),
    ("analytic", "cross_check", "false"),
    ("smallball", "u", 1.0),     # retired in every command, not only where u_list is read
    ("solve", "u", 1.0),
    ("analytic", "u", 1.0),
    ("argmin", "u", 1.0),        # the preset sets argmin_u_list
    ("tail", "diagnose_k", "junk"),   # checked though only diagnose reads it
    ("solve", "seed", "abc"),
    ("analytic", "k_min", "x"),
], ids=["dump_paths", "beta", "k_min", "k_max", "stop_tol", "analytic_k", "cross_check",
        "smallball_u", "solve_u", "analytic_u", "argmin_u", "tail_diagnose_k", "solve_seed",
        "analytic_k_min"])
def test_bad_scalar_setting_exits_3(run_cli, capsys, command, key, value):
    code, out = run_cli(command, config={"preset": "ou", "n_paths": 1000, key: value})
    assert code == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kernel, interval, key", [
    ({"type": "power_exponential", "alpha": 1.5}, [0.0, 1.0], "kernel.alpha"),
    ({"type": "modulated_bm", "g": {"power": "x"}}, [1.0, 4.0], "kernel.g.power"),
    ({"type": "ou"}, [1.0, 0.0], "interval"),
    ({"type": "ou"}, [0.0, "1"], "interval"),
    ({"type": "ou", "alpha": 0.5}, [0.0, 1.0], "kernel.alpha"),
    ({"type": "power_exponential", "alpha": "0.5"}, [0.0, 1.0], "kernel.alpha"),
    ({"type": "modulated_bm", "g": {"power": 0.5, "shifted_root": 1}}, [1.0, 4.0], "kernel.g"),
    ({"type": "modulated_bm", "g": {"power": True}}, [1.0, 4.0], "kernel.g.power"),
], ids=["alpha", "scale_power", "reversed_interval", "non_numeric_interval", "ou_alpha",
        "alpha_string", "two_scales", "scale_power_bool"])
def test_bad_kernel_or_interval_exits_3(run_cli, capsys, kernel, interval, key):
    code, out = run_cli("tail", config=dict(OU_K3, kernel=kernel, interval=interval,
                                            u_list=[1.0]))
    assert code == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_explicit_singleton(run_cli):
    code, out = run_cli("solve", config={"kernel": {"type": "explicit",
                                                    "matrix": [[2.5]]}})
    assert code == EXIT_OK
    doc = json.loads((out / "solution.json").read_text())
    assert doc["sigma_star_sq"] == pytest.approx(2.5, rel=1e-12)
    assert doc["certificate"]["passed"] is True
    assert doc["converged"] is True
    headers, columns, rows = read_csv(out / "weights.csv")
    assert len(headers) == 2 and headers[1].startswith("# config:")
    assert columns == ["point", "weight"]
    assert rows == [[0.0, 1.0]]
    assert (out / "refinement.svg").read_text().startswith("<svg")


def test_solve_refinement_trace_is_monotone(run_cli):
    code, out = run_cli("solve", config={"kernel": {"type": "ou"},
                                         "interval": [0.0, 1.0],
                                         "k_min": 2, "k_max": 6})
    assert code == EXIT_OK
    _, columns, rows = read_csv(out / "trace.csv")
    assert columns == ["k", "n_points", "sigma_star_sq"]
    ks = [r[0] for r in rows]
    assert ks[0] == 2 and all(b == a + 1 for a, b in zip(ks, ks[1:]))
    sigmas = [r[2] for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(sigmas, sigmas[1:]))
    assert all(s >= 2 / 3 - 1e-12 for s in sigmas)


def test_solve_creates_nested_out_dir(run_cli, tmp_path):
    code, out = run_cli("solve", config={"kernel": {"type": "explicit",
                                                    "matrix": [[1.0]]}},
                        out=tmp_path / "a" / "b" / "c")
    assert code == EXIT_OK
    assert (out / "solution.json").exists()


def test_solve_single_level_writes_strict_json(run_cli):
    # k_min == k_max leaves no gap between levels; the file must still be
    # RFC 8259 JSON, which has no Infinity or NaN
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out = run_cli("solve", config={"preset": "ou", "k_min": 4, "k_max": 4})
    assert code == EXIT_OK
    doc = json.loads((out / "solution.json").read_text(), parse_constant=reject)
    assert doc["final_gap"] is None
    assert doc["k_final"] == 4


def _how_it_was_solved(run_cli, config: dict) -> tuple:
    code, out = run_cli("solve", config=config)
    assert code == EXIT_OK
    doc = json.loads((out / "solution.json").read_text())
    return doc["route"], doc["method"], doc["support_size"], doc["jitter"]


# a Gauss-Markov kernel solves on its Markov form at every level, and the
# Markov route factors nothing
@pytest.mark.parametrize("preset, k, route, method, support_size, jitter", [
    ("ou", 4, "markov", "theta", 17, None),
    ("example2", 7, "markov", "nnls", 103, None),
])
def test_solution_json_says_how_it_was_solved(run_cli, preset, k, route, method,
                                              support_size, jitter):
    assert _how_it_was_solved(run_cli, {"preset": preset, "k_min": k, "k_max": k}) == (
        route, method, support_size, jitter)


def test_solution_json_says_a_kernel_without_markov_form_solved_dense(run_cli):
    config = {"kernel": {"type": "power_exponential", "alpha": 0.5},
              "interval": [0.0, 1.0], "k_min": 4, "k_max": 4}
    assert _how_it_was_solved(run_cli, config) == ("dense", "theta", 17, 0.0)


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def test_analytic_power_half(run_cli):
    code, out = run_cli("analytic", config={
        "kernel": {"type": "modulated_bm", "g": {"power": 0.5}},
        "interval": [1.0, 4.0], "k": 6})
    assert code == EXIT_OK
    doc = json.loads((out / "analytic.json").read_text())
    assert doc["case"] == "A"
    assert doc["a0"] is None
    assert doc["sigma_star_sq"] == pytest.approx(0.7426255848312643, rel=1e-6)
    assert doc["cross_check"]["sigma_diff"] < 5e-3
    assert doc["cross_check"]["tv_distance"] < 0.1
    assert (out / "measure.csv").exists()


def test_analytic_shifted_root_case_b(run_cli):
    code, out = run_cli("analytic", config={
        "kernel": {"type": "modulated_bm", "g": {"shifted_root": 1.0}},
        "interval": [1.5, 4.0], "cross_check": False})
    assert code == EXIT_OK
    doc = json.loads((out / "analytic.json").read_text())
    assert doc["case"] == "B"
    assert doc["a0"] == pytest.approx(2.0, abs=1e-10)
    assert not (out / "measure.csv").exists()


def test_analytic_ou_interval(run_cli):
    code, out = run_cli("analytic", config={"kernel": {"type": "ou"},
                                            "interval": [0.0, 2.0],
                                            "cross_check": False})
    assert code == EXIT_OK
    doc = json.loads((out / "analytic.json").read_text())
    assert doc["sigma_star_sq"] == pytest.approx(0.5, rel=1e-12)
    assert doc["measure"]["atoms"] == [[0.0, 0.25], [2.0, 0.25]]


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def test_tail_sweep_outputs(run_cli):
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 4,
        "u_list": [0.0, 0.5, 1.0], "n_paths": 20_000})
    assert code == EXIT_OK
    for name in ("tail_crude.csv", "tail_is.csv", "tail_summary.csv", "tail.svg"):
        assert (out / name).exists(), name
    headers, columns, rows = read_csv(out / "tail_summary.csv")
    assert columns[:2] == ["u", "p_crude"]
    assert len(rows) == 3
    # both estimators share the path stream, so they agree tightly
    assert all(r[5] <= 3.0 for r in rows), [r[5] for r in rows]
    # the resolved config is embedded and never mentions the thread count
    cfg = json.loads(headers[1].split("# config:")[1])
    assert cfg["command"] == "tail"
    assert "threads" not in cfg


def test_tail_crude_only_zero_hits_exits_2(run_cli):
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "u_list": [8.0], "n_paths": 5000, "methods": ["crude"]})
    assert code == EXIT_NUMERICAL
    _, _, rows = read_csv(out / "tail_crude.csv")
    assert rows[0][1] == 0.0
    assert not (out / "tail_summary.csv").exists()


def test_tail_zero_crude_hits_exit_0_beside_the_change_of_measure(run_cli, capsys):
    # the crude count is 0 at every u, but the change-of-measure estimate exists
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "u_list": [8.0], "n_paths": 5000})
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    _, _, crude = read_csv(out / "tail_crude.csv")
    _, _, weighted = read_csv(out / "tail_is.csv")
    assert crude[0][1] == 0.0
    assert 0.0 < weighted[0][1] < 1e-20


@pytest.mark.parametrize("methods", [[["is"]], {"is": 1}, [], ["cmc"], "is", ["is", 1]],
                         ids=["nested-list", "dict", "empty", "unknown", "string", "non-string"])
def test_tail_methods_must_be_a_list_of_crude_and_is(run_cli, methods):
    code, out = run_cli("tail", config={"preset": "ou", "n_paths": 1000, "methods": methods})
    assert code == EXIT_CONFIG
    assert not (out / "tail_is.csv").exists()


@pytest.mark.parametrize("methods, once", [(["is", "is"], ["is"]),
                                           (["is", "crude", "is"], ["is", "crude"])])
def test_tail_runs_a_repeated_method_once(run_cli, tmp_path, methods, once):
    # the first occurrence counts: one CSV, one plot line and the config that names it once
    cfg = {"preset": "ou", "k": 3, "n_paths": 2000}
    code_a, out_a = run_cli("tail", config=dict(cfg, methods=methods), out=tmp_path / "a")
    code_b, out_b = run_cli("tail", config=dict(cfg, methods=once), out=tmp_path / "b")
    assert code_a == code_b == EXIT_OK
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_integer_sweep_values_are_written_as_floats(run_cli):
    # the key check leaves the config as given; the command reads u = 1 as 1.0
    code, out = run_cli("tail", config=dict(OU_K3, u_list=[1, 2], methods=["crude"]))
    assert code == EXIT_OK
    lines = (out / "tail_crude.csv").read_text().splitlines()
    assert '"u_list":[1,2]' in lines[1]
    assert [line.split(",")[0] for line in lines[3:]] == ["1.0", "2.0"]


def test_tail_log_values_parse_back(run_cli):
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "u_list": [0.5, 6.0], "n_paths": 5000, "methods": ["is"]})
    assert code == EXIT_OK
    _, _, rows = read_csv(out / "tail_is.csv")
    assert all(isinstance(r[3], float) and math.isfinite(r[3]) for r in rows)
    assert rows[1][4] < 0  # D(u) negative in the far tail


def test_tail_preset_in_config_file(run_cli):
    code, out = run_cli("tail", config={"preset": "ou", "n_paths": 10_000,
                                        "u_list": [0.0, 1.0]})
    assert code == EXIT_OK
    headers, _, _ = read_csv(out / "tail_crude.csv")
    cfg = json.loads(headers[1].split("# config:")[1])
    assert cfg["k"] == 5  # the preset's tail override


def test_preset_flag_wins_over_the_config_files_preset(run_cli):
    # flags override the config file, the preset included
    code, out = run_cli("tail", config={"preset": "example1", "n_paths": 1000,
                                        "u_list": [0.0]},
                        extra=["--preset", "ou"])
    assert code == EXIT_OK
    headers, _, _ = read_csv(out / "tail_crude.csv")
    cfg = json.loads(headers[1].split("# config:")[1])
    assert (cfg["kernel"], cfg["interval"], cfg["k"]) == ({"type": "ou"}, [0.0, 1.0], 5)


def test_tail_builds_gram_factor_and_solution_once(run_cli, monkeypatch):
    # one Problem serves all ten estimates: its Markov form maps the 33-point
    # paths and solves, with no Gram matrix and no Cholesky factor, and one
    # certificate comes from that solve (every certificate, the solver's and
    # certify's, is made by optimizer._report)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Kernel, "gram", counted("gram", Kernel.gram))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(gaussmin.optimizer, "cho_factor",
                        counted("cholesky", gaussmin.optimizer.cho_factor))
    monkeypatch.setattr(gaussmin.optimizer, "_report",
                        counted("certify", gaussmin.optimizer._report))
    code, _ = run_cli("tail", config={"preset": "ou", "n_paths": 2000})
    assert code == EXIT_OK
    assert calls == {"certify": 1}


SMALL_STUDY = {"name": "ou", "preset": "ou", "k": 3, "k_min": 2, "k_max": 4,
               "n_paths": 2000, "u_list": [0.0, 1.0], "argmin_u_list": [1.0],
               "x_list": [1.0], "diagnose_u_list": [1.0, 2.0], "diagnose_k": 4}


def test_report_study_builds_each_grid_once(run_cli, monkeypatch):
    # analytic, tail and argmin share one k=3 Problem, and diagnose samples
    # refine's final k=4 Problem; each solves and samples on its Markov form,
    # and refine's levels 2, 3 and 4 solve on theirs, so none builds a Gram
    # matrix or a Cholesky factor.
    grams, choleskys = Counter(), Counter()
    gram, cholesky = Kernel.gram, np.linalg.cholesky

    def counted_gram(self, grid):
        grams[grid.n] += 1
        return gram(self, grid)

    def counted_cholesky(a):
        choleskys[a.shape[0]] += 1
        return cholesky(a)

    monkeypatch.setattr(Kernel, "gram", counted_gram)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    code, out = run_cli("report", config={"studies": [SMALL_STUDY]})
    assert code == EXIT_OK
    _, _, trace = read_csv(out / "ou" / "solve" / "trace.csv")
    assert [row[0] for row in trace] == [2, 3, 4]
    assert grams == choleskys == {}


def embedded_config(stage_dir: Path) -> dict:
    """The resolved config a stage's output embeds."""
    for path in sorted(stage_dir.iterdir()):
        if path.suffix == ".json":
            return json.loads(path.read_text())["config"]
        if path.suffix == ".csv":
            return json.loads(read_csv(path)[0][1].split("# config:")[1])
    raise AssertionError(f"no config in {stage_dir}")


# example2 at k=4 charges 14 of 17 points, so its tail and argmin stages
# share the shifted paths of u = 1 and 2 in one pass
EXAMPLE2_STUDY = {"name": "example2", "preset": "example2", "k": 4, "k_min": 2, "k_max": 4,
                  "n_paths": 2000}


@pytest.mark.parametrize("study, stages", [
    (SMALL_STUDY, gaussmin.cli.STAGES),
    (EXAMPLE2_STUDY, ("solve", "analytic", "tail", "argmin")),   # no diagnose_u_list
], ids=["ou", "example2"])
def test_report_stage_is_byte_identical_to_its_standalone_run(run_cli, tmp_path, study, stages):
    # sharing a study's Problems and passes cannot move a byte: rerunning
    # every stage on the config its output embeds, with its own Problems and
    # its own pass, writes the same files
    code, out = run_cli("report", config={"studies": [study]}, out=tmp_path / "rep")
    assert code == EXIT_OK
    study_dir = out / study["name"]
    assert sorted(p.name for p in study_dir.iterdir()) == sorted(stages)
    for stage in stages:
        code, alone = run_cli(stage, config=embedded_config(study_dir / stage),
                              out=tmp_path / f"alone_{stage}")
        assert code == EXIT_OK
        assert tree_bytes(alone) == tree_bytes(study_dir / stage), stage


@pytest.mark.parametrize("kernel, interval", [
    ({"type": "ou"}, [0.0, 1.0]),
    ({"type": "power_exponential", "alpha": 0.5}, [0.0, 1.0]),
    ({"type": "modulated_bm", "g": {"power": 0.5}}, [1.0, 2.0]),
    ({"type": "explicit", "matrix": [[1.0, 0.5], [0.5, 1.0]]}, None),
])
def test_report_skips_analytic_exactly_when_analytic_exits_3(run_cli, tmp_path, kernel,
                                                             interval):
    study = {"kernel": kernel, "k": 2, "k_min": 2, "k_max": 2, "n_paths": 500,
             "u_list": [0.0], "argmin_u_list": [0.0], "x_list": []}
    if interval is not None:
        study["interval"] = interval
    code, _ = run_cli("analytic", config=study, out=tmp_path / "analytic")
    _, out = run_cli("report", config={"studies": [{"name": "s", **study}]},
                     out=tmp_path / "report")
    lines = report_sections((out / "report.md").read_text())["s"]
    skipped = "- analytic: skipped (no closed form for this kernel)" in lines
    assert skipped == (code == EXIT_CONFIG)
    assert (out / "s" / "analytic").exists() == (not skipped)
    assert code in (EXIT_OK, EXIT_CONFIG)


@pytest.mark.parametrize("kernel", ["ou", {"type": "frobnicate"}])
def test_report_study_with_a_bad_kernel_exits_3_before_any_stage(run_cli, capsys, kernel):
    # a bad kernel is a config error, with no traceback, found before any stage writes
    code, out = run_cli("report", config={"studies": [
        {"name": "s", "kernel": kernel, "interval": [0.0, 1.0], "u_list": [0.0]}]})
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: 'studies[0].kernel' must be")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kernel, message", [
    ({"type": "ou", "alpha": 1}, "unknown key 'studies[0].kernel.alpha'"),
    ({"type": "modulated_bm", "g": {"power": 2}}, "'studies[0].kernel.g.power' must be"),
], ids=["unknown_key", "bad_value"])
def test_a_study_kernel_key_error_names_the_study(run_cli, capsys, kernel, message):
    code, out = run_cli("report", config={"studies": [
        {"name": "a", "preset": "ou", "kernel": kernel, "interval": [1.0, 4.0]}]})
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert list(out.iterdir()) == []


def test_a_study_samples_on_its_own_threads(run_cli, monkeypatch):
    # a study's threads wins over the master's, as its seed does, and a null
    # one is unset
    workers, run_sweeps = [], gaussmin.cli.run_sweeps

    def spied(problem, config, sweeps):
        workers.append(config.workers)
        return run_sweeps(problem, config, sweeps)

    monkeypatch.setattr(gaussmin.cli, "run_sweeps", spied)
    study = {k: v for k, v in SMALL_STUDY.items() if not k.startswith("diagnose")}
    code, _ = run_cli("report", config={"threads": 2, "studies": [
        dict(study, name="own", threads=1), dict(study, name="master"),
        dict(study, name="null", threads=None)]})
    assert code == EXIT_OK
    assert workers == [1, 2, 2]


@pytest.mark.parametrize("command, config, passes", [
    ("tail", {}, 1),                      # IS over every u, counting the crude hits too
    # argmin over every u and m_x over every x share one pass (x = 0.25 needs
    # far more paths)
    ("argmin", {"x_list": [1.0, 0.5]}, 1),
    ("argmin", {"x_list": []}, 1),
    ("smallball", {}, 1),
    ("tail", {"methods": ["crude"]}, 1),  # crude alone: the hits of tail_is's one pass
    ("tail", {"methods": ["is"]}, 1),
    # tail, argmin and m_x share one pass; diagnose draws its own on stream + 1
    ("report", {"studies": [dict(SMALL_STUDY, n_paths=3000)]}, 2),
])
def test_sweep_draws_each_path_once_per_estimator(run_cli, monkeypatch, command, config,
                                                  passes):
    # each estimator folds its whole parameter list from one pass over the
    # paths, and the sweeps of a command (or a study) on one Problem and
    # sampling plan share it: each pass asks once for paths [0, 3000), one
    # batch at 33 points (a survivors-only batch returns fewer rows)
    asked = []
    sample = gaussmin.estimators.sample

    def counted(route, grid, config, start, count, *rest):
        asked.append((start, count))
        return sample(route, grid, config, start, count, *rest)

    monkeypatch.setattr(gaussmin.estimators, "sample", counted)
    code, _ = run_cli(command, config={"preset": "ou", "n_paths": 3000, **config})
    assert code == EXIT_OK
    assert asked == [(0, 3000)] * passes


def test_tail_dump_paths(run_cli):
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 2,
        "u_list": [1.0], "n_paths": 2000, "dump_paths": 50})
    assert code == EXIT_OK
    _, columns, rows = read_csv(out / "paths.csv")
    assert columns == [f"x{i}" for i in range(5)]
    assert len(rows) == 50


def test_tail_dump_draws_the_pass_batches(run_cli, monkeypatch, row_cap):
    # the dump draws its paths in the pass's own batches, one at a time, and
    # keeps the rows it needs of the last; it draws whole paths, where the
    # pass (every u >= 0) draws survivors only
    row_cap(256)
    drawn = []
    sample = gaussmin.estimators.sample

    def counted(route, grid, config, start, count, support, survivors_only):
        if not survivors_only:
            drawn.append((start, count))
        return sample(route, grid, config, start, count, support, survivors_only)

    monkeypatch.setattr(gaussmin.estimators, "sample", counted)
    code, out = run_cli("tail", config={"preset": "ou", "n_paths": 2000, "dump_paths": 600})
    assert code == EXIT_OK
    assert drawn == [(0, 256), (256, 256), (512, 256)]
    problem = Problem(OrnsteinUhlenbeck(), DyadicGrid(0.0, 1.0, 5))
    paths = sample(problem.route, problem.grid, SamplerConfig(seed=12345, n_paths=600),
                   support=problem.solution.support)
    _, _, rows = read_csv(out / "paths.csv")
    assert np.array_equal(np.array(rows), paths.values)


def test_a_dense_dump_reads_no_solution():
    # only a staged route orders its paths by the support
    problem = Problem(PowerExponential(0.5), DyadicGrid(0.0, 1.0, 5))
    paths = list(gaussmin.cli._first_paths(problem, SamplerConfig(seed=1, n_paths=600), 300))
    assert len(paths) == 300 and "solution" not in vars(problem)


def test_staged_tail_dump_draws_the_pass_rows(run_cli, monkeypatch, row_cap):
    # at 257 points the pass completes only the paths alive on the support's
    # prefix points, and the dump draws every path whole in the pass's
    # batches: each path the pass drew is the dumped path of its index. The
    # pass draws survivors only, and the dump whole paths
    row_cap(256)
    passed, dumped = [], []
    sample = gaussmin.estimators.sample

    def counted(*args):
        batch = sample(*args)
        (passed if args[-1] else dumped).append(batch)   # the last is survivors_only
        return batch

    monkeypatch.setattr(gaussmin.estimators, "sample", counted)
    code, out = run_cli("tail", config={"preset": "example1", "k": 8, "n_paths": 2000,
                                        "dump_paths": 600})
    assert code == EXIT_OK
    assert [(b.start_index, len(b.values)) for b in dumped] == [(0, 256), (256, 256), (512, 256)]
    _, _, rows = read_csv(out / "paths.csv")
    rows = np.array(rows)
    assert np.array_equal(rows, np.vstack([b.values for b in dumped])[:600])
    survivors = [(b.index[b.index < 600], b.values[b.index < 600]) for b in passed]
    index = np.concatenate([i for i, _ in survivors])
    assert 0 < index.size < 600
    assert np.array_equal(np.vstack([v for _, v in survivors]), rows[index])


# ---------------------------------------------------------------------------
# argmin
# ---------------------------------------------------------------------------


def test_argmin_outputs_and_ess(run_cli):
    code, out = run_cli("argmin", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "argmin_u_list": [0.5], "x_list": [1.0], "n_paths": 20_000})
    assert code == EXIT_OK
    doc = json.loads((out / "argmin.json").read_text())
    assert doc["results"]["u=0.5"]["ess"] > 100
    assert 0 <= doc["results"]["u=0.5"]["tv_to_optimal"] <= 1
    assert "tv_to_optimal" in doc["results"]["x=1"]
    _, columns, rows = read_csv(out / "argmin_u0.5.csv")
    assert columns == ["point", "weight"]
    assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert (out / "mx_x1.csv").exists()
    assert (out / "argmin.svg").exists()


def test_argmin_low_ess_warns_and_exits_2(run_cli):
    code, out = run_cli("argmin", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "argmin_u_list": [3.0], "n_paths": 1000})
    assert code == EXIT_NUMERICAL
    doc = json.loads((out / "argmin.json").read_text())
    assert doc["results"]["u=3"]["ess"] < 100


def test_argmin_impossible_threshold_exits_2(run_cli):
    code, out = run_cli("argmin", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "argmin_u_list": [0.0], "x_list": [1e-12], "n_paths": 2000})
    assert code == EXIT_NUMERICAL
    doc = json.loads((out / "argmin.json").read_text())
    assert "failed" in doc["results"]["x=1e-12"]


# ---------------------------------------------------------------------------
# smallball and diagnose
# ---------------------------------------------------------------------------


def test_smallball_decreasing(run_cli):
    code, out = run_cli("smallball", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 4,
        "eps_list": [1.0, 0.8, 0.6], "n_paths": 20_000})
    assert code == EXIT_OK
    _, columns, rows = read_csv(out / "smallball.csv")
    assert columns == ["eps", "p_hat", "stderr", "log_p", "hits"]
    vals = [r[1] for r in rows]
    assert vals[0] > vals[1] > vals[2] > 0
    assert (out / "smallball.svg").exists()


def test_smallball_zstar_mode(run_cli):
    code, out = run_cli("smallball", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
        "eps_list": [0.5], "mode": "zstar", "n_paths": 10_000})
    assert code == EXIT_OK
    _, _, rows = read_csv(out / "smallball.csv")
    assert 0 < rows[0][1] < 1


def test_diagnose_outputs(run_cli):
    code, out = run_cli("diagnose", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 4,
        "u_list": [1.0, 2.0, 3.0], "beta": 1.0, "n_paths": 20_000})
    assert code == EXIT_OK
    doc = json.loads((out / "diagnose.json").read_text())
    for key in ("exponent", "intercept", "exponent_halfwidth", "excluded_u",
                "beta", "lower_bound_exponent", "sigma_star_sq", "rows"):
        assert key in doc, key
    # the config's beta, and the proved lower-bound exponent 1/(beta+1)
    assert (doc["beta"], doc["lower_bound_exponent"]) == (1.0, 0.5)
    assert (doc["halfwidth_method"], doc["groups"]) == ("jackknife", 10)
    assert len(doc["rows"]) == 3
    _, columns, rows = read_csv(out / "diagnose.csv")
    assert columns == ["u", "p_hat", "stderr", "log_p", "D_u"]
    assert (out / "diagnose.svg").exists()


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("preset, cfg, seed, excluded", [
    # one path of three survives: every u fits, no fit without its group does
    # (seed 4 is the first seed from 1 that draws this)
    ("ou", {"n_paths": 3, "u_list": [2.0, 3.0, 4.0]}, 4, []),
    # partial support: no path survives the tests of the two smallest u (seed
    # 200 is the first seed from 1 that draws this; 6 of seeds 1 to 2000 do)
    ("example2", {"n_paths": 10, "u_list": [0.5, 1.0, 2.0, 4.0]}, 200, [0.5, 1.0]),
])
def test_diagnose_writes_strict_json_when_paths_are_few(run_cli, preset, cfg, seed, excluded):
    code, out = run_cli("diagnose", config=cfg, extra=["--preset", preset, "--seed", str(seed)])
    assert code == EXIT_OK
    doc = json.loads((out / "diagnose.json").read_text(), parse_constant=_no_constant)
    assert math.isfinite(doc["exponent"])
    assert doc["exponent_halfwidth"] is None
    assert doc["excluded_u"] == excluded
    for row in doc["rows"]:
        assert (row["D"] is None) == (row["u"] in excluded)


@pytest.mark.parametrize("rows", [1, 256, 777])
@pytest.mark.parametrize("command, preset, k", [
    pytest.param("tail", "example1", 8, id="tail-example1"),
    pytest.param("argmin", "example2", 8, id="argmin-example2"),
    pytest.param("diagnose", "ou", 8, id="diagnose-ou"),
    pytest.param("argmin", "example2", 6, id="argmin-example2-65"),
])
def test_staged_outputs_are_byte_identical_across_threads(run_cli, tmp_path, row_cap, command,
                                                          preset, k, rows):
    # criterion 10 at 257 and 65 points, where the passes complete only the
    # paths alive on the support's prefix points: each batch cap gives the
    # same bytes with 1 and 2 threads
    row_cap(rows)
    cfg = {"preset": preset, "k": k, "n_paths": 2001}
    trees = []
    for threads in (1, 2):
        code, out = run_cli(command, config=cfg, out=tmp_path / f"t{threads}",
                            extra=["--threads", str(threads)])
        assert code == EXIT_OK
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_diagnose_thread_count_is_byte_invisible(run_cli, tmp_path, row_cap):
    row_cap(777)
    cfg = {"preset": "ou", "n_paths": 20_001}
    code_a, out_a = run_cli("diagnose", config=cfg, out=tmp_path / "t1",
                            extra=["--threads", "1"])
    code_b, out_b = run_cli("diagnose", config=cfg, out=tmp_path / "t2",
                            extra=["--threads", "2"])
    assert code_a == code_b == EXIT_OK
    assert tree_bytes(out_a) == tree_bytes(out_b)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_with_no_studies(run_cli):
    code, out = run_cli("report", config={"studies": []})
    assert code == EXIT_OK
    text = (out / "report.md").read_text()
    assert text.startswith("# reproduction report")


@pytest.mark.parametrize("bad", [
    {"name": "../escaped"}, {"name": ""}, {"name": 7}, {"name": "ok"}, {"name": "."},
    {"name": ".."}, {"name": "a/b"}, {"name": "a\\b"}, {"name": "report.md"},
    {"name": "a", "k_max": 3, "seed": "x"}, {"name": "a", "threads": 0}],
    ids=["parent", "empty", "not_a_string", "duplicate", "dot", "dotdot", "slash",
         "backslash", "report_file", "seed", "threads"])
def test_report_bad_study_name_exits_3_before_any_stage(run_cli, tmp_path, bad):
    # a study's name is its directory under --out: a bad one is refused
    # before the good study ahead of it runs, and nothing is written anywhere;
    # so is any other bad key of a study
    code, out = run_cli("report", config={"studies": [
        {"name": "ok", "preset": "ou", "n_paths": 1000},
        {"preset": "ou", "n_paths": 1000, **bad}]})
    assert code == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "report_config.json"]
    assert list(out.iterdir()) == []


def report_sections(text: str) -> dict[str, list[str]]:
    """report.md's non-empty lines under each '## study:' heading."""
    return {name: [line for line in lines if line]
            for name, *lines in (chunk.splitlines()
                                 for chunk in text.split("\n## study: ")[1:])}


def test_report_full_preset(run_cli, tmp_path):
    code, out = run_cli("report", extra=["--preset", "full_repro"],
                        out=tmp_path / "rep1")
    assert code == EXIT_OK
    text = (out / "report.md").read_text()
    assert "FAILED" not in text
    sections = report_sections(text)
    assert list(sections) == ["ou", "example1", "example2"]
    # every number in the report is the one in that stage's output file
    for study, lines in sections.items():
        sdir = out / study
        sol = json.loads((sdir / "solve" / "solution.json").read_text())
        assert sol["certificate"]["passed"] is True
        assert (f"  - sigma*^2 = {sol['sigma_star_sq']:.8f} at k={sol['k_final']} "
                f"(certificate pass: True)") in lines
        ana = json.loads((sdir / "analytic" / "analytic.json").read_text())
        cc = ana["cross_check"]
        assert (f"  - case {ana['case']}, a0 = {ana['a0']}, "
                f"sigma*^2 = {ana['sigma_star_sq']:.8f}, "
                f"total mass {ana['total_mass']:.8f}") in lines
        assert (f"  - solver cross-check at k={cc['k']}: tv = {cc['tv_distance']:.4f}, "
                f"sigma diff = {cc['sigma_diff']:.2e}") in lines
        _, _, rows = read_csv(sdir / "tail" / "tail_summary.csv")
        assert [line for line in lines if line.startswith("  - | ") and "crude" not in line] \
            == [f"  - | {r[0]!r} | {r[1]:.3e} | {r[3]:.3e} | {r[5]:.2f} |" for r in rows]
        if (sdir / "diagnose" / "diagnose.json").exists():
            diag = json.loads((sdir / "diagnose" / "diagnose.json").read_text())
            assert (f"  - fitted correction exponent {diag['exponent']:.3f} "
                    f"(jackknife half-width {diag['exponent_halfwidth']:.3f}); "
                    f"excluded u: {diag['excluded_u']}") in lines
        else:
            assert "- diagnose: skipped (no diagnose_u_list)" in lines
        results = json.loads((sdir / "argmin" / "argmin.json").read_text())["results"]
        assert [line for line in lines if "tv to optimal" in line] == [
            f"  - {key}: tv to optimal = {val['tv_to_optimal']:.4f}"
            + (f", ess = {val['ess']:.0f}" if "ess" in val else "")
            for key, val in results.items()]
    assert (out / "ou" / "diagnose" / "diagnose.json").exists()


def test_report_says_when_the_jackknife_has_no_halfwidth():
    result = {"exponent": 0.5, "exponent_halfwidth": None, "excluded_u": [],
              "lower_bound_exponent": None}
    assert gaussmin.cli._stage_summary("diagnose", result, "s")[0] == (
        "  - fitted correction exponent 0.500 (jackknife half-width n/a); excluded u: []")


def test_report_single_tail_method_prints_no_table(run_cli):
    code, out = run_cli("report", config={"studies": [{
        "name": "is_only", "preset": "ou", "k": 3, "k_max": 4, "n_paths": 2000,
        "methods": ["is"], "argmin_u_list": [1.0], "x_list": []}]})
    assert code == EXIT_OK
    lines = report_sections((out / "report.md").read_text())["is_only"]
    tail = lines.index("- tail: ok")
    assert lines[tail + 1] == "- diagnose: skipped (no diagnose_u_list)"
    assert not (out / "is_only" / "tail" / "tail_summary.csv").exists()


# ---------------------------------------------------------------------------
# reproducibility contracts
# ---------------------------------------------------------------------------


def test_rerun_is_byte_identical(run_cli, tmp_path):
    cfg = {"kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
           "u_list": [0.0, 1.0], "n_paths": 5000}
    code_a, out_a = run_cli("tail", config=cfg, out=tmp_path / "a")
    code_b, out_b = run_cli("tail", config=cfg, out=tmp_path / "b")
    assert code_a == code_b == EXIT_OK
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_thread_count_is_byte_invisible(run_cli, tmp_path, row_cap):
    row_cap(512)
    cfg = {"kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
           "u_list": [0.0, 1.0], "n_paths": 5000}
    code_a, out_a = run_cli("tail", config=cfg, out=tmp_path / "t1",
                            extra=["--threads", "1"])
    code_b, out_b = run_cli("tail", config=cfg, out=tmp_path / "t8",
                            extra=["--threads", "8"])
    assert code_a == code_b == EXIT_OK
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_seed_flag_changes_results(run_cli, tmp_path):
    cfg = {"kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
           "u_list": [0.5], "n_paths": 5000, "methods": ["crude"]}
    _, out_a = run_cli("tail", config=cfg, out=tmp_path / "s1", extra=["--seed", "1"])
    _, out_b = run_cli("tail", config=cfg, out=tmp_path / "s2", extra=["--seed", "2"])
    _, _, rows_a = read_csv(out_a / "tail_crude.csv")
    _, _, rows_b = read_csv(out_b / "tail_crude.csv")
    assert rows_a[0][1] != rows_b[0][1]


# ---------------------------------------------------------------------------
# startup
# ---------------------------------------------------------------------------


def test_perfbench_tracer_finds_every_name_it_patches():
    # perfbench/tracer.py wraps gaussmin's functions at their lookup names;
    # install raises AttributeError if one of those names is gone
    tracer_dir = Path(__file__).resolve().parents[1] / "perfbench"
    res = run_python(["-c", f"import sys; sys.path.insert(0, {str(tracer_dir)!r}); "
                            "from tracer import Tracer, install; install(Tracer())"])
    assert res.returncode == 0, res.stderr


def test_presets_and_benchmark_configs_pass_the_key_check(tmp_path):
    # every preset resolves for every command, and so do the argv and config
    # of each perfbench workload: a refused benchmark config would fail every
    # benchmark run. The check imports difflib only to name a refused key, so
    # a valid run leaves it out, and the benchmark's setup_s pays nothing for it
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = f"""
import importlib.util, sys
from gaussmin import cli
for preset in cli.PRESETS:
    for command in cli.COMMANDS:
        cli.resolve_config(command, None, preset, None, None)
code = cli.main(["analytic", "--preset", "ou", "--out", {str(tmp_path / "out")!r}])
print(code, "difflib" in sys.modules)
sys.path.insert(0, {str(perfbench)!r})
spec = importlib.util.spec_from_file_location("perfbench_run", {str(perfbench / "run.py")!r})
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
for workload in run.WORKLOADS.values():
    args = cli.build_parser().parse_args(workload["argv"])
    cli.resolve_config(args.command, workload["config"], args.preset, args.seed, args.threads)
print(sorted(run.WORKLOADS))
"""
    res = run_python(["-c", script])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [f"{EXIT_OK} False",
                                       "['fine_grid', 'report_full', 'tail_sweep']"]


@pytest.mark.parametrize("command, config", [
    ("tail", {"preset": "ou", "n_paths": 3000}),
    ("tail", {"preset": "ou", "n_paths": 3000, "methods": ["crude"]}),
    ("tail", {"preset": "ou", "n_paths": 3000, "methods": ["is"]}),
    ("tail", {"preset": "example1", "k": 7, "n_paths": 3000, "methods": ["is"]}),
    ("report", {"studies": [SMALL_STUDY]}),
], ids=["tail", "tail-crude", "tail-is", "tail-is-markov", "report"])
def test_traced_run_gives_finite_layer_metrics(tmp_path, command, config):
    # every path must be drawn inside a span the tracer opens for an estimator
    # name: a sample outside them leaves the estimator wall time 0, and
    # gauss_sim.parallelism NaN, which the benchmark's JSON result line cannot
    # carry. Likewise every solve, on either route, must run inside the traced
    # solve_simplex_qp, or optimizer.solve.reuse is NaN (every preset kernel
    # solves on its (r, q))
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    cfg_path, spans_path = tmp_path / "config.json", tmp_path / "spans.json"
    cfg_path.write_text(json.dumps(config))
    t0 = time.perf_counter()
    res = run_python([str(perfbench / "child.py"), str(tmp_path / "record.json"),
                      "--trace", str(spans_path), "--", command, "--config", str(cfg_path),
                      "--out", str(tmp_path / "out"), "--threads", "2"])
    wall_s = time.perf_counter() - t0
    assert res.returncode == EXIT_OK, res.stderr
    spec = importlib.util.spec_from_file_location("perfbench_layers", perfbench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.layer_metrics(json.loads(spans_path.read_text())["spans"], wall_s)
    json.dumps(metrics, allow_nan=False)
    assert metrics["optimizer.solve.calls"][0] >= 1
    if command == "tail":   # staged paths: the tail reads, and the pass completes, survivors
        problem = markov_problem(config["preset"], config.get("k", 5))
        drawn = len(sample(problem.route, problem.grid, SamplerConfig(12345, 3000),
                           support=problem.solution.support, survivors_only=True).values)
        assert 0 < drawn < 3000
        assert metrics["estimators.paths_drawn"][0] == drawn
        assert metrics["estimators.path_reuse"][0] == 1.0


def test_cli_import_leaves_out_scipy_optimize_and_interpolate():
    # NNLS and the PCHIP interpolant are imported only where they are used
    res = run_python(["-c", "import sys, gaussmin.cli; print(' '.join(sorted("
                            "m for m in ('scipy.optimize', 'scipy.interpolate') "
                            "if m in sys.modules)))"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""


def test_preset_commands_load_no_scipy(tmp_path):
    # the normals come from numpy's generator, and every preset kernel solves
    # and sums its closed-form checks on its Markov form, so neither the import
    # nor any of the seven preset commands loads scipy, staged paths included
    runs = [("tail", {"preset": "ou", "n_paths": 2000}),
            ("tail", {"preset": "example1", "k": 8, "n_paths": 2000}),
            ("argmin", {"preset": "example2", "n_paths": 2000}),
            ("diagnose", {"preset": "ou", "n_paths": 2000}),
            ("analytic", {"preset": "example1"}),
            ("solve", {"preset": "example2"}),
            ("smallball", {"preset": "ou", "n_paths": 2000}),
            ("report", {"studies": [SMALL_STUDY]})]
    argvs = []
    for i, (command, config) in enumerate(runs):
        cfg = tmp_path / f"config{i}.json"
        cfg.write_text(json.dumps(config))
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"out{i}")])
    res = run_python(["-c", "import json, sys, gaussmin.cli\n"
                            "def scipy():\n"
                            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                            "print('scipy:', json.dumps(['import', 0, scipy()]))\n"
                            f"for argv in {argvs!r}:\n"
                            "    code = gaussmin.cli.main(argv)\n"
                            "    print('scipy:', json.dumps([argv[0], code, scipy()]))"])
    assert res.returncode == 0, res.stderr
    lines = [json.loads(line[len("scipy:"):]) for line in res.stdout.splitlines()
             if line.startswith("scipy:")]
    assert [line[0] for line in lines] == ["import", *(command for command, _ in runs)]
    for name, code, modules in lines:
        assert (code, modules) == (EXIT_OK, []), name


def test_dense_nnls_leaves_out_scipy_optimize(tmp_path):
    # an explicit Gram matrix solves on the dense route, and this one's
    # optimum charges only its second point (Sigma^-1 1 = (-1.25, 2.5)), so
    # the active set runs there without scipy.optimize
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"kernel": {"type": "explicit",
                                          "matrix": [[1.0, 0.9], [0.9, 0.85]]}}))
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    res = run_python(["-c", "import sys, gaussmin.cli; "
                            f"code = gaussmin.cli.main({argv!r}); "
                            "print(code, 'scipy.optimize' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(gaussmin.cli.EXIT_OK), "False"]
    doc = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert (doc["route"], doc["method"], doc["support_size"]) == ("dense", "nnls", 1)
