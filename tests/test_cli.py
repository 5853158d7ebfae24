"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gaussmin.cli
import gaussmin.estimators
import gaussmin.optimizer
from gaussmin import MAX_LEVEL, Kernel
from gaussmin.cli import main as cli_main
from conftest import run_python

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


def test_missing_config_file_exits_3(tmp_path):
    assert cli_main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


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
                                      "k": MAX_LEVEL + 1, "u": 1.0})
    assert code == EXIT_CONFIG


def test_analytic_rejects_explicit_kernel(run_cli):
    code, _ = run_cli("analytic", config={"kernel": {"type": "explicit",
                                                     "matrix": [[1.0]]}})
    assert code == EXIT_CONFIG


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


def test_tail_builds_gram_factor_and_solution_once(run_cli, monkeypatch):
    # one Problem serves all ten estimates: one Gram matrix, one Cholesky
    # factor shared by the sampler and the solver, and one certificate
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
    for mod in (gaussmin.optimizer, gaussmin.estimators, gaussmin.cli):
        monkeypatch.setattr(mod, "certify", counted("certify", mod.certify))
    code, _ = run_cli("tail", config={"preset": "ou", "n_paths": 2000})
    assert code == EXIT_OK
    assert calls == {"gram": 1, "cholesky": 1, "certify": 1}


def test_tail_dump_paths(run_cli):
    code, out = run_cli("tail", config={
        "kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 2,
        "u": 1.0, "n_paths": 2000, "dump_paths": 50})
    assert code == EXIT_OK
    _, columns, rows = read_csv(out / "paths.csv")
    assert columns == [f"x{i}" for i in range(5)]
    assert len(rows) == 50


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
    assert doc["lower_bound_exponent"] == pytest.approx(0.5)
    assert len(doc["rows"]) == 3
    _, columns, rows = read_csv(out / "diagnose.csv")
    assert columns == ["u", "p_hat", "stderr", "log_p", "D_u"]
    assert (out / "diagnose.svg").exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_with_no_studies(run_cli):
    code, out = run_cli("report", config={"studies": []})
    assert code == EXIT_OK
    text = (out / "report.md").read_text()
    assert text.startswith("# reproduction report")


def test_report_full_preset(run_cli, tmp_path):
    code, out = run_cli("report", extra=["--preset", "full_repro"],
                        out=tmp_path / "rep1")
    assert code == EXIT_OK
    text = (out / "report.md").read_text()
    assert "FAILED" not in text
    for study in ("ou", "example1", "example2"):
        assert f"## study: {study}" in text
        assert (out / study / "solve" / "solution.json").exists()
    assert (out / "ou" / "diagnose" / "diagnose.json").exists()


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


def test_thread_count_is_byte_invisible(run_cli, tmp_path):
    cfg = {"kernel": {"type": "ou"}, "interval": [0.0, 1.0], "k": 3,
           "u_list": [0.0, 1.0], "n_paths": 5000, "batch_size": 512}
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


def test_cli_import_leaves_out_scipy_optimize_and_interpolate():
    # NNLS and the PCHIP interpolant are imported only where they are used
    res = run_python(["-c", "import sys, gaussmin.cli; print(' '.join(sorted("
                            "m for m in ('scipy.optimize', 'scipy.interpolate') "
                            "if m in sys.modules)))"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""
