"""Shared fixtures: kernels, problems (Gram, factor, certified solution) and a CLI runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussmin
from gaussmin import (
    DyadicGrid,
    ModulatedBrownian,
    OrnsteinUhlenbeck,
    PowerExponential,
    PowerScale,
    Problem,
    SamplerConfig,
    ShiftedRootScale,
)
from gaussmin import estimators, gauss_sim
from gaussmin.cli import main as cli_main

# the three Gauss-Markov presets' kernels and intervals
MARKOV_KERNELS = {
    "ou": (OrnsteinUhlenbeck(), 0.0, 1.0),
    "example1": (ModulatedBrownian(PowerScale(0.5), 1.0, 4.0), 1.0, 4.0),
    "example2": (ModulatedBrownian(ShiftedRootScale(1.0), 1.5, 4.0), 1.5, 4.0),
}


def markov_problem(name: str, k: int) -> Problem:
    """The Problem of MARKOV_KERNELS[name] on its level-k dyadic grid."""
    kern, a, b = MARKOV_KERNELS[name]
    return Problem(kern, DyadicGrid(a, b, k))


@pytest.fixture(scope="session")
def ou():
    return OrnsteinUhlenbeck()


@pytest.fixture(scope="session")
def pe_half():
    return PowerExponential(0.5)


@pytest.fixture(scope="session")
def ou_grid_k2():
    return DyadicGrid(0.0, 1.0, 2)


@pytest.fixture(scope="session")
def ou_grid_k5():
    return DyadicGrid(0.0, 1.0, 5)


@pytest.fixture(scope="session")
def ou_problem_k2(ou, ou_grid_k2):
    return Problem(ou, ou_grid_k2)


@pytest.fixture(scope="session")
def ou_problem_k5(ou, ou_grid_k5):
    return Problem(ou, ou_grid_k5)


def make_config(seed=4242, n_paths=100_000, **kw) -> SamplerConfig:
    return SamplerConfig(seed=seed, n_paths=n_paths, **kw)


@pytest.fixture
def row_cap(monkeypatch):
    """``row_cap(rows)`` caps every pass's batches at ``rows`` paths for the
    rest of the test, so that few paths make many batches: ``batches`` cuts a
    pass by ``estimators.block_rows``, while ``sample`` addresses the paths by
    gauss_sim's own, so the cap cuts blocks and moves no path."""
    return lambda rows: monkeypatch.setattr(
        estimators, "block_rows", lambda n: min(rows, gauss_sim.block_rows(n)))


def run_python(args: list[str], timeout: float = 120,
               env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the same gaussmin as this test
    session, with ``env`` added to this process's environment."""
    src = str(Path(gaussmin.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}), PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def random_psd(rng: np.random.Generator, n: int, ridge: float = 0.05) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + ridge * np.eye(n)


@pytest.fixture
def run_cli(tmp_path):
    """Invoke the command line entry point in-process against a temp out dir."""

    def run(command: str, config: dict | None = None, out: str | Path | None = None,
            extra: list[str] | None = None) -> tuple[int, Path]:
        out_dir = Path(out) if out is not None else tmp_path / "out"
        argv = [command, "--out", str(out_dir)]
        if config is not None:
            cfg_path = tmp_path / f"{command}_config.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        argv += extra or []
        return cli_main(argv), out_dir

    return run
