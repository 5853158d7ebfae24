"""Shared fixtures: kernels, problems (Gram, factor, certified solution) and a CLI runner."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from gaussmin import (
    DyadicGrid,
    OrnsteinUhlenbeck,
    PowerExponential,
    Problem,
    SamplerConfig,
)
from gaussmin.cli import main as cli_main


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
