"""Each demo script runs to completion in a fresh process and prints its results."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    res = run_python([str(demo)], timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
