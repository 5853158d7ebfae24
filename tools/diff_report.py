"""Byte-compare the outputs of the preset commands at a git revision and in the working tree.

Usage: python tools/diff_report.py [REV]      (REV defaults to HEAD)

Runs each command of RUNS with one BLAS thread (OPENBLAS_NUM_THREADS=1),
each into its own output directory: the full reproduction report,
``report --preset full_repro --threads 1``, six standalone preset commands
(``tail --preset ou``, ``argmin --preset example2``, ``diagnose --preset
example1``, ``analytic --preset example1``, ``solve --preset example2`` and
``smallball --preset ou``), three runs that sample 257 points, so that the
staged Markov paths are byte-checked at their full 33-point prefix too (the
report's and the standalone ``argmin`` and ``diagnose`` commands' 65-point
studies check them at a 9-point prefix, and ``tail --preset ou`` and
``smallball --preset ou`` at the 5-point prefix of 33 points): ``tail --preset
example1 --config tail_fine.json`` and ``argmin --preset example2 --config
argmin_fine.json`` (a partial support), which complete only the paths alive
on the support, and ``smallball --preset ou --config smallball_fine.json``,
which completes every path; and two runs on
kernels without a Markov form, so that the dense route is byte-checked: ``tail
--preset ou --config tail_dense.json`` on ``PowerExponential(0.5)`` (its
Cholesky path map, theta step and certificate) and ``solve --config
solve_dense.json`` on a 2x2 explicit Gram matrix (its active set and its
jitter). The config files of CONFIGS are written as JSON beside the output
directories. It runs them twice: on REV's sources, exported by ``git
archive`` into a temporary directory, and on the working tree's sources,
uncommitted changes included.
Prints each output file that differs or exists on one side only, and each
command whose exit code differs. For a CSV or JSON file on both sides it
adds the largest relative change |a - b| / max(|a|, |b|) among the file's
numbers, or says that more than its numbers changed. Exits 0 when none
differs, 1 when any does and 2 when REV is not a commit. The temporary
directory, with both output trees, is removed either way. REV is read from
the local repository, so the check needs no network.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = {   # output directory: command line
    "report": ["report", "--preset", "full_repro", "--threads", "1"],
    "tail": ["tail", "--preset", "ou"],
    "argmin": ["argmin", "--preset", "example2"],
    "diagnose": ["diagnose", "--preset", "example1"],
    "analytic": ["analytic", "--preset", "example1"],
    "solve": ["solve", "--preset", "example2"],
    "smallball": ["smallball", "--preset", "ou"],
    "tail_fine": ["tail", "--preset", "example1", "--config", "tail_fine.json"],
    "argmin_fine": ["argmin", "--preset", "example2", "--config", "argmin_fine.json"],
    "smallball_fine": ["smallball", "--preset", "ou", "--config", "smallball_fine.json"],
    "tail_dense": ["tail", "--preset", "ou", "--config", "tail_dense.json"],
    "solve_dense": ["solve", "--config", "solve_dense.json"],
}
CONFIGS = {   # config file, written beside the output directories: its contents
    "tail_fine.json": {"k": 8, "u_list": [3.0], "methods": ["is"], "n_paths": 20000},
    "argmin_fine.json": {"k": 8, "n_paths": 20000},
    "smallball_fine.json": {"k": 8, "n_paths": 20000},
    "tail_dense.json": {"kernel": {"type": "power_exponential", "alpha": 0.5}, "k": 6,
                        "u_list": [1.0, 2.0], "n_paths": 20000},
    "solve_dense.json": {"kernel": {"type": "explicit", "matrix": [[1.0, 0.9], [0.9, 0.85]]}},
}


def export(rev: str, dest: Path) -> None:
    """REV's tracked files, unpacked into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_all(src: Path, out: Path) -> dict[str, int]:
    """Each command's exit code, run from the package sources under ``src``
    into its own directory under ``out``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    out.mkdir()
    for name, config in CONFIGS.items():
        (out / name).write_text(json.dumps(config), encoding="utf-8")
    return {name: subprocess.run([sys.executable, "-m", "gaussmin.cli", *argv,
                                  "--out", str(out / name)], env=env, cwd=out,
                                 stdout=subprocess.DEVNULL).returncode
            for name, argv in RUNS.items()}


def files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def moved(old: bytes, new: bytes) -> str:
    """How far the numbers of a CSV or JSON file moved between two versions."""
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "more than its numbers changed"
    change = max((abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                  for a, b in zip(*(map(float, NUMBER.findall(v)) for v in (old, new)))),
                 default=0.0)
    return f"largest relative change {change:.2g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default: HEAD)")
    rev = parser.parse_args(argv).rev
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                       f"{rev}^{{commit}}"], stdout=subprocess.DEVNULL).returncode:
        parser.error(f"{rev!r} is not a commit of this repository")
    with tempfile.TemporaryDirectory(prefix="diff_report-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        codes = (run_all(tmp / "rev" / "src", tmp / "out_rev"),
                 run_all(ROOT / "src", tmp / "out_tree"))
        old, new = files(tmp / "out_rev"), files(tmp / "out_tree")
    differ = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in differ:
        side = (f" (only in {rev})" if name not in new
                else " (only in the working tree)" if name not in old
                else f" ({moved(old[name], new[name])})" if name.endswith((".csv", ".json"))
                else "")
        print(f"differs: {name}{side}")
    codes_differ = [name for name in RUNS if codes[0][name] != codes[1][name]]
    for name in codes_differ:
        print(f"exit codes of {name} differ: {codes[0][name]} at {rev}, "
              f"{codes[1][name]} in the working tree")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ between {rev} and "
          f"the working tree, over {len(RUNS)} commands: "
          + "; ".join(" ".join(argv) for argv in RUNS.values())
          + "".join(f"; {name}: {json.dumps(config)}" for name, config in CONFIGS.items()))
    return 1 if differ or codes_differ else 0


if __name__ == "__main__":
    sys.exit(main())
