"""Byte-compare the full reproduction report of a git revision and of the working tree.

Usage: python tools/diff_report.py [REV]      (REV defaults to HEAD)

Runs ``gaussmin report --preset full_repro --threads 1`` with one BLAS thread
(OPENBLAS_NUM_THREADS=1) twice: on REV's sources, exported by ``git archive``
into a temporary directory, and on the working tree's sources, uncommitted
changes included. Prints each output file that differs or exists on one side
only. Exits 0 when none differs, 1 when any does (or the two runs' exit
codes differ) and 2 when REV is not a commit. The temporary directory, with
both output trees, is removed either way. REV is read from the local repository,
so the check needs no network.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORT = ["report", "--preset", "full_repro", "--threads", "1"]


def export(rev: str, dest: Path) -> None:
    """REV's tracked files, unpacked into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def report(src: Path, out: Path) -> int:
    """The report's exit code, run from the package sources under ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "gaussmin.cli", *REPORT, "--out", str(out)],
                          env=env, cwd=out.parent, stdout=subprocess.DEVNULL).returncode


def files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
        codes = (report(tmp / "rev" / "src", tmp / "out_rev"),
                 report(ROOT / "src", tmp / "out_tree"))
        old, new = files(tmp / "out_rev"), files(tmp / "out_tree")
    differ = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in differ:
        side = ("" if name in old and name in new
                else f" (only in {rev})" if name in old else " (only in the working tree)")
        print(f"differs: {name}{side}")
    if codes[0] != codes[1]:
        print(f"exit codes differ: {codes[0]} at {rev}, {codes[1]} in the working tree")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ between {rev} "
          "and the working tree")
    return 1 if differ or codes[0] != codes[1] else 0


if __name__ == "__main__":
    sys.exit(main())
