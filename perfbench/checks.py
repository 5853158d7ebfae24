"""Correctness checks on a gaussmin ``--out`` tree, and facts read from it.

Each check function returns a list of (name, passed, detail). Every CSV the
CLI writes starts with ``# config: {...}``, the resolved config of the run,
which is where n_paths is read from.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

AGREEMENT_SIGMAS = 4.0
MIN_CRUDE_HITS = 100
MAX_REL_STDERR = 0.05


def read_csv(path: Path) -> tuple[dict, list[dict]]:
    """(resolved config, rows as dicts of floats) of a CLI CSV."""
    config, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("#") or not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return config, rows


def tree_digest(root: Path, skip: str | None = None) -> str:
    """SHA-256 over every file's relative path and content, in path order.

    Files under a directory named ``skip`` are left out.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and skip not in p.relative_to(root).parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def bytes_in(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def paths_requested(root: Path) -> tuple[int, list[int]]:
    """Sum over the estimates written under ``root`` of each one's n_paths,
    and the distinct n_paths values."""
    counts = []
    for path in root.rglob("*.csv"):
        if path.name in ("tail_crude.csv", "tail_is.csv", "diagnose.csv", "smallball.csv"):
            config, rows = read_csv(path)
            counts += [int(config["n_paths"])] * len(rows)
        elif re.fullmatch(r"(argmin_u|mx_x).*\.csv", path.name):
            counts.append(int(read_csv(path)[0]["n_paths"]))
    return sum(counts), sorted(set(counts))


def worst_is_rel_stderr(root: Path) -> float:
    """Largest stderr / p_hat over the change-of-measure tail estimates."""
    rels = [r["stderr"] / r["p_hat"] for path in root.rglob("tail_is.csv")
            for r in read_csv(path)[1] if r["p_hat"] > 0]
    return max(rels) if rels else math.nan


def check_tail_sweep(root: Path) -> list[tuple[str, bool, str]]:
    """Crude and IS agree where crude has enough hits; at u = 0 they are equal."""
    config, rows = read_csv(root / "tail_summary.csv")
    n = int(config["n_paths"])
    out = []
    for r in rows:
        u = r["u"]
        if u == 0.0:
            out.append(("u=0 p_is == p_crude", r["p_is"] == r["p_crude"],
                        f"{r['p_is']!r} vs {r['p_crude']!r}"))
        if round(r["p_crude"] * n) >= MIN_CRUDE_HITS:
            z = abs(r["p_crude"] - r["p_is"]) / math.hypot(r["stderr_crude"], r["stderr_is"])
            out.append((f"u={u:g} crude/is agree", z <= AGREEMENT_SIGMAS, f"z={z:.2f}"))
    if not rows:
        out.append(("tail_summary has rows", False, "empty"))
    return out


def check_fine_grid(root: Path) -> list[tuple[str, bool, str]]:
    """The deep-tail IS estimate is a usable probability with a small stderr."""
    _, rows = read_csv(root / "tail_is.csv")
    out = [("one tail_is row", len(rows) == 1, f"{len(rows)} rows")]
    for r in rows:
        rel = r["stderr"] / r["p_hat"] if r["p_hat"] > 0 else math.inf
        out += [
            (f"u={r['u']:g} 0 < p_hat < 1", 0.0 < r["p_hat"] < 1.0, repr(r["p_hat"])),
            (f"u={r['u']:g} log_p finite", math.isfinite(r["log_p"]), repr(r["log_p"])),
            (f"u={r['u']:g} D_u < 0", r["D_u"] < 0, repr(r["D_u"])),
            (f"u={r['u']:g} rel stderr <= {MAX_REL_STDERR}", rel <= MAX_REL_STDERR, f"{rel:.4f}"),
        ]
    return out


STAGE_LINE = re.compile(r"^- (\w+): (.*)$")


def check_report_full(root: Path) -> list[tuple[str, bool, str]]:
    """No stage failed and every solve certificate passed."""
    text = (root / "report.md").read_text(encoding="utf-8")
    out = []
    for line in text.splitlines():
        m = STAGE_LINE.match(line)
        if m:
            status = m.group(2)
            out.append((f"stage {m.group(1)}", status == "ok" or status.startswith("skipped"),
                        status))
    if not out:
        out.append(("report lists stages", False, "no stage lines"))
    out.append(("no FAILED in report", "FAILED" not in text, ""))
    solutions = sorted(root.glob("*/solve/solution.json"))
    for path in solutions:
        passed = json.loads(path.read_text())["certificate"]["passed"]
        out.append((f"{path.parent.parent.name} certificate", passed is True, str(passed)))
    if not solutions:
        out.append(("report has solve certificates", False, "no solution.json"))
    return out
