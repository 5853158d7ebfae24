"""One fresh benchmark process: time ``import gaussmin.cli``, then run the CLI.

    python3 perfbench/child.py RECORD.json [--trace SPANS.json] [-- GAUSSMIN_ARGS...]

Without CLI arguments the child only imports gaussmin and records the
interpreter and library versions. With ``--trace`` it wraps gaussmin's layer
boundaries (see tracer.py) before running and writes the spans on exit. The
CLI call is what the ``gaussmin`` console script does: ``sys.exit(main())``.
The child refuses to run a gaussmin that is not the checkout's own ``src/``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

EXIT_WRONG_SOURCE = 4


def _versions() -> dict:
    import numpy
    import scipy
    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def main(argv: list[str]) -> int:
    record_path = Path(argv[0])
    rest = argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = Path(rest[1]), rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else []

    t0 = time.perf_counter()
    import gaussmin.cli
    setup_s = time.perf_counter() - t0

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(gaussmin.cli.__file__).resolve().parents:
        print(f"gaussmin was imported from {gaussmin.cli.__file__}, not from {src}",
              file=sys.stderr)
        return EXIT_WRONG_SOURCE
    record = {"setup_s": setup_s}
    if not cli_args:
        record["versions"] = _versions()
    record_path.write_text(json.dumps(record), encoding="utf-8")
    if not cli_args:
        return 0
    if trace_path is None:
        return gaussmin.cli.main(cli_args)
    from tracer import Tracer, install
    tracer = Tracer()
    install(tracer)
    try:
        return gaussmin.cli.main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
