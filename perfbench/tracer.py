"""In-memory span recorder that wraps gaussmin's public functions where they are looked up.

A span is (id, name, start_ns, end_ns, parent_id, thread_id, attrs). Each
thread keeps its own stack of open spans; a span opened on a thread whose
stack is empty (a sampling worker) takes the innermost open estimator span as
its parent. Nothing here changes a function's arguments or results, so a
traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time

import numpy as np

ESTIMATORS = ("tail_crude", "tail_is", "argmin_conditional", "mx_conditional",
              "small_ball", "correction_diagnostic")
CLOSEDFORM = ("ou_measure", "ou_sigma_star_sq", "tbm_measure", "sigma_star_from_mu")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_estimators: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None, estimator: bool = False, only_from=None):
        """Return fn wrapped in a span named ``name``.

        ``note(args, kwargs, result)`` returns the span's attrs; ``only_from``
        is a module-name prefix the caller must have, else the call is not
        recorded.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_from and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(only_from):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._open_estimators[-1] if tracer._open_estimators else None
            sid = next(tracer._ids)
            stack.append(sid)
            if estimator:
                tracer._open_estimators.append(sid)
            attrs = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs = note(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if estimator:
                    tracer._open_estimators.remove(sid)
                tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident(), attrs))

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _batch_note(args, kwargs, batch):
    count, n = batch.values.shape
    return {"seed": int(batch.seed), "stream": int(batch.stream),
            "start": int(batch.start_index), "count": int(count), "n": int(n)}


def _solve_note(args, kwargs, solution):
    sigma = args[0] if args else kwargs["sigma"]
    digest = hashlib.sha1(np.ascontiguousarray(sigma, dtype=float).tobytes()).hexdigest()
    return {"iterations": int(solution.iterations), "gram": digest}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported gaussmin at its lookup name."""
    import gaussmin.cli as cli
    import gaussmin.estimators as est
    import gaussmin.gauss_sim as gs
    import gaussmin.kernels as kernels
    import gaussmin.measure as measure
    import gaussmin.optimizer as opt
    import gaussmin.svgplot as svgplot

    for mod in (cli, est):
        for fn in ESTIMATORS:
            if hasattr(mod, fn):
                tracer.patch(mod, fn, f"estimators.{fn}", estimator=True)
        tracer.patch(mod, "sample", "gauss_sim.sample", note=_batch_note)
        tracer.patch(mod, "factorize", "gauss_sim.factorize")
    tracer.patch(est, "functionals", "gauss_sim.functionals",
                 note=lambda a, k, r: {"values": int(a[0].values.size)})
    tracer.patch(gs, "standard_normals", "gauss_sim.standard_normals")
    tracer.patch(gs, "ndtri", "gauss_sim.ndtri", note=lambda a, k, r: {"values": int(r.size)})
    tracer.patch(kernels.Kernel, "gram", "kernels.gram")
    tracer.patch(np.linalg, "cholesky", "linalg.cholesky", only_from="gaussmin")
    tracer.patch(opt, "cho_factor", "linalg.cho_factor")

    for mod in (cli, opt):
        tracer.patch(mod, "solve_simplex_qp", "optimizer.solve", note=_solve_note)
    tracer.patch(cli, "refine", "optimizer.refine")
    for mod in (cli, est):
        tracer.patch(mod, "certify", "optimizer.certify")

    for fn in CLOSEDFORM:
        tracer.patch(cli, fn, f"closedform.{fn}")
    for fn in ("discretize", "normalize", "tv_distance"):
        tracer.patch(cli, fn, f"measure.{fn}")
    tracer.patch(measure.GridMeasure, "__post_init__", "measure.GridMeasure")

    tracer.patch(cli, "write_csv", "cli.write_csv")
    tracer.patch(cli, "write_json", "cli.write_json")
    tracer.patch(svgplot.Plot, "write", "svgplot.write")
    for stage, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[stage] = tracer.wrap(f"cli.cmd_{stage}", fn)
