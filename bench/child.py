"""One `sglmm fit` command in a fresh process, timed from outside the program.

Usage: python3 child.py RESULT_JSON plain|trace -- <sglmm fit arguments>

The parent sets PYTHONPATH to the checkout's ``src`` and the BLAS thread
count. This process imports the program, warms up LAPACK (the first call
otherwise costs about 0.9 s), and only then starts the clock and runs
``sglmm.cli.dispatch`` on the arguments, as the ``sglmm`` entry point would.

``plain`` records the wall time of the command, the time at which it first
enters the sampler (``fit``/``fit_chains``), and the peak resident memory
of this process. ``trace`` also records a span around each call into a
layer's public entry point as the command crosses it, and afterwards
times the sampler kernels and chain lengths on the same inputs
(``layers.measure``). Spans stay in memory and are written with the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg


def warm_up() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    s = a @ a.T + 64.0 * np.eye(64)
    np.linalg.eigh(s)
    np.linalg.cholesky(s)
    scipy.linalg.cho_solve(scipy.linalg.cho_factor(s), a)
    np.linalg.solve(s, a)
    scipy.linalg.null_space(a[:3])
    scipy.sparse.linalg.eigsh(s, k=3, which="LA")


class Tracer:
    """In-memory spans (name, start, end, parent) with a stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[sid][2] = time.perf_counter()

        return traced


def install_trace(tracer, cli, sampler, basis):
    """Wrap the layer entry points the `fit` command calls; returns an undo."""
    saved = []

    def patch(owner, attr, name, inner=lambda fn: fn):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, inner(fn)))

    def traced_streams(many):
        def inner(fn):
            def call(*args, **kwargs):
                key = "streams" if many else "stream"
                if kwargs.get(key) is not None:
                    streams = kwargs[key] if many else [kwargs[key]]
                    wrapped = [tracer.wrap("io.chain_write", s) for s in streams]
                    kwargs[key] = wrapped if many else wrapped[0]
                return fn(*args, **kwargs)

            return call

        return inner

    for name, owner, attr in (
        ("io.read_table", cli, "read_table"),
        ("io.write_table", cli, "write_table"),
        ("graph.read_edge_list", cli, "read_edge_list"),
        ("graph.laplacian", cli, "laplacian"),
        ("graph.laplacian", basis, "laplacian"),
        ("basis.build", cli, "moran_basis"),
        ("basis.build", cli, "rhz_basis"),
        # the traditional model's CAR precision is built by laplacian itself
        ("basis.build", cli, "laplacian"),
        ("summary.summarize_chain", cli, "summarize_chain"),
        ("summary.fitted_surface", cli, "fitted_surface"),
        ("sampler.fit", sampler, "fit"),
    ):
        patch(owner, attr, name)
    patch(cli, "run_mcmc", "sampler.fit", traced_streams(many=False))
    patch(sampler, "fit_chains", "sampler.fit_chains", traced_streams(many=True))

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo


def main(argv) -> int:
    result_path, mode = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py RESULT_JSON plain|trace -- <fit arguments>")
    fit_argv = argv[3:]
    warm_up()

    import sglmm.basis as basis
    import sglmm.cli as cli
    import sglmm.sampler as sampler

    entered = []

    def first_entry(fn):
        def call(*args, **kwargs):
            if not entered:
                entered.append(time.perf_counter())
            return fn(*args, **kwargs)

        return call

    tracer = undo = None
    if mode == "trace":
        tracer = Tracer()
        undo = install_trace(tracer, cli, sampler, basis)
    cli.run_mcmc = first_entry(cli.run_mcmc)
    sampler.fit_chains = first_entry(sampler.fit_chains)

    t0 = time.perf_counter()
    rc = cli.dispatch(fit_argv)
    t1 = time.perf_counter()
    result = {
        "rc": rc,
        "wall_s": t1 - t0,
        "setup_s": (entered[0] - t0) if entered else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        undo()
        result["main_thread"] = threading.get_ident()
        result["spans"] = tracer.spans
        if rc == 0:
            from layers import measure

            result["layers"] = measure(fit_argv)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
