"""sglmm benchmark: `sglmm fit` on generated inputs, checked and timed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``inputs.WORKLOADS``. The inputs are generated from
the seed, written in the program's file formats, and handed to `sglmm fit`,
run from the checkout's ``src`` in a fresh process per fit (``child.py``).
One operation is one fit plus the checks on its outputs (``checks.py``).
The run repeats rounds of operations, each with the next fit seed, for
about S seconds: it starts a round only if that round is likely to end near
the deadline. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over the run's fits of
``wall_s`` (the whole command), ``setup_s`` (the command up to its first
call into the sampler) and ``peak_rss_mb`` (peak resident memory of the
fit's process). ``--trace 1`` runs, per round, one untraced and one traced
fit of the same seed and reports the per-layer metrics listed in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_fit, output_paths  # noqa: E402
from estimators import ess  # noqa: E402
from inputs import WORKLOADS, fit_argv, make_inputs, write_inputs  # noqa: E402

OUT_DIR = ".bench_runs"
CHILD_TIMEOUT_S = 120
# One BLAS thread per chain: two chains then use no more threads than the two
# cores here, and for these matrix sizes one thread was also the faster.
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_METRICS = {
    "graph.read_edge_list_s": "graph.read_edge_list",
    "graph.laplacian_s": "graph.laplacian",
    "basis.build_s": "basis.build",
    "summary.summarize_chain_s": "summary.summarize_chain",
    "summary.fitted_surface_s": "summary.fitted_surface",
    "io.read_table_s": "io.read_table",
    "io.chain_write_s": "io.chain_write",
    "io.write_table_s": "io.write_table",
}
LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "glm.irls_s": "s",
    "glm.irls_iterations": "count",
    "sampler.fit_setup_s": "s",
    "sampler.iter_us": "us",
    "sampler.site_sweep_us": "us",
    "sampler.gibbs_gaussian_us": "us",
    "sampler.gibbs_tau_us": "us",
    "sampler.accept_beta": "ratio",
    "sampler.accept_effects": "ratio",
    "sampler.ess_beta_min": "count",
    "sampler.ess_tau": "count",
    "ess_per_s_beta": "1/s",
    "ess_per_s_tau": "1/s",
    "sampler.chains_speedup": "ratio",
    "io.chain_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def run_fit(root, work, mode, argv):
    """One `sglmm fit` in a child process: (result, failures)."""
    result_path = os.path.join(work, f"child_{mode}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), result_path, mode, "--", *argv],
            env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, [f"no result within {CHILD_TIMEOUT_S} s"]
    last_error = proc.stderr.strip().splitlines()[-1:]
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, last_error or [f"child exit code {proc.returncode}"]
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    if result["rc"] != 0:
        return None, last_error or [f"sglmm fit exit code {result['rc']}"]
    return result, []


def span_metrics(result) -> dict:
    """Per-layer seconds summed over spans, and the command's self time."""
    spans = result["spans"]
    out = {
        metric: sum(end - start for nm, start, end, _, _ in spans if nm == name)
        for metric, name in SPAN_METRICS.items()
    }
    top = sorted(
        (start, end) for _, start, end, parent, thread in spans
        if parent is None and thread == result["main_thread"]
    )
    covered, reach = 0.0, float("-inf")
    for start, end in top:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    out["cli.self_s"] = result["wall_s"] - covered
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sglmm", "cli.py")):
        print(f"error: {root} holds no src/sglmm; run from the root of an sglmm checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=os.path.join(root, OUT_DIR))
    try:
        return run(args, w, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, w, root, work) -> int:
    inp = make_inputs(w, args.seed)
    data_path = os.path.join(work, "data.csv")
    graph_path = os.path.join(work, "graph.edges")
    write_inputs(inp, data_path, graph_path)

    attempted = failed = 0
    records = []
    modes = ("plain", "trace") if args.trace else ("plain",)
    start = time.perf_counter()
    rnd = 0
    while True:
        fit_seed = 1000 * args.seed + rnd
        record = {}
        for mode in modes:
            prefix = os.path.join(work, f"r{rnd}_{mode}")
            result, failures = run_fit(
                root, work, mode, fit_argv(w, data_path, graph_path, prefix, fit_seed))
            if result is not None:
                try:
                    failures, result["chains"] = check_fit(w, inp, prefix)
                    paths = output_paths(prefix, w.chains)
                    result["chain_bytes"] = sum(os.path.getsize(c) for c, _, _ in paths)
                    result["acceptance"] = [
                        _read_json(s)["acceptance_rates"] for _, s, _ in paths]
                except (OSError, ValueError, KeyError, StopIteration) as exc:
                    failures = [f"unreadable output: {exc!r}"]
            attempted += 1
            if failures:
                failed += 1
                print(f"{w.name} seed {args.seed} fit seed {fit_seed} ({mode}): "
                      + "; ".join(failures), file=sys.stderr)
            else:
                record[mode] = result
            for name in os.listdir(work):
                if name.startswith(f"r{rnd}_"):
                    os.remove(os.path.join(work, name))
        if len(record) == len(modes):
            records.append(record)
        rnd += 1
        # start another round only if it is likely to end near the deadline
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rnd >= args.seconds:
            break

    metrics = {}
    if records:
        if args.trace:
            metrics = layer_metrics(w, records)
        else:
            for name, unit in END_TO_END.items():
                value = statistics.median(r["plain"][name] for r in records)
                metrics[name] = {"value": value, "unit": unit}
    report(w, attempted, failed, metrics)
    return 0


def layer_metrics(w, records) -> dict:
    per_round = []
    for rec in records:
        plain, traced = rec["plain"], rec["trace"]
        values = span_metrics(traced)
        values.update(traced["layers"])
        chains = traced["chains"]
        tau = -2 if w.family == "gaussian" else -1
        ess_beta = min(sum(ess(c[:, j]) for c in chains) for j in range(len(w.beta)))
        ess_tau = sum(ess(c[:, tau]) for c in chains)
        values["sampler.ess_beta_min"] = ess_beta
        values["sampler.ess_tau"] = ess_tau
        values["ess_per_s_beta"] = ess_beta / plain["wall_s"]
        values["ess_per_s_tau"] = ess_tau / plain["wall_s"]
        rates = traced["acceptance"]
        # Gibbs draws are always accepted
        values["sampler.accept_beta"] = statistics.mean(r.get("beta", 1.0) for r in rates)
        values["sampler.accept_effects"] = statistics.mean(r.get("effects", 1.0) for r in rates)
        values["io.chain_bytes"] = traced["chain_bytes"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        per_round.append(values)
    return {
        name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def report(w, attempted, failed, metrics) -> None:
    for name, m in metrics.items():
        print(f"{w.name:20s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{w.name:20s} fits attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
