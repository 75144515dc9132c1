"""Command-line surface: simulate -> eigs -> fit -> summarize, plus reproduce.

Subcommands
-----------
lattice     emit a rook-lattice edge list (and optional coordinates)
eigs        Moran spectrum and basis export for a graph and design
simulate    draw a dataset from the sparse model (presets or custom)
fit         fit nonspatial / traditional / rhz / sparse by IRLS or MCMC
summarize   summarize a chain CSV into a JSON document
reproduce   run a scaled end-to-end simulation study and emit a report

Exit codes: 0 success, 1 validation error, 2 numerical failure. Every
randomized command requires an explicit --seed so outputs can be re-run
identically; each fit writes a manifest with the seed, the resolved
configuration and its hash, and library versions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import fields

import numpy as np

from . import __version__, sampler
from .basis import DesignMatrix, moran_basis, moran_spectrum, rhz_basis
from .glm import irls_fit
from .graph import (
    build_lattice,
    laplacian,
    read_coords,
    read_edge_list,
    write_coords,
    write_edge_list,
)
from .io import RowWriter, read_config, read_table, write_table
from .model import (
    FAMILIES,
    FAMILY,
    PARAMETERIZATIONS,
    Dataset,
    ModelSpec,
    ParameterState,
    PriorSet,
    effect_basis,
    inverse_link,
    linear_predictor,
)
from .sampler import Chain, McmcConfig, fit as run_mcmc
from .simulate import PRESETS, simulate_dataset
from .summary import check_level, fitted_surface, error_norm, summarize_chain, summarize_matrix

# the model's own settings, then one key per field of PriorSet and McmcConfig
CONFIG_KEYS = ("family", "parameterization", "q") + tuple(
    f.name for cls in (PriorSet, McmcConfig) for f in fields(cls)
)


def _from_settings(cls, settings: dict):
    """cls from the settings that name its fields, each converted to the type
    of its default; the fields not named keep their defaults."""
    values = {
        f.name: type(f.default)(settings[f.name])
        for f in fields(cls)
        if settings.get(f.name) is not None
    }
    return cls(**values)


def _spec_from_settings(settings: dict, offset=None) -> ModelSpec:
    q = settings.get("q")
    return ModelSpec(
        family=settings.get("family"),
        parameterization=settings.get("parameterization"),
        q=int(q) if q is not None else None,
        priors=_from_settings(PriorSet, settings),
        offset=offset,
    )


def _mcmc_from_settings(settings: dict) -> McmcConfig:
    if settings.get("seed") is None:
        raise ValueError("an explicit seed is required (pass --seed)")
    return _from_settings(McmcConfig, settings)


def _versions() -> dict:
    import scipy

    return {
        "sglmm": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")


def _write_manifest(path, command, argv, settings, extra=None):
    canonical = json.dumps(settings, sort_keys=True, default=str)
    doc = {
        "command": command,
        "argv": list(argv),
        "settings": settings,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "versions": _versions(),
    }
    if extra:
        doc.update(extra)
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lattice(args, argv):
    g = build_lattice(args.rows, args.cols)
    write_edge_list(args.out, g)
    if args.coords_out:
        write_coords(args.coords_out, g.coords)
    print(f"lattice {args.rows}x{args.cols}: {g.n} vertices, {g.n_edges} edges -> {args.out}")
    return 0


def _covariate_names(arg) -> list:
    """The names in a ``--covariates`` list; ValueError naming a repeated one."""
    names = [c.strip() for c in arg.split(",")]
    repeated = next((nm for j, nm in enumerate(names) if nm in names[:j]), None)
    if repeated is not None:
        raise ValueError(f"--covariates: column name {repeated!r} repeated")
    return names


def _design_from_table(table, names=None) -> DesignMatrix:
    cols = names if names else table.names
    return DesignMatrix(table.matrix(cols), names=tuple(cols))


def _cmd_eigs(args, argv):
    g = read_edge_list(args.graph)
    table = read_table(args.design)
    names = _covariate_names(args.covariates) if args.covariates else None
    X = _design_from_table(table, names)
    if X.n != g.n:
        raise ValueError(f"design has {X.n} rows but graph has {g.n} vertices")

    vals, std = moran_spectrum(X, g)
    write_table(
        args.spectrum_out,
        ["index", "eigenvalue", "standardized_eigenvalue"],
        {
            "index": np.arange(vals.shape[0], dtype=float),
            "eigenvalue": vals,
            "standardized_eigenvalue": std,
        },
    )
    print(f"spectrum: {vals.shape[0]} eigenvalues -> {args.spectrum_out}")

    if args.q is not None or args.threshold is not None:
        mb = moran_basis(X, g, q=args.q, threshold=args.threshold)
        rule = f"q={args.q}" if args.q is not None else f"standardized eigenvalue > {args.threshold}"
        print(f"moran basis: {mb.q} columns ({rule})")
        if args.basis_out:
            names_out = [f"m{i}" for i in range(mb.q)]
            write_table(args.basis_out, names_out, {nm: mb.M[:, i] for i, nm in enumerate(names_out)})
            print(f"basis matrix -> {args.basis_out}")
        if args.map_out:
            coords = _map_coords(args, table, g)
            j = args.map_index
            if not (0 <= j < mb.q):
                raise ValueError(f"--map-index {j} outside [0, {mb.q})")
            write_table(
                args.map_out,
                ["x", "y", "component"],
                {"x": coords[:, 0], "y": coords[:, 1], "component": mb.M[:, j]},
            )
            print(f"eigenvector {j} map -> {args.map_out}")
    elif args.basis_out or args.map_out:
        raise ValueError("--basis-out/--map-out need a rank rule (--q or --threshold)")
    return 0


def _map_coords(args, table, g):
    if args.coords:
        return read_coords(args.coords, g.n)
    if "x" in table.names and "y" in table.names:
        return np.column_stack([table["x"], table["y"]])
    raise ValueError("map output needs --coords or design columns named x and y")


def _cmd_simulate(args, argv):
    if args.preset is None and args.family is None:
        raise ValueError("pass --preset or explicit --family/--rows/--cols/--q/--tau")
    sim = simulate_dataset(
        preset=args.preset,
        seed=args.seed,
        rows=args.rows,
        cols=args.cols,
        q=args.q,
        tau=args.tau,
        sigma2=args.sigma2,
        family=args.family,
    )
    prefix = args.out_prefix
    write_table(
        f"{prefix}_data.csv",
        ["z", "x", "y"],
        {"z": sim.Z, "x": sim.X.X[:, 0], "y": sim.X.X[:, 1]},
    )
    write_table(
        f"{prefix}_truth.csv",
        ["x", "y", "eta", "surface"],
        {"x": sim.X.X[:, 0], "y": sim.X.X[:, 1], "eta": sim.eta, "surface": sim.surface},
    )
    write_table(f"{prefix}_delta.csv", ["delta"], {"delta": sim.delta})
    write_edge_list(f"{prefix}_graph.edges", sim.graph)
    write_coords(f"{prefix}_coords.txt", sim.graph.coords)
    _write_manifest(
        f"{prefix}_manifest.json",
        "simulate",
        argv,
        {
            "preset": args.preset,
            "seed": args.seed,
            "family": sim.family,
            "n": sim.graph.n,
            "q": sim.basis.q,
            "tau": sim.tau,
            "sigma2": sim.sigma2,
        },
    )
    print(
        f"simulated {sim.family} data: n={sim.graph.n}, q={sim.basis.q}, "
        f"tau={sim.tau} -> {prefix}_data.csv"
    )
    return 0


def _load_fit_inputs(args):
    table = read_table(args.data)
    g = read_edge_list(args.graph)
    if table.n_rows != g.n:
        raise ValueError(f"data has {table.n_rows} rows but graph has {g.n} vertices")
    response = args.response_col
    Z = table[response]
    offset = table[args.offset_col] if args.offset_col else None
    if args.covariates:
        cov_names = _covariate_names(args.covariates)
    else:
        drop = {response, args.offset_col}
        cov_names = [nm for nm in table.names if nm not in drop]
    if not cov_names:
        raise ValueError("no covariate columns left after removing response/offset")
    X = DesignMatrix(table.matrix(cov_names), names=tuple(cov_names))
    return g, X, Z, offset


def _build_basis(model, X, g, q):
    if model == "nonspatial":
        return None
    if model == "traditional":
        return laplacian(g)
    if model == "rhz":
        return rhz_basis(X, g)
    return moran_basis(X, g, q=q)


def _summary_doc(summary) -> dict:
    """``dataclasses.asdict(summary)`` without its deep copy of every float."""
    return {"level": summary.level, "params": {nm: vars(s) for nm, s in summary.params.items()}}


def _chain_summary_doc(chain: Chain, level: float) -> dict:
    return {
        **_summary_doc(summarize_chain(chain, level=level)),
        "acceptance_rates": chain.acceptance_rates,
        "wall_time_seconds": chain.wall_time,
        "seed": chain.seed,
        "n_draws": chain.n_draws,
    }


def _cmd_fit(args, argv):
    check_level(args.level)
    if args.chains < 1:
        raise ValueError(f"--chains must be at least 1, got {args.chains}")
    settings = {}
    if args.config:
        settings.update(read_config(args.config, CONFIG_KEYS))
    overrides = {
        "family": args.family,
        "parameterization": args.model,
        "q": args.q,
        "iterations": args.iterations,
        "burn_in": args.burn_in,
        "thin": args.thin,
        "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    # the chain settings of an MCMC model are checked before any input is read
    mcmc = settings.get("parameterization") in set(PARAMETERIZATIONS) - {"nonspatial"}
    cfg = _mcmc_from_settings(settings) if mcmc else None

    g, X, Z, offset = _load_fit_inputs(args)
    spec = _spec_from_settings(settings, offset=offset)
    FAMILY[spec.family].check(Z)  # before the basis is built or a file opened
    data = Dataset(X=X, Z=Z)
    prefix = args.out_prefix

    basis = _build_basis(spec.parameterization, X, g, spec.q)
    if basis is None:
        glm = irls_fit(spec.family, X, Z, offset=offset)
        if not (np.all(np.isfinite(glm.beta_hat)) and np.all(np.isfinite(glm.cov_hat))):
            raise FloatingPointError(
                f"IRLS estimate is not finite after {glm.iterations} iterations; "
                f"check data scaling"
            )
        state = ParameterState(glm.beta_hat, np.zeros(0))
        fitted = inverse_link(spec.family, linear_predictor(spec, X, None, state))
        doc = {
            "model": "nonspatial",
            "family": spec.family,
            "beta_hat": {nm: float(b) for nm, b in zip(X.names, glm.beta_hat)},
            "cov_hat": glm.cov_hat.tolist(),
            "sigma2_hat": glm.sigma2_hat,
            "iterations": glm.iterations,
            "converged": glm.converged,
        }
        _write_json(f"{prefix}_summary.json", doc)
        _write_fitted(prefix, X, fitted)
        _write_manifest(f"{prefix}_manifest.json", "fit", argv, dict(settings))
        if not glm.converged:
            print(f"warning: IRLS did not converge in {glm.iterations} iterations", file=sys.stderr)
        print(f"nonspatial {spec.family} fit -> {prefix}_summary.json")
        return 0

    n_chains = args.chains
    suffixes = [""] if n_chains == 1 else [f"_{i}" for i in range(n_chains)]
    paths = [f"{prefix}_chain{suffix}.csv" for suffix in suffixes]
    writers = []
    try:
        # opened before the chain runs, so an unwritable prefix fails first
        with ExitStack() as files:
            writers = [files.enter_context(RowWriter(path)) for path in paths]
            if n_chains == 1:
                chains = [run_mcmc(spec, data, basis, cfg, stream=writers[0])]
            else:
                chains = sampler.fit_chains(spec, data, basis, cfg, n_chains, streams=writers)
    except BaseException:
        # a chain that failed before its first row leaves no empty file
        for path, writer in zip(paths, writers):
            if writer.template is None:
                os.remove(path)
        raise

    for suffix, chain in zip(suffixes, chains):
        _write_json(f"{prefix}_summary{suffix}.json", _chain_summary_doc(chain, args.level))
        _write_fitted(f"{prefix}{suffix}", X, fitted_surface(chain, spec, X, basis))

    _write_manifest(
        f"{prefix}_manifest.json",
        "fit",
        argv,
        dict(settings),
        extra={"chains": n_chains, "chain_files": paths},
    )
    rates = ", ".join(f"{k}={v:.3f}" for k, v in chains[0].acceptance_rates.items())
    print(
        f"{spec.parameterization} {spec.family} fit: {chains[0].n_draws} draws, "
        f"acceptance {rates or 'n/a (all Gibbs)'}, "
        f"{chains[0].wall_time:.1f}s -> {paths[0]}"
    )
    return 0


def _write_fitted(prefix, X, fitted):
    if "x" in X.names and "y" in X.names:
        cols = {
            "x": X.X[:, X.names.index("x")],
            "y": X.X[:, X.names.index("y")],
            "fitted": fitted,
        }
        write_table(f"{prefix}_fitted.csv", ["x", "y", "fitted"], cols)
    else:
        write_table(
            f"{prefix}_fitted.csv",
            ["index", "fitted"],
            {"index": np.arange(fitted.shape[0], dtype=float), "fitted": fitted},
        )


def _cmd_summarize(args, argv):
    check_level(args.level)
    table = read_table(args.chain)
    if table.n_rows == 0:
        raise ValueError(f"{args.chain}: chain is empty")
    params = _summary_doc(summarize_matrix(table.matrix(), table.names, args.level))["params"]
    _write_json(args.out, {"level": args.level, "n_draws": table.n_rows, "params": params})
    print(f"summarized {table.n_rows} draws x {len(table.names)} parameters -> {args.out}")
    return 0


def _cmd_reproduce(args, argv):
    families = [f.strip() for f in args.families.split(",")]
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; allowed: {', '.join(FAMILIES)}")
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(len(families))
    rows = []
    for fam, ss in zip(families, seeds):
        rows.extend(_reproduce_family(fam, ss, args))
    report_path = os.path.join(args.out_dir, "report.csv")
    header = [
        "family", "model", "dim",
        "beta_x", "beta_x_lo", "beta_x_hi",
        "beta_y", "beta_y_lo", "beta_y_hi",
        "tau", "tau_lo", "tau_hi",
        "sigma2", "sigma2_lo", "sigma2_hi",
        "error_norm", "seconds",
    ]
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "reproduce",
        argv,
        {
            "seed": args.seed,
            "families": families,
            "rows": args.rows,
            "cols": args.cols,
            "q_true": args.q_true,
            "iterations": args.iterations,
            "burn_in": args.burn_in,
            "thin": args.thin,
        },
    )
    print(f"\nreport -> {report_path}")
    _print_report(header, rows)
    return 0


def _reproduce_family(family, seed_seq, args):
    child = seed_seq.generate_state(2)
    sim_seed, fit_seed = int(child[0]), int(child[1])
    # the true tau and sigma2 of the family's simulation preset
    tau_true, sigma2_true = next(p[3:5] for p in PRESETS.values() if p[5] == family)
    print(
        f"\n[{family}] simulating {args.rows}x{args.cols} lattice, "
        f"q_true={args.q_true}, tau={tau_true}"
    )
    sim = simulate_dataset(
        seed=sim_seed,
        rows=args.rows,
        cols=args.cols,
        q=args.q_true,
        tau=tau_true,
        sigma2=sigma2_true,
        family=family,
    )
    data = Dataset(X=sim.X, Z=sim.Z)
    g = sim.graph
    rows_out = []

    def interval(summary, name):
        if name in summary.params:
            p = summary.params[name]
            return p.mean, p.eqt_lo, p.eqt_hi
        return "", "", ""

    # nonspatial baseline by IRLS
    t0 = time.perf_counter()
    glm = irls_fit(family, sim.X, sim.Z)
    fitted = inverse_link(family, sim.X.X @ glm.beta_hat)
    err = error_norm(fitted, sim.surface)
    se = np.sqrt(np.diag(glm.cov_hat))
    rows_out.append(
        [
            family, "nonspatial", "",
            glm.beta_hat[0], glm.beta_hat[0] - 1.96 * se[0], glm.beta_hat[0] + 1.96 * se[0],
            glm.beta_hat[1], glm.beta_hat[1] - 1.96 * se[1], glm.beta_hat[1] + 1.96 * se[1],
            "", "", "", glm.sigma2_hat if glm.sigma2_hat is not None else "", "", "",
            err, time.perf_counter() - t0,
        ]
    )

    model_specs = [
        ("traditional", None),
        ("rhz", None),
        ("sparse", args.q_fit_large),
        ("sparse", args.q_fit_small),
    ]
    for model, q in model_specs:
        label = model if q is None else f"{model}-{q}"
        spec = ModelSpec(family=family, parameterization=model, q=q)
        basis = _build_basis(model, sim.X, g, q)
        dim = effect_basis(spec, basis).k
        print(f"[{family}] fitting {label} (dim {dim}) ...", flush=True)
        cfg = McmcConfig(
            iterations=args.iterations, burn_in=args.burn_in, thin=args.thin, seed=fit_seed
        )
        t0 = time.perf_counter()
        chain = run_mcmc(spec, data, basis, cfg)
        secs = time.perf_counter() - t0
        summary = summarize_chain(chain, include_effects=False)
        fitted = fitted_surface(chain, spec, sim.X, basis)
        err = error_norm(fitted, sim.surface)
        bx, bx_lo, bx_hi = interval(summary, "beta.x")
        by, by_lo, by_hi = interval(summary, "beta.y")
        tau, tau_lo, tau_hi = interval(summary, "tau")
        s2, s2_lo, s2_hi = interval(summary, "sigma2")
        rows_out.append(
            [family, label, dim, bx, bx_lo, bx_hi, by, by_lo, by_hi,
             tau, tau_lo, tau_hi, s2, s2_lo, s2_hi, err, secs]
        )
    return rows_out


def _print_report(header, rows):
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    show = ["family", "model", "dim", "beta_x", "beta_x_lo", "beta_x_hi",
            "beta_y", "beta_y_lo", "beta_y_hi", "tau", "error_norm", "seconds"]
    idx = [header.index(h) for h in show]
    widths = [max(len(show[j]), *(len(fmt(r[i])) for r in rows)) for j, i in enumerate(idx)]
    print("  ".join(h.ljust(w) for h, w in zip(show, widths)))
    for r in rows:
        print("  ".join(fmt(r[i]).ljust(w) for i, w in zip(idx, widths)))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sglmm",
        description="Areal spatial GLMMs with Moran-basis dimension reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="emit a rook-lattice edge list")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--coords-out", help="optional coordinate file output")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("eigs", help="Moran spectrum and basis export")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--design", required=True, help="design CSV")
    p.add_argument("--covariates", help="comma-separated design columns (default: all)")
    p.add_argument("--q", type=int, help="fixed basis dimension")
    p.add_argument("--threshold", type=float, help="standardized-eigenvalue threshold")
    p.add_argument("--spectrum-out", default="spectrum.csv")
    p.add_argument("--basis-out", help="basis matrix CSV output")
    p.add_argument("--map-out", help="per-vector map CSV (x, y, component)")
    p.add_argument("--map-index", type=int, default=0)
    p.add_argument("--coords", help="coordinate file for map output")
    p.set_defaults(func=_cmd_eigs)

    p = sub.add_parser("simulate", help="simulate from the sparse model")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a model to data on a graph")
    p.add_argument("--model", choices=PARAMETERIZATIONS)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--q", type=int)
    p.add_argument("--data", required=True, help="data CSV")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--response-col", default="z")
    p.add_argument("--offset-col", help="multiplicative exposure column (poisson)")
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--iterations", type=int)
    p.add_argument("--burn-in", type=int, dest="burn_in")
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--chains", type=int, default=1,
        help="independent chains, run in parallel worker processes, one per usable CPU",
    )
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summarize", help="summarize a chain CSV")
    p.add_argument("--chain", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("reproduce", help="scaled end-to-end simulation study")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--families", default="bernoulli,poisson,gaussian")
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--cols", type=int, default=20)
    p.add_argument("--q-true", type=int, default=180, dest="q_true")
    p.add_argument("--q-fit-large", type=int, default=100, dest="q_fit_large")
    p.add_argument("--q-fit-small", type=int, default=50, dest="q_fit_small")
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=2_000, dest="burn_in")
    p.add_argument("--thin", type=int, default=4)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def dispatch(argv) -> int:
    """Parse and run; 0 on success, 1 on validation error, 2 on numerical failure
    or when memory runs out."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, argv)
    # LinAlgError subclasses ValueError, so the numerical branch goes first
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: memory ran out ({exc})", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
