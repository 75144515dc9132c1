import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from test_basis import _irregular_graphs

from sglmm.basis import moran_spectrum
from sglmm.cli import CONFIG_KEYS, _mcmc_from_settings, _spec_from_settings, dispatch
from sglmm.graph import write_edge_list
from sglmm.io import read_config, read_table, write_table
from sglmm.model import PriorSet
from sglmm.sampler import McmcConfig


def run(args):
    return dispatch([str(a) for a in args])


# ---------------------------------------------------------------------------
# tables and config files
# ---------------------------------------------------------------------------


def test_table_round_trip_17_digits(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(0)
    cols = {
        "a": rng.standard_normal(50) * 1e-7,
        "b": rng.standard_normal(50) * 1e12,
        "c": np.array([1 / 3] * 50),
    }
    write_table(path, ["a", "b", "c"], cols)
    back = read_table(path)
    for name in ("a", "b", "c"):
        assert np.array_equal(back[name], cols[name])


def test_header_only_csv_is_empty_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    table = read_table(path)
    assert table.n_rows == 0
    assert table.names == ["a", "b"]


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_table(path)


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match=":3"):
        read_table(path)


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
def test_write_table_rejects_ragged_columns(tmp_path, lengths):
    # a shorter later column is a validation error, and a longer one is not
    # cut to the length of the first
    cols = {"a": np.zeros(lengths[0]), "b": np.ones(lengths[1])}
    with pytest.raises(ValueError, match="ragged table"):
        write_table(tmp_path / "t.csv", ["a", "b"], cols)


def test_non_numeric_cell_reports_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,x\n")
    with pytest.raises(ValueError, match=":2.*not numeric"):
        read_table(path)


def test_nan_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\nnan\n")
    with pytest.raises(ValueError, match="NaN"):
        read_table(path)


def test_repeated_column_name_rejected(tmp_path):
    # the second 'x' could not be reached, and t["x"] silently gave the first
    path = tmp_path / "t.csv"
    path.write_text("z,x,x\n1,2,3\n")
    with pytest.raises(ValueError, match=r"t\.csv:1: .*'x' repeated"):
        read_table(path)


def test_read_table_holds_values_in_8_byte_columns(tmp_path, traced_peak):
    # columns grow as 8-byte doubles, not as lists of Python floats
    values = np.random.default_rng(2).standard_normal((400, 903))
    names = [f"c{j}" for j in range(values.shape[1])]
    path = tmp_path / "chain.csv"
    write_table(path, names, list(values.T))
    assert np.array_equal(read_table(path).matrix(), values)
    assert traced_peak(read_table, path) < 3 * values.nbytes


def test_summarize_holds_one_copy_of_the_chain(tmp_path, traced_peak):
    # the chain's values are read into one (draws, params) buffer that the
    # summary reads in place: no second, stacked copy (2.1x before)
    values = np.random.default_rng(3).standard_normal((400, 903))
    names = [f"c{j}" for j in range(values.shape[1])]
    chain = tmp_path / "chain.csv"
    write_table(chain, names, list(values.T))
    args = ["summarize", "--chain", chain, "--out", tmp_path / "s.json"]
    assert traced_peak(run, args) < 1.5 * values.nbytes
    assert run(args) == 0


def test_config_parse_and_unknown_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# model\nfamily=bernoulli\nq=50\n")
    cfg = read_config(path, CONFIG_KEYS)
    assert cfg == {"family": "bernoulli", "q": "50"}

    bad = tmp_path / "bad"
    bad.write_text("famly=bernoulli\n")
    with pytest.raises(ValueError, match="unknown key 'famly'"):
        read_config(bad, CONFIG_KEYS)


def test_config_naming_only_the_model_takes_dataclass_defaults(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("family=poisson\nparameterization=sparse\nq=6\nseed=7\n")
    settings = read_config(path, CONFIG_KEYS)
    spec = _spec_from_settings(settings)
    assert (spec.family, spec.parameterization, spec.q) == ("poisson", "sparse", 6)
    assert spec.priors == PriorSet()
    assert _mcmc_from_settings(settings) == McmcConfig(seed=7)


def test_config_setting_every_key_round_trips(tmp_path):
    # every key at a value other than its default reaches the spec, the
    # priors and the MCMC settings
    values = {
        "family": "poisson",
        "parameterization": "sparse",
        "q": 6,
        "beta_variance": 7.5,
        "tau_shape": 1.5,
        "tau_scale": 30.0,
        "sigma2_shape": 0.25,
        "sigma2_rate": 0.125,
        "iterations": 1234,
        "burn_in": 56,
        "thin": 7,
        "seed": 89,
    }
    assert set(values) == set(CONFIG_KEYS)
    path = tmp_path / "cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    settings = read_config(path, CONFIG_KEYS)
    spec = _spec_from_settings(settings)
    assert (spec.family, spec.parameterization, spec.q) == ("poisson", "sparse", 6)
    assert spec.priors == PriorSet(
        beta_variance=7.5, tau_shape=1.5, tau_scale=30.0, sigma2_shape=0.25, sigma2_rate=0.125
    )
    cfg = _mcmc_from_settings(settings)
    assert cfg == McmcConfig(iterations=1234, burn_in=56, thin=7, seed=89)
    for obj in (spec.priors, cfg):
        assert all(getattr(obj, f.name) != f.default for f in fields(obj))


# ---------------------------------------------------------------------------
# CLI basics
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_1(capsys):
    assert run(["lattice", "--rows", 2, "--cols", 2, "--frobnicate"]) == 1


def test_unknown_subcommand_exits_1():
    assert run(["transmogrify"]) == 1


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_lattice_writes_header(tmp_path):
    out = tmp_path / "g.edges"
    assert run(["lattice", "--rows", 2, "--cols", 2, "--out", out]) == 0
    assert out.read_text().splitlines()[0] == "4 4"


def test_lattice_with_coords(tmp_path):
    out = tmp_path / "g.edges"
    coords = tmp_path / "c.txt"
    assert run(["lattice", "--rows", 3, "--cols", 3, "--out", out, "--coords-out", coords]) == 0
    assert len(coords.read_text().splitlines()) == 9


# ---------------------------------------------------------------------------
# pipeline: simulate -> eigs -> fit -> summarize
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    code = dispatch(
        [
            "simulate", "--family", "bernoulli", "--rows", "8", "--cols", "8",
            "--q", "12", "--tau", "1.0", "--seed", "5", "--out-prefix", str(d / "toy"),
        ]
    )
    assert code == 0
    return d


def test_simulate_outputs(sim_dir):
    data = read_table(sim_dir / "toy_data.csv")
    assert data.names == ["z", "x", "y"]
    assert data.n_rows == 64
    truth = read_table(sim_dir / "toy_truth.csv")
    assert truth.names == ["x", "y", "eta", "surface"]
    delta = read_table(sim_dir / "toy_delta.csv")
    assert delta.n_rows == 12
    edges = (sim_dir / "toy_graph.edges").read_text().splitlines()
    assert edges[0] == "64 112"
    manifest = json.loads((sim_dir / "toy_manifest.json").read_text())
    assert manifest["settings"]["seed"] == 5
    assert "config_sha256" in manifest


def test_simulate_requires_seed(tmp_path):
    code = dispatch(
        ["simulate", "--preset", "binary", "--out-prefix", str(tmp_path / "x")]
    )
    assert code == 1


def test_eigs_spectrum_and_threshold_basis(sim_dir, tmp_path):
    spec_out = tmp_path / "spectrum.csv"
    basis_out = tmp_path / "basis.csv"
    code = run(
        [
            "eigs", "--graph", sim_dir / "toy_graph.edges",
            "--design", sim_dir / "toy_data.csv", "--covariates", "x,y",
            "--threshold", "0.5", "--spectrum-out", spec_out, "--basis-out", basis_out,
        ]
    )
    assert code == 0
    spectrum = read_table(spec_out)
    assert spectrum.n_rows == 64
    # spectrum columns: index, eigenvalue, standardized_eigenvalue
    assert spectrum.names == ["index", "eigenvalue", "standardized_eigenvalue"]
    std = spectrum["standardized_eigenvalue"]
    assert np.all(np.diff(std) <= 1e-12)
    basis = read_table(basis_out)
    assert basis.n_rows == 64
    assert len(basis.names) == int(np.sum(std > 0.5))


def test_eigs_without_rank_rule_computes_no_eigenvectors(sim_dir, tmp_path, monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh

    def recording_eigh(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return eigh(*args, **kwargs)

    def no_eigsh(*args, **kwargs):
        raise AssertionError("eigsh computes eigenvectors")

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_eigsh)
    code = run(
        ["eigs", "--graph", sim_dir / "toy_graph.edges", "--design", sim_dir / "toy_data.csv",
         "--covariates", "x,y", "--spectrum-out", tmp_path / "s.csv"]
    )
    assert code == 0
    assert calls == [True]
    assert read_table(tmp_path / "s.csv").n_rows == 64


def test_eigs_edgeless_graph_rejected(tmp_path):
    edges = tmp_path / "e.edges"
    edges.write_text("3 0\n")
    write_table(tmp_path / "d.csv", ["x"], {"x": np.array([0.0, 0.5, 1.0])})
    code = run(
        ["eigs", "--graph", edges, "--design", tmp_path / "d.csv",
         "--spectrum-out", tmp_path / "s.csv"]
    )
    assert code == 1


def test_eigs_threshold_50x50_returns_265_columns(tmp_path, capsys):
    # the documented 50x50 workflow: threshold 0.7 keeps 265 eigenvectors
    edges = tmp_path / "g.edges"
    dispatch(["lattice", "--rows", "50", "--cols", "50", "--out", str(edges)])
    from sglmm import build_lattice, lattice_design

    X = lattice_design(build_lattice(50, 50))
    write_table(tmp_path / "d.csv", ["x", "y"], {"x": X.X[:, 0], "y": X.X[:, 1]})
    code = run(
        ["eigs", "--graph", edges, "--design", tmp_path / "d.csv",
         "--threshold", "0.7", "--spectrum-out", tmp_path / "s.csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "moran basis: 265 columns" in out
    spectrum = read_table(tmp_path / "s.csv")
    assert spectrum.n_rows == 2500


def test_eigs_map_output(sim_dir, tmp_path):
    map_out = tmp_path / "map.csv"
    code = run(
        [
            "eigs", "--graph", sim_dir / "toy_graph.edges",
            "--design", sim_dir / "toy_data.csv", "--covariates", "x,y",
            "--q", "4", "--spectrum-out", tmp_path / "s.csv",
            "--map-out", map_out, "--map-index", "2",
            "--coords", sim_dir / "toy_coords.txt",
        ]
    )
    assert code == 0
    m = read_table(map_out)
    assert m.names == ["x", "y", "component"]
    assert m.n_rows == 64


def test_fit_sparse_writes_chain_summary_manifest(sim_dir):
    prefix = sim_dir / "fit_sparse"
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "6",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "7", "--iterations", "3000", "--burn-in", "500", "--thin", "5",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    chain = read_table(f"{prefix}_chain.csv")
    assert chain.n_rows == (3000 - 500) // 5
    assert chain.names[:2] == ["beta.x", "beta.y"]
    assert "tau" in chain.names
    summary = json.loads(Path(f"{prefix}_summary.json").read_text())
    assert "beta.x" in summary["params"]
    for key in ("mean", "eqt_lo", "eqt_hi", "hpd_lo", "hpd_hi", "mcse"):
        assert key in summary["params"]["beta.x"]
    manifest = json.loads(Path(f"{prefix}_manifest.json").read_text())
    assert manifest["settings"]["seed"] == 7
    assert "versions" in manifest
    fitted = read_table(f"{prefix}_fitted.csv")
    assert fitted.names == ["x", "y", "fitted"]


def test_fit_reruns_identically_from_same_seed(sim_dir, tmp_path):
    args = [
        "fit", "--model", "sparse", "--family", "bernoulli", "--q", "6",
        "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
        "--seed", "21", "--iterations", "2000", "--burn-in", "400", "--thin", "4",
    ]
    assert run(args + ["--out-prefix", tmp_path / "a"]) == 0
    assert run(args + ["--out-prefix", tmp_path / "b"]) == 0
    assert (tmp_path / "a_chain.csv").read_text() == (tmp_path / "b_chain.csv").read_text()


def _large_graph_fit(tmp_path, g, X, q):
    # n > 2500 takes the iterative Moran eigensolver; a short sparse fit
    from sglmm.graph import write_edge_list

    write_edge_list(tmp_path / "large.edges", g)
    z = (np.random.default_rng(4).random(g.n) < 0.5).astype(float)
    write_table(tmp_path / "large.csv", ["z", "x", "y"], {"z": z, "x": X[:, 0], "y": X[:, 1]})
    return [
        "fit", "--model", "sparse", "--family", "bernoulli", "--q", q,
        "--data", tmp_path / "large.csv", "--graph", tmp_path / "large.edges",
        "--seed", "13", "--iterations", "300", "--burn-in", "100", "--thin", "2",
    ]


def test_fit_above_dense_limit_reruns_identically(tmp_path):
    from sglmm.graph import build_lattice

    g = build_lattice(51, 51)
    args = _large_graph_fit(tmp_path, g, g.coords, 5)
    assert run(args + ["--out-prefix", tmp_path / "a"]) == 0
    assert run(args + ["--out-prefix", tmp_path / "b"]) == 0
    assert (tmp_path / "a_chain.csv").read_bytes() == (tmp_path / "b_chain.csv").read_bytes()


def test_fit_above_dense_limit_counts_positive_eigenvalues(tmp_path, capsys):
    # three edges on 2600 vertices: the Moran operator has two positive
    # eigenvalues and about 2596 zero ones
    from sglmm.graph import graph_from_edges

    g = graph_from_edges(2600, [(0, 1), (1, 2), (5, 6)])
    X = np.random.default_rng(8).standard_normal((g.n, 2))
    args = _large_graph_fit(tmp_path, g, X, 3)
    assert run(args + ["--out-prefix", tmp_path / "q3"]) == 1
    assert "q=3 exceeds the number of positive Moran eigenvalues (2)" in capsys.readouterr().err
    args[args.index("--q") + 1] = 2
    assert run(args + ["--out-prefix", tmp_path / "q2"]) == 0
    assert (tmp_path / "q2_chain.csv").exists()


@pytest.mark.parametrize("model", ["nonspatial", "traditional", "rhz", "sparse"])
def test_fit_rejects_non_finite_covariate(tmp_path, capsys, model):
    # an infinite covariate used to give a NaN nonspatial summary, and a
    # misleading eigenpair count for the sparse model
    from sglmm.graph import build_lattice

    g = build_lattice(5, 5)
    write_edge_list(tmp_path / "g.edges", g)
    x = g.coords[:, 0].copy()
    x[7] = np.inf
    z = (np.arange(g.n) % 2).astype(float)
    write_table(tmp_path / "d.csv", ["z", "x", "y"], {"z": z, "x": x, "y": g.coords[:, 1]})
    args = [
        "fit", "--model", model, "--family", "bernoulli", "--q", "3",
        "--data", tmp_path / "d.csv", "--graph", tmp_path / "g.edges",
        "--seed", "1", "--iterations", "200", "--burn-in", "50",
        "--out-prefix", tmp_path / "fit",
    ]
    assert run(args) == 1
    assert "column 'x' has a non-finite value inf in row 7" in capsys.readouterr().err
    assert not (tmp_path / "fit_chain.csv").exists()


def test_fit_nonspatial_uses_irls(sim_dir):
    prefix = sim_dir / "fit_glm"
    code = run(
        [
            "fit", "--model", "nonspatial", "--family", "bernoulli",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    doc = json.loads(Path(f"{prefix}_summary.json").read_text())
    assert doc["model"] == "nonspatial"
    assert doc["converged"]
    assert set(doc["beta_hat"]) == {"x", "y"}


def test_fit_traditional_and_rhz_run(sim_dir):
    for model in ("traditional", "rhz"):
        prefix = sim_dir / f"fit_{model}"
        code = run(
            [
                "fit", "--model", model, "--family", "bernoulli",
                "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
                "--seed", "3", "--iterations", "1500", "--burn-in", "300", "--thin", "3",
                "--out-prefix", prefix,
            ]
        )
        assert code == 0
        chain = read_table(f"{prefix}_chain.csv")
        assert chain.n_rows == (1500 - 300) // 3


def test_fit_multiple_chains(sim_dir, tmp_path):
    prefix = tmp_path / "multi"
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "9", "--iterations", "1500", "--burn-in", "300", "--thin", "3",
            "--chains", "2", "--out-prefix", prefix,
        ]
    )
    assert code == 0
    c0 = read_table(f"{prefix}_chain_0.csv")
    c1 = read_table(f"{prefix}_chain_1.csv")
    assert c0.n_rows == c1.n_rows == 400
    assert not np.array_equal(c0["tau"], c1["tau"])


def test_fit_chains_in_workers_write_serial_bytes(sim_dir, tmp_path, monkeypatch):
    # one usable CPU runs the chains one after another in this process, two
    # run them in worker processes; the chain files must not differ
    args = [
        "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
        "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
        "--seed", "9", "--iterations", "1500", "--burn-in", "300", "--thin", "3",
        "--chains", "2",
    ]
    for name, cpus in (("serial", {0}), ("workers", {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert run(args + ["--out-prefix", tmp_path / name]) == 0
    for i in range(2):
        serial = (tmp_path / f"serial_chain_{i}.csv").read_bytes()
        assert serial == (tmp_path / f"workers_chain_{i}.csv").read_bytes()


def test_fit_with_config_file(sim_dir, tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "family=bernoulli\nparameterization=sparse\nq=6\n"
        "iterations=2000\nburn_in=400\nthin=4\nseed=31\n"
    )
    prefix = tmp_path / "cfgfit"
    code = run(
        [
            "fit", "--config", cfg,
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    assert read_table(f"{prefix}_chain.csv").n_rows == 400


def test_fit_config_bad_family_lists_allowed(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("family=binomial\nparameterization=sparse\nq=6\nseed=1\n")
    code = run(
        [
            "fit", "--config", cfg,
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--out-prefix", tmp_path / "x",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bernoulli" in err and "poisson" in err and "gaussian" in err


@pytest.mark.parametrize(
    "line",
    [
        "target_accept_multivariate=2.0",
        "target_accept_univariate=-0.5",
        "initial_step_sizes=beta:1,sites:2",
        "initial_step_sizes=effects:-0.3",
        "adapt=false",
    ],
)
def test_fit_config_out_of_range_mcmc_setting_exits_1(sim_dir, tmp_path, capsys, line):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"family=bernoulli\nparameterization=sparse\nq=6\nseed=1\n{line}\n")
    code = run(
        [
            "fit", "--config", cfg,
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--out-prefix", tmp_path / "x",
        ]
    )
    assert code == 1
    assert line.partition("=")[0] in capsys.readouterr().err


def test_fit_requires_seed_for_mcmc(sim_dir, tmp_path, capsys):
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--out-prefix", tmp_path / "x",
        ]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_fit_offset_column(tmp_path):
    # poisson with exposure: eta includes log(offset)
    code = dispatch(
        [
            "simulate", "--family", "poisson", "--rows", "6", "--cols", "6",
            "--q", "6", "--tau", "2.0", "--seed", "11",
            "--out-prefix", str(tmp_path / "cnt"),
        ]
    )
    assert code == 0
    data = read_table(tmp_path / "cnt_data.csv")
    rng = np.random.default_rng(0)
    births = rng.uniform(50, 500, 36)
    deaths = rng.poisson(births * 0.05).astype(float)
    write_table(
        tmp_path / "off.csv",
        ["z", "x", "y", "births"],
        {"z": deaths, "x": data["x"], "y": data["y"], "births": births},
    )
    prefix = tmp_path / "offfit"
    code = run(
        [
            "fit", "--model", "sparse", "--family", "poisson", "--q", "4",
            "--data", tmp_path / "off.csv", "--graph", tmp_path / "cnt_graph.edges",
            "--offset-col", "births", "--seed", "13",
            "--iterations", "2000", "--burn-in", "400", "--thin", "4",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    chain = read_table(f"{prefix}_chain.csv")
    assert chain.names[:2] == ["beta.x", "beta.y"]


def test_summarize_command(sim_dir, tmp_path):
    prefix = tmp_path / "fit"
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "6",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "7", "--iterations", "1000", "--burn-in", "200", "--thin", "4",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    out = tmp_path / "s.json"
    code = run(["summarize", "--chain", f"{prefix}_chain.csv", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["level"] == 0.95
    assert "tau" in doc["params"]
    p = doc["params"]["tau"]
    assert p["hpd_hi"] - p["hpd_lo"] <= p["eqt_hi"] - p["eqt_lo"] + 1e-12


@pytest.mark.parametrize("level", ["0", "-0.5", "1", "1.5"])
def test_summarize_rejects_level_outside_unit_interval(tmp_path, capsys, level):
    chain = tmp_path / "c.csv"
    write_table(chain, ["beta.x", "tau"], [np.linspace(0, 1, 50), np.linspace(1, 2, 50)])
    out = tmp_path / "s.json"
    assert run(["summarize", "--chain", chain, "--level", level, "--out", out]) == 1
    assert "level" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_level_outside_unit_interval_before_any_work(sim_dir, tmp_path, capsys):
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "6",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "7", "--iterations", "300", "--burn-in", "100",
            "--level", "1.5", "--out-prefix", tmp_path / "fit",
        ]
    )
    assert code == 1
    assert "level" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_rejects_chain_that_keeps_no_draw_before_any_work(sim_dir, tmp_path, capsys):
    # one post-burn-in iteration holds no draw at thin 5; the whole chain used
    # to run, leave an empty chain file and then fail to summarize it
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "6",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "7", "--iterations", "10", "--burn-in", "9", "--thin", "5",
            "--out-prefix", tmp_path / "fit",
        ]
    )
    assert code == 1
    assert "thin 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _poisson_6x6(tmp_path, z, exposure=None):
    """A 6x6 lattice and a Poisson data set on it; returns the fit arguments."""
    from sglmm.graph import build_lattice

    g = build_lattice(6, 6)
    write_edge_list(tmp_path / "g.edges", g)
    cols = {"z": z, "x": g.coords[:, 0], "y": g.coords[:, 1]}
    if exposure is not None:
        cols["E"] = exposure
    write_table(tmp_path / "d.csv", list(cols), cols)
    args = [
        "fit", "--family", "poisson", "--data", tmp_path / "d.csv",
        "--graph", tmp_path / "g.edges", "--out-prefix", tmp_path / "fit",
    ]
    return args + (["--offset-col", "E"] if exposure is not None else [])


@pytest.mark.parametrize("model", ["nonspatial", "sparse"])
@pytest.mark.parametrize("column", ["z", "E"])
def test_fit_rejects_infinite_count_or_exposure(tmp_path, capsys, model, column):
    # one infinite count or exposure used to give a NaN nonspatial summary,
    # and a sparse fit that failed only at the start of its chain
    z = np.random.default_rng(2).poisson(5.0, 36).astype(float)
    exposure = np.full(36, 10.0)
    {"z": z, "E": exposure}[column][5] = np.inf
    args = _poisson_6x6(tmp_path, z, exposure)
    if model == "sparse":
        args += ["--q", "4", "--seed", "1", "--iterations", "200", "--burn-in", "50"]
    assert run(args + ["--model", model]) == 1
    assert "entry 5 is inf" in capsys.readouterr().err
    assert not any(p.name.startswith("fit") for p in tmp_path.iterdir())


def test_fit_nonspatial_non_finite_estimate_exits_2(tmp_path, capsys):
    # counts of 1e12 drive IRLS from its zero start to a beta whose exp
    # overflows; the fit used to exit 0 with a NaN summary
    args = _poisson_6x6(tmp_path, np.full(36, 1e12))
    assert run(args + ["--model", "nonspatial"]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not any(p.name.startswith("fit") for p in tmp_path.iterdir())


@pytest.mark.parametrize("chains", ["1", "2"])
def test_fit_mcmc_non_finite_start_exits_2_and_leaves_no_file(tmp_path, capsys, chains):
    # the same counts give an IRLS start that is not finite; the chain file
    # was opened before the start was checked and used to be left empty
    args = _poisson_6x6(tmp_path, np.full(36, 1e12))
    args += ["--model", "sparse", "--q", "4", "--seed", "1", "--iterations", "200",
             "--burn-in", "50", "--chains", chains]
    assert run(args) == 2
    assert "not finite" in capsys.readouterr().err
    assert not any(p.name.startswith("fit") for p in tmp_path.iterdir())


def test_fit_unwritable_prefix_fails_before_the_chain(tmp_path, monkeypatch):
    import sglmm.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(cli_mod, "run_mcmc", never)
    args = _poisson_6x6(tmp_path, np.full(36, 3.0))
    args[args.index("--out-prefix") + 1] = tmp_path / "missing" / "fit"
    args += ["--model", "sparse", "--q", "4", "--seed", "1", "--iterations", "200",
             "--burn-in", "50"]
    assert run(args) == 1


def test_summarize_reproduces_fit_summary(sim_dir, tmp_path):
    # the chain CSV holds every draw to 17 significant digits, so summarizing
    # it gives back the fit's own summary of its draws exactly
    prefix = tmp_path / "fit"
    code = run(
        [
            "fit", "--model", "rhz", "--family", "bernoulli",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "3", "--iterations", "1500", "--burn-in", "500", "--thin", "4",
            "--level", "0.9", "--out-prefix", prefix,
        ]
    )
    assert code == 0
    out = tmp_path / "s.json"
    chain = f"{prefix}_chain.csv"
    assert run(["summarize", "--chain", chain, "--level", "0.9", "--out", out]) == 0
    fitted = json.loads(Path(f"{prefix}_summary.json").read_text())
    summarized = json.loads(out.read_text())
    assert summarized["n_draws"] == fitted["n_draws"] == 250
    assert summarized["level"] == fitted["level"] == 0.9
    assert summarized["params"] == fitted["params"]


def test_summarize_empty_chain_fails(tmp_path):
    chain = tmp_path / "c.csv"
    chain.write_text("beta.x\n")
    assert run(["summarize", "--chain", chain, "--out", tmp_path / "s.json"]) == 1


def test_numerical_failure_exits_2(sim_dir, monkeypatch):
    import sglmm.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic Cholesky breakdown")

    monkeypatch.setattr(cli_mod, "run_mcmc", boom)
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "1", "--iterations", "1000", "--burn-in", "100",
            "--out-prefix", sim_dir / "wontexist",
        ]
    )
    assert code == 2


def test_memory_error_exits_2_and_says_memory_ran_out(sim_dir, tmp_path, monkeypatch, capsys):
    import sglmm.cli as cli_mod

    def boom(*args, **kwargs):
        raise MemoryError("synthetic allocation failure")

    monkeypatch.setattr(cli_mod, "moran_basis", boom)
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
            "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
            "--seed", "1", "--iterations", "1000", "--burn-in", "100",
            "--out-prefix", tmp_path / "fit",
        ]
    )
    assert code == 2
    assert "memory ran out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "eigs"])
def test_repeated_covariate_name_rejected(sim_dir, tmp_path, capsys, command):
    inputs = {
        "fit": [
            "fit", "--model", "nonspatial", "--family", "bernoulli",
            "--data", sim_dir / "toy_data.csv", "--out-prefix", tmp_path / "fit",
        ],
        "eigs": [
            "eigs", "--design", sim_dir / "toy_data.csv",
            "--spectrum-out", tmp_path / "spectrum.csv",
        ],
    }[command]
    code = run(inputs + ["--graph", sim_dir / "toy_graph.edges", "--covariates", "x, y,x"])
    assert code == 1
    assert "column name 'x' repeated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_summary_json_matches_asdict_bytes(sim_dir):
    # the summary document is built without dataclasses.asdict; its bytes
    # must still be those asdict gives, for a chain with effect columns
    from dataclasses import asdict

    import sglmm.cli as cli_mod
    from sglmm.graph import laplacian, read_edge_list
    from sglmm.model import Dataset, ModelSpec
    from sglmm.sampler import fit
    from sglmm.summary import summarize_chain

    table = read_table(sim_dir / "toy_data.csv")
    g = read_edge_list(sim_dir / "toy_graph.edges")
    X = cli_mod._design_from_table(table, ["x", "y"])
    cfg = McmcConfig(iterations=600, burn_in=100, thin=5, seed=4)
    chain = fit(ModelSpec("bernoulli", "traditional"), Dataset(X=X, Z=table["z"]),
                laplacian(g), cfg)
    assert any(nm.startswith("effect.") for nm in chain.names)
    doc = cli_mod._chain_summary_doc(chain, 0.9)
    expected = {**asdict(summarize_chain(chain, level=0.9)),
                **{k: v for k, v in doc.items() if k not in ("level", "params")}}
    assert list(doc) == list(expected)
    assert json.dumps(doc, indent=2, default=str) == json.dumps(expected, indent=2, default=str)


def _islands_6x6(tmp_path):
    # a graph with three components, written with a zero response: a
    # prior-only Gaussian rhz fit on it has a singular reduced precision
    from sglmm.graph import build_lattice, graph_from_edges, write_edge_list

    g = build_lattice(6, 6)
    edges = [(i, j) for i, j in g.edges if (i % 6 < 3) == (j % 6 < 3) and 35 not in (i, j)]
    write_edge_list(tmp_path / "islands.edges", graph_from_edges(36, edges))
    x, y = g.coords.T
    write_table(tmp_path / "data.csv", ["z", "x", "y"], {"z": np.zeros(36), "x": x, "y": y})
    return [
        "fit", "--model", "rhz", "--family", "gaussian",
        "--data", tmp_path / "data.csv", "--graph", tmp_path / "islands.edges",
        "--seed", "1", "--iterations", "100", "--burn-in", "10",
        "--out-prefix", tmp_path / "fit",
    ]


def test_prior_only_singular_precision_exits_2(tmp_path, monkeypatch, capsys):
    # the sampler's error is a numerical failure of the command
    import sglmm.cli as cli_mod
    from sglmm.sampler import fit

    monkeypatch.setattr(
        cli_mod, "run_mcmc", lambda *args, **kwargs: fit(*args, prior_only=True, **kwargs)
    )
    code = run(_islands_6x6(tmp_path))
    assert code == 2
    assert "not positive definite" in capsys.readouterr().err


def test_prior_only_singular_precision_in_workers_exits_2(tmp_path, monkeypatch, capsys):
    # the chains run in worker processes, and sampler.fit is a closure there,
    # as under a tracer: the workers' error still reaches the command
    import sglmm.sampler as sampler

    fit = sampler.fit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(
        sampler, "fit", lambda *args, **kwargs: fit(*args, prior_only=True, **kwargs)
    )
    code = run(_islands_6x6(tmp_path) + ["--chains", "2"])
    assert code == 2
    assert "not positive definite" in capsys.readouterr().err


def test_chain_writer_bytes_match_csv_writer(tmp_path):
    # the reference is csv.writer over f"{v:.17g}" cells of numpy scalars
    import csv

    from sglmm.io import RowWriter

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((300, 403)) * np.logspace(-300, 300, 403)
    rows[0, :6] = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -np.finfo(float).tiny / 3]
    rows[1, :3] = [1 / 3, 1e16, np.nan]
    names = [f"c.{i}" for i in range(403)]

    writer = RowWriter(tmp_path / "new.csv")
    try:
        for row in rows:
            writer(names, row)
    finally:
        writer.close()
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        old = csv.writer(fh)
        old.writerow(names)
        for row in rows:
            old.writerow([f"{v:.17g}" for v in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_reproduce_emits_report(tmp_path):
    out_dir = tmp_path / "study"
    code = run(
        [
            "reproduce", "--seed", "77", "--out-dir", out_dir,
            "--families", "bernoulli", "--rows", "8", "--cols", "8",
            "--q-true", "12", "--q-fit-large", "8", "--q-fit-small", "4",
            "--iterations", "1200", "--burn-in", "300", "--thin", "3",
        ]
    )
    assert code == 0
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0].startswith("family,model,dim")
    # nonspatial + traditional + rhz + two sparse fits
    assert len(report) == 1 + 5
    models = [line.split(",")[1] for line in report[1:]]
    assert models == ["nonspatial", "traditional", "rhz", "sparse-8", "sparse-4"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["settings"]["seed"] == 77


def test_fit_validation_errors(sim_dir, tmp_path):
    # graph/data size mismatch
    other = tmp_path / "other.edges"
    dispatch(["lattice", "--rows", "3", "--cols", "3", "--out", str(other)])
    code = run(
        [
            "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
            "--data", sim_dir / "toy_data.csv", "--graph", other,
            "--seed", "1", "--out-prefix", tmp_path / "x",
        ]
    )
    assert code == 1
    # no chains, or a negative count
    for chains in ("0", "-1"):
        code = run(
            [
                "fit", "--model", "sparse", "--family", "bernoulli", "--q", "4",
                "--data", sim_dir / "toy_data.csv", "--graph", sim_dir / "toy_graph.edges",
                "--seed", "1", "--chains", chains, "--out-prefix", tmp_path / "x",
            ]
        )
        assert code == 1


# islands, hubs and isolated vertices; every model and family must fit with
# finite draws and a finite fitted surface
@pytest.mark.slow
@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=_irregular_graphs())
def test_fit_on_irregular_graphs_exits_0_with_finite_outputs(case):
    g, X, q = case
    vals, _ = moran_spectrum(X, g)
    q = min(q, int(np.sum(vals > 1e-6 * max(abs(vals[0]), 1.0))))
    assume(q >= 1)
    rng = np.random.default_rng(g.n)
    responses = {
        "bernoulli": rng.integers(0, 2, g.n),
        "poisson": rng.poisson(3.0, g.n),
        "gaussian": X @ [0.5, 1.0] + rng.standard_normal(g.n),
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph = tmp / "g.edges"
        write_edge_list(graph, g)
        for family, z in responses.items():
            data = tmp / f"{family}.csv"
            write_table(data, ["z", "one", "x"], [z.astype(float), X[:, 0], X[:, 1]])
            for model in ("traditional", "rhz", "sparse"):
                prefix = tmp / f"{family}_{model}"
                code = run(
                    [
                        "fit", "--model", model, "--family", family,
                        "--data", data, "--graph", graph, "--seed", "1",
                        "--iterations", "400", "--burn-in", "100", "--thin", "1",
                        "--out-prefix", prefix,
                    ]
                    + (["--q", q] if model == "sparse" else [])
                )
                assert code == 0, (family, model)
                assert np.all(np.isfinite(read_table(f"{prefix}_chain.csv").matrix()))
                assert np.all(np.isfinite(read_table(f"{prefix}_fitted.csv")["fitted"]))
