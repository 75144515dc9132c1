"""The library API that the benchmark harness and the demos call.

Neither is part of the package, so a deletion that breaks one of them
fails no other test. These load the harness's modules from their files
(writing nothing beside them) and run each demo from a copy.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sglmm.basis as basis
import sglmm.cli as cli
import sglmm.sampler as sampler

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered, since a dataclass looks up its module while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_harness_finds_every_name_it_uses(monkeypatch):
    # loading layers imports every library name it times
    _load_bench_module("layers", monkeypatch)
    child = _load_bench_module("child", monkeypatch)
    modules = (cli, sampler, basis)
    before = [dict(vars(m)) for m in modules]
    # patching reads every attribute the traced mode wraps
    undo = child.install_trace(child.Tracer(), *modules)
    try:
        assert sampler.fit is not before[1]["fit"]
    finally:
        undo()
    for module, names in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in names.items())


def test_benchmark_layers_measure_an_rhz_fit(tmp_path, monkeypatch):
    # the traced mode passes the rhz basis's L and Q_R to the kernels it
    # times; a tiny gaussian-rhz input runs every one of them once
    inputs = _load_bench_module("inputs", monkeypatch)
    layers = _load_bench_module("layers", monkeypatch)
    w = replace(inputs.WORKLOADS["gaussian-rhz"], size=(6, 6), iterations=40, burn_in=10)
    data, graph = str(tmp_path / "d.csv"), str(tmp_path / "g.edges")
    inputs.write_inputs(inputs.make_inputs(w, 1), data, graph)
    out = layers.measure(inputs.fit_argv(w, data, graph, str(tmp_path / "fit"), 1))
    assert all(np.isfinite(v) for v in out.values())
    assert out["sampler.gibbs_gaussian_us"] > 0


@pytest.mark.parametrize(
    "demo",
    [
        "01_moran_spectrum.py",
        pytest.param("02_binary_fit_comparison.py", marks=pytest.mark.slow),
        "03_gaussian_gibbs_conjugacy.py",
        "04_poisson_offset_rates.py",
    ],
)
def test_demo_runs(tmp_path, demo):
    # from a copy, so its demo_output/ lands in tmp_path
    shutil.copy(ROOT / "demos" / demo, tmp_path)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-W", "error", demo], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
