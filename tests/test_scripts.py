"""Smoke tests of the plotting scripts on tiny grids."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, header", [
    ("friction_sweep", ["--gamma", "0.5:2:log2", "--n-q", "4", "--n-p", "4"],
     "gamma,bound,corollary,exact,margin,converged"),
    ("adl_envelope", ["--gamma", "1", "--epsilon", "0.5:2:log2", "--n-q", "4",
                      "--n-p", "4", "--n-xi", "4"],
     "gamma,epsilon,exact,envelope,ratio"),
])
def test_script_writes_csv(name, argv, header, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert _load(name).main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 3
