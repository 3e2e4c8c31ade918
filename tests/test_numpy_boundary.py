"""Which calls load numpy: a one-point call does not, a stack does.

Importing swedge and the CLI's ``power``, ``catalog`` and ``validate`` run
on Python floats and the bytes of a design; ``sweep``, ``compare``, the
det(A) = 0 rank diagnosis and the dense oracle import numpy on first use.
Each case runs in a fresh interpreter, since a test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import swedge
from swedge.designs import catalog_design, serialize_design

# Runs the CLI with the given arguments and prints its exit code and
# whether numpy was imported, after the command's own output.
CLI = """
import json, sys
from swedge.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules]))
"""

POINT = ["--rho-w", "0.05", "--n", "15", "--delta", "0.4"]
MODELS = {
    "cs": ["--model", "cs"],
    "cohort": ["--model", "cohort", "--pi", "0.5"],
    "nested-rho-a": ["--model", "nested", "--rho-a", "0.02"],
    "nested-cac": ["--model", "nested", "--cac", "0.5"],
}


def _run(script, *args, cwd=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(swedge.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def design_files(tmp_path_factory):
    """A design file in each form, and one the strict policy rejects."""
    path = tmp_path_factory.mktemp("designs")
    grid = catalog_design("fig8-design2")
    (path / "d.csv").write_text(serialize_design(grid))
    (path / "d.json").write_text(serialize_design(grid, fmt="json"))
    (path / "bad.csv").write_text("0,1,0\n0,0,2\n")
    return path


def test_importing_swedge_leaves_numpy_unloaded():
    assert _run('import json, sys, swedge, swedge.cli; print(json.dumps("numpy" in sys.modules))') \
        is False


@pytest.mark.parametrize("argv, code", [
    *[(["power", "--design", "fig2b", *flags, *POINT], 0) for flags in MODELS.values()],
    (["power", "--design", "fig2b", "--model", "cs", "--n", "15", "--sigma-alpha-sq", "0.1",
      "--sigma-e-sq", "1", "--delta", "0.4"], 0),
    (["power", "--design", "fig5a", "--additive", *MODELS["cs"], *POINT], 0),
    (["power", "--design", "fig2b", "--contrast", "d=1,-1@0.3", *MODELS["cs"], *POINT], 0),
    *[(["power", "--design", "fig8-design2", *MODELS["nested-cac"], *POINT, "--format", fmt], 0)
      for fmt in ("table", "csv", "json")],
    (["power", "--design", "d.csv", *MODELS["cs"], *POINT], 0),
    (["power", "--design", "d.json", *MODELS["cohort"], *POINT], 0),
    (["power", "--design", "bad.csv", *MODELS["cs"], *POINT], 2),
    (["catalog"], 0),
    (["catalog", "fig8-design2", "--json"], 0),
    (["validate", "--design", "fig1"], 0),
    (["validate", "--design", "bad.csv"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_one_point_commands_do_not_load_numpy(design_files, argv, code):
    assert _run(CLI, *argv, cwd=design_files) == [code, False]


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--design", "fig2b", *MODELS["cs"], "--n", "15", "--delta", "0.4",
      "--rho-values", "0.1,0.2"], 0),
    (["compare", "--design", "fig2b", "--design", "fig1", *MODELS["cs"], "--n", "15",
      "--delta", "0.4", "--rho-values", "0.1,0.2"], 0),
    # fig5a confounds the interaction with the final period: the rank diagnosis
    (["power", "--design", "fig5a", *MODELS["cs"], *POINT], 3),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_stacks_and_the_rank_diagnosis_load_numpy(argv, code):
    assert _run(CLI, *argv) == [code, True]


def test_the_oracle_loads_numpy():
    script = """
import json, sys
from swedge import CompoundSymmetry, catalog_design, oracle_covariance
before = "numpy" in sys.modules
oracle_covariance(catalog_design("fig2b"), CompoundSymmetry(1.0, 0.5))
print(json.dumps([before, "numpy" in sys.modules]))
"""
    assert _run(script) == [False, True]
