"""Which calls load numpy: a one-point call does not, a stack does.

Importing swedge and the CLI's ``power``, ``catalog`` and ``validate`` run
on Python floats and the bytes of a design; ``sweep``, ``compare``, the
det(A) = 0 rank diagnosis and the dense oracle import numpy on first use.
Neither the import nor a one-point call loads ``dataclasses``, ``inspect``
or ``statistics`` either, and only a call that reads or writes JSON loads
``json``.  Each case runs in a fresh interpreter, since a test process has
all of them loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import swedge
from swedge.cli import main
from swedge.designs import catalog_design, serialize_design

# The modules a one-point call has no use for, json among them unless it
# reads or writes JSON.  Each script prints its result, then the ones it loaded.
MODULES = ("numpy", "dataclasses", "inspect", "statistics", "json")
LOADED = f"print(*[name for name in {MODULES!r} if name in sys.modules])"

# Runs the CLI with the given arguments and prints its exit code, after the
# command's own output.
CLI = f"""
import sys
from swedge.cli import main
code = main(sys.argv[1:])
print(code)
{LOADED}
"""

POINT = ["--rho-w", "0.05", "--n", "15", "--delta", "0.4"]
MODELS = {
    "cs": ["--model", "cs"],
    "cohort": ["--model", "cohort", "--pi", "0.5"],
    "nested-rho-a": ["--model", "nested", "--rho-a", "0.02"],
    "nested-cac": ["--model", "nested", "--cac", "0.5"],
}


def _run(script, *args, cwd=None):
    """The last two lines the script prints: its result, and the set of
    :data:`MODULES` it loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(swedge.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result, loaded = proc.stdout.splitlines()[-2:]
    return json.loads(result), set(loaded.split())


@pytest.fixture(scope="module")
def design_files(tmp_path_factory):
    """A design file in each form, one the strict policy rejects, and one
    with a cell that is not a code."""
    path = tmp_path_factory.mktemp("designs")
    grid = catalog_design("fig8-design2")
    (path / "d.csv").write_text(serialize_design(grid))
    (path / "d.json").write_text(serialize_design(grid, fmt="json"))
    (path / "bad.csv").write_text("0,1,0\n0,0,2\n")
    (path / "bad.json").write_text('{"cells": [[0, 1], [0, true]]}')
    return path


def test_importing_swedge_leaves_numpy_unloaded():
    assert _run(f"import sys, swedge, swedge.cli\nprint(0)\n{LOADED}") == (0, set())


def test_a_permuted_grid_leaves_numpy_unloaded():
    # the bool check on the order finds numpy only if a caller loaded it
    script = f"""
import sys
from swedge import catalog_design
print(catalog_design("fig1").permute_clusters(range(5, -1, -1)).to_codes())
{LOADED}
"""
    assert _run(script) == (catalog_design("fig1").to_codes()[::-1], set())


@pytest.mark.parametrize("argv, code", [
    *[(["power", "--design", "fig2b", *flags, *POINT], 0) for flags in MODELS.values()],
    (["power", "--design", "fig2b", "--model", "cs", "--n", "15", "--sigma-alpha-sq", "0.1",
      "--sigma-e-sq", "1", "--delta", "0.4"], 0),
    # raw components from subnormal to near the float maximum are solved on
    # floats, and a variance or entries out of range fail there too
    *[(["power", "--design", "fig2b", "--model", "cs", "--n", n, "--sigma-alpha-sq", alpha,
        "--sigma-e-sq", e, "--delta", "0.3"], code) for n, alpha, e, code in [
        ("10", "1e-320", "1e-320", 0), ("10", "1e308", "1e308", 0),
        ("1", "1e-323", "5e-324", 2), ("1", "1.7e308", "1.7e308", 2)]],
    # the component each model adds to the cross-sectional one
    *[(["power", "--design", "fig2b", "--model", model, "--n", "10", "--sigma-alpha-sq", "0.1",
        "--sigma-e-sq", "1", flag, "0.2", "--delta", "0.3"], 0)
      for model, flag in [("cohort", "--sigma-psi-sq"), ("nested", "--sigma-nu-sq")]],
    (["power", "--design", "fig5a", "--additive", *MODELS["cs"], *POINT], 0),
    (["power", "--design", "fig2b", "--contrast", "d=1,-1@0.3", *MODELS["cs"], *POINT], 0),
    *[(["power", "--design", "fig8-design2", *MODELS["nested-cac"], *POINT, "--format", fmt], 0)
      for fmt in ("table", "csv", "json")],
    (["power", "--design", "d.csv", *MODELS["cs"], *POINT], 0),
    (["power", "--design", "d.json", *MODELS["cohort"], *POINT], 0),
    (["power", "--design", "bad.csv", *MODELS["cs"], *POINT], 2),
    (["power", "--design", "bad.json", *MODELS["cs"], *POINT], 2),
    (["catalog"], 0),
    (["catalog", "fig8-design2", "--json"], 0),
    (["validate", "--design", "fig1"], 0),
    (["validate", "--design", "bad.csv"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_one_point_commands_do_not_load_numpy(design_files, argv, code):
    reads_or_writes_json = any(arg.endswith("json") for arg in argv)
    assert _run(CLI, *argv, cwd=design_files) == (code, {"json"} if reads_or_writes_json else set())


def test_a_component_the_model_lacks_fails_without_numpy(capsys):
    argv = ["power", "--design", "fig2b", "--model", "cs", "--n", "10", "--sigma-alpha-sq", "0.1",
            "--sigma-e-sq", "1", "--sigma-psi-sq", "0.2", "--delta", "0.3"]
    assert _run(CLI, *argv) == (2, set())
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: sigma_psi_sq applies to the cohort model only, not cs\n"


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--design", "fig2b", *MODELS["cs"], "--n", "15", "--delta", "0.4",
      "--rho-values", "0.1,0.2"], 0),
    (["compare", "--design", "fig2b", "--design", "fig1", *MODELS["cs"], "--n", "15",
      "--delta", "0.4", "--rho-values", "0.1,0.2"], 0),
    # fig5a confounds the interaction with the final period: the rank diagnosis
    (["power", "--design", "fig5a", *MODELS["cs"], *POINT], 3),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_stacks_and_the_rank_diagnosis_load_numpy(argv, code):
    result, loaded = _run(CLI, *argv)
    assert result == code and "numpy" in loaded


def test_the_oracle_loads_numpy():
    script = f"""
import sys
from swedge import CompoundSymmetry, catalog_design, oracle_covariance
before = "numpy" in sys.modules
oracle_covariance(catalog_design("fig2b"), CompoundSymmetry(1.0, 0.5))
print(int(before))
{LOADED}
"""
    result, loaded = _run(script)
    assert result == 0 and "numpy" in loaded
