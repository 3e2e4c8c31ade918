"""Every sweep-dense benchmark case, run in-process, matches the benchmark's golden output.

The cases come from ``perfbench/inputs.py`` and each output is checked by
``perfbench/gate.py`` against ``perfbench/golden.json``, in csv and in json,
so a sweep or compare that drifts from the pinned values fails here and
not only in a benchmark run.  None of those files is changed.
"""

import importlib.util
from pathlib import Path

import pytest

from swedge.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
gate = _load("gate")
GOLDEN = gate.load(PERFBENCH / "golden.json")["sweep"]
CASES = [case["argv"] for case in inputs.sweep_cases()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", CASES, ids=inputs.case_key)
def test_sweep_matches_golden(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    expected = GOLDEN[inputs.case_key(argv)]
    assert gate.check_sweep(expected, fmt, code, captured.out, captured.err) is None
