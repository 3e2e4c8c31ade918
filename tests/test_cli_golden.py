"""Every cli-oneshot benchmark case, run in-process, matches the benchmark's golden output.

The cases and their design files come from ``perfbench/inputs.py`` and each
output is checked by ``perfbench/gate.py`` against ``perfbench/golden.json``,
so a one-shot call that drifts from the pinned output (its exit code, the
strict policy's error or the permissive policy's warning included) fails
here and not only in a benchmark run.  None of those files is changed.
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
GOLDEN = gate.load(PERFBENCH / "golden.json")["cli"]
CASES = [case["argv"] for case in inputs.cli_cases()]


@pytest.mark.parametrize("argv", CASES, ids=inputs.case_key)
def test_cli_case_matches_golden(tmp_path, monkeypatch, capsys, argv):
    for name, text in inputs.design_files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    expected = GOLDEN[inputs.case_key(argv)]
    assert gate.check_cli(expected, code, captured.out, captured.err) is None
