"""Checks that the benchmark's correctness gate accepts the program and
rejects a corrupted golden reference.

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, golden: Path, seed: int = 1) -> tuple[dict, dict]:
    """(last stdout line, result file) of a one-second run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--golden", str(golden)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True)
    result_file = BENCH.parent / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(result_file.read_text())


def test_close12_allows_one_unit_in_the_12th_digit():
    assert gate.close12(0.147006593903, 0.147006593904)
    assert not gate.close12(0.147006593903, 0.147006593905)
    assert gate.close12(12.3456789012, 12.3456789011)
    assert not gate.close12(0.0, 1e-300)


def test_text_must_match_exactly_outside_numbers():
    assert gate.same(gate.tokens("se_trt1,0.147006593903\n"),
                     gate.tokens("se_trt1,0.147006593904\n"))
    assert not gate.same(gate.tokens("se_trt1,0.1\n"), gate.tokens("se_trt2,0.1\n"))
    assert not gate.same(gate.tokens("a\nb\n"), gate.tokens("a\n"))


def test_corrupted_cli_golden_value_makes_ops_fail(tmp_path):
    line, result = run_bench("cli-oneshot", BENCH / "golden.json")
    assert line["correct"] and line["failed"] == 0
    assert result["ops"]["ops_failed_frac"] == 0

    golden = gate.load(BENCH / "golden.json")
    entry = golden["cli"][inputs.case_key(inputs.cli_sequence(1)[0]["argv"])]
    digits = list(re.finditer(r"\d", entry["stdout"]))
    if digits:  # shift the last digit of the output by five units
        pos = digits[-1].start()
        bumped = str((int(entry["stdout"][pos]) + 5) % 10)
        entry["stdout"] = entry["stdout"][:pos] + bumped + entry["stdout"][pos + 1:]
    else:
        entry["exit"] += 1
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))

    line, result = run_bench("cli-oneshot", corrupted)
    assert not line["correct"] and line["failed"] >= 1
    assert result["ops"]["ops_failed_frac"] > 0


def test_corrupted_library_value_fails_its_check(tmp_path):
    golden = gate.load(BENCH / "golden.json")
    runner = workloads.SweepDense(1, golden, tmp_path)
    assert not any(runner.reference_checks())

    key = next(k for k, v in golden["library"].items() if "rows" in v)
    golden["library"][key]["rows"][0][2] *= 1 + 1e-9   # the first SE
    failures = [e for e in runner.reference_checks() if e]
    assert len(failures) == 1 and "se" in failures[0]


def test_corrupted_sweep_row_fails_in_both_formats(tmp_path):
    golden = gate.load(BENCH / "golden.json")
    runner = workloads.SweepDense(1, golden, tmp_path)
    runner.setup()
    case = next(c for c in runner.cases() if c["argv"][0] == "sweep" and "--rho-a" in c["argv"])
    for fmt in ("csv", "json"):
        assert runner.run({**case, "format": fmt}).error is None

    rows = golden["sweep"][inputs.case_key(case["argv"])]["rows"]
    ok = next(r for r in rows[137:] if not isinstance(r[-1], str))
    ok[-1] *= 1 + 1e-9   # a power value off in its 10th significant digit
    for fmt in ("csv", "json"):
        assert "row" in runner.run({**case, "format": fmt}).error
    ok[-1] /= 1 + 1e-9

    failed = next(r for r in rows if isinstance(r[-1], str))
    failed[-1] += "!"   # an error row's message
    assert "row" in runner.run({**case, "format": "json"}).error


def test_design_screen_rejects_an_oracle_disagreement(tmp_path, monkeypatch):
    runner = workloads.DesignScreen(1, None, tmp_path)
    runner.setup()
    case = runner.cases()[0]
    assert runner.run(case).error is None

    oracle = runner.variance.oracle_covariance

    def skewed(*args, **kwargs):
        cov = oracle(*args, **kwargs)
        cov.matrix[0, 0] *= 1 + 1e-8
        return cov

    monkeypatch.setattr(runner.variance, "oracle_covariance", skewed)
    assert "oracle" in runner.run(case).error
