"""The three workloads: what one operation is, how it is timed and gated.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``cases()`` is one pass over the
workload's inputs in seed order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACING_SCRIPT = Path(tracing.__file__).resolve()
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment of child interpreters: the checkout's ``src`` only."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Record:
    """Outcome of one operation."""

    case: dict
    seconds: float
    error: str | None = None
    rss_mb: float = 0.0          # child peak RSS (cli-oneshot)
    screen_s: float = 0.0        # design-screen phases
    verify_s: float = 0.0
    gap: float = 0.0             # closed form vs oracle, max relative


class Workload:
    """One workload.  ``setup`` builds the inputs, ``cases`` is one pass over
    them in seed order, and ``run`` performs, times and gates one case.

    ``pass_seconds`` is the nominal length of one pass, measured on the
    2-core x86 host the benchmark was written on; a run makes
    ``round(seconds / pass_seconds)`` passes, at least one.  Before each
    operation it takes ``references_per_op`` samples of the host-speed
    reference (calibrate.py).
    """

    name = ""
    in_process = True     # False: operations run in child processes
    pass_seconds = 1.0
    references_per_op = 1

    def __init__(self, seed: int, golden: dict | None, workdir: Path):
        self.seed, self.golden, self.workdir = seed, golden, workdir

    def work(self, case: dict) -> float:
        """Units of work in a case, for ``work_per_s``."""
        return 1.0

    def peak_rss_mb(self, records: list[Record]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reference_checks(self) -> list[str | None]:
        """Untimed checks beyond the operations' own; None means passed."""
        return []

    def extra(self, records: list[Record], scales: list[float]) -> dict:
        """Figures for the result file that are not bounded metrics;
        ``scales[i]`` turns record i's seconds into reference seconds."""
        return {}


class CliOneshot(Workload):
    """Sequential `swedge` CLI invocations, each a fresh child process."""

    name = "cli-oneshot"
    in_process = False
    pass_seconds = 16.0   # 12 invocations of 1.2-1.4 s
    references_per_op = 10

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in inputs.design_files().items():
            (self.workdir / name).write_text(text, encoding="utf-8")

    def cases(self) -> list[dict]:
        return inputs.cli_sequence(self.seed)

    def call(self, argv: list[str], spans_path: Path | None = None):
        """Run the CLI once; returns (exit code, stdout, stderr, wall s, peak RSS MB)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "swedge.cli", *argv]
        else:
            cmd = [sys.executable, str(TRACING_SCRIPT), str(spans_path), *argv]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                usage.ru_maxrss / 1024.0)

    def run(self, case: dict, tracer: tracing.Tracer | None = None) -> Record:
        spans_path = self.workdir / "spans.json" if tracer is not None else None
        code, out, err, wall, rss = self.call(case["argv"], spans_path)
        if tracer is not None:
            tracer.extend(tracing.load(spans_path))
        expected = self.golden["cli"].get(inputs.case_key(case["argv"]))
        error = ("no golden entry" if expected is None
                 else gate.check_cli(expected, code, out, err))
        return Record(case, wall, error, rss_mb=rss)

    def peak_rss_mb(self, records: list[Record]) -> float:
        return max(r.rss_mb for r in records)


class SweepDense(Workload):
    """In-process `swedge.cli.main` calls: default-grid sweeps and compares."""

    name = "sweep-dense"
    pass_seconds = 12.0   # 48 calls
    references_per_op = 2

    def setup(self) -> None:
        self.cli = importlib.import_module("swedge.cli")
        self.sequence = inputs.sweep_sequence(self.seed)

    def cases(self) -> list[dict]:
        return self.sequence

    def work(self, case: dict) -> float:
        return float(case["points"])

    def run(self, case: dict, tracer: tracing.Tracer | None = None) -> Record:
        argv = [*case["argv"], "--format", case["format"]]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = self.cli.main(argv)
        except Exception as exc:  # an unexpected raise is a failed operation
            return Record(case, perf_counter() - start, f"raised {exc!r}")
        elapsed = perf_counter() - start
        expected = self.golden["sweep"].get(inputs.case_key(case["argv"]))
        if expected is None:
            return Record(case, elapsed, "no golden entry")
        error = gate.check_sweep(expected, case["format"], code, out.getvalue(), err.getvalue())
        return Record(case, elapsed, error)

    def reference_checks(self) -> list[str | None]:
        """Library SE and power of every catalog id under every model."""
        results = []
        for case in gate.library_cases(inputs.CATALOG_IDS):
            expected = self.golden["library"].get(gate.library_key(*case))
            try:
                results.append("no golden entry" if expected is None
                               else gate.check_library(expected, gate.library_values(*case)))
            except Exception as exc:  # an unexpected raise is a failed check
                results.append(f"raised {exc!r}")
        return results


class DesignScreen(Workload):
    """Parse, validate and power large designs, then cross-check the oracle."""

    name = "design-screen"
    # A pass of 9 designs takes 0.2 s; counting it as 0.4 s makes a run
    # measure for half of ``seconds``.  Its figures are steady at that
    # length, and the time goes to the other workloads' longer runs.
    pass_seconds = 0.4

    def setup(self) -> None:
        self.designs = importlib.import_module("swedge.designs")
        self.power = importlib.import_module("swedge.power")
        self.variance = importlib.import_module("swedge.variance")
        cov = importlib.import_module("swedge.covariance")
        model = cov.CovarianceModel
        self.specs = (
            cov.CorrelationSpec(model=model.CROSS_SECTIONAL, n_per_period=20, rho_w=0.05),
            cov.CorrelationSpec(model=model.COHORT, n_per_period=20, rho_w=0.05, pi=0.4),
            cov.CorrelationSpec(model=model.NESTED_EXCHANGEABLE, n_per_period=20,
                                rho_w=0.05, rho_a=0.025),
        )
        self.effects = {
            True: self.power.EffectSpec(delta1=0.2, delta2=0.2, delta3=0.2),
            False: self.power.EffectSpec(delta1=0.2),
        }
        self.sequence = inputs.screen_designs(self.seed)

    def cases(self) -> list[dict]:
        return self.sequence

    def run(self, case: dict, tracer: tracing.Tracer | None = None) -> Record:
        effects = self.effects[case["interaction"]]
        start = perf_counter()
        try:
            grid = self.designs.parse_design(case["text"])
            violations = self.designs.validate_design(grid)
            results = [self.power.design_power(grid, spec, effects) for spec in self.specs]
            screened = perf_counter()
            covs = [(self.variance.closed_form_covariance(grid, spec.cov_entries()),
                     self.variance.oracle_covariance(grid, spec.cov_entries()))
                    for spec in self.specs]
        except Exception as exc:  # an unexpected raise is a failed operation
            return Record(case, perf_counter() - start, f"raised {exc!r}")
        end = perf_counter()
        record = Record(case, end - start, screen_s=screened - start, verify_s=end - screened)
        record.error, record.gap = self._check(case, grid, violations, results, covs,
                                               effects.alpha)
        return record

    @staticmethod
    def _check(case, grid, violations, results, covs, alpha):
        labels = ("trt1", "trt2", "interaction") if case["interaction"] else ("trt1",)
        if grid.to_codes() != case["rows"] or grid.label != case["label"]:
            return "parsed grid differs from the generated layout", 0.0
        if violations:
            return f"{len(violations)} transition violations in a valid layout", 0.0
        gap = 0.0
        for result, (closed, oracle) in zip(results, covs):
            if result.labels() != labels or closed.labels != labels or oracle.labels != labels:
                return f"estimable effects {result.labels()}, expected {labels}", gap
            scale = abs(oracle.matrix).max()
            gap = max(gap, float(abs(closed.matrix - oracle.matrix).max() / scale))
            for k, label in enumerate(labels):
                row = result.row(label)
                if not (math.isfinite(row.power) and alpha <= row.power <= 1.0):
                    return f"{label} power {row.power} outside [alpha, 1]", gap
                if not gate.rel_close(math.sqrt(oracle.matrix[k, k]), row.se,
                                      gate.ORACLE_REL_TOL):
                    return f"{label} se {row.se} disagrees with the oracle", gap
        if gap > gate.ORACLE_REL_TOL:
            return f"closed form vs oracle gap {gap:.3e} > {gate.ORACLE_REL_TOL:g}", gap
        return None, gap

    def extra(self, records: list[Record], scales: list[float]) -> dict:
        return {
            "screen_designs_per_s":
                len(records) / sum(r.screen_s * k for r, k in zip(records, scales)),
            "verify_designs_per_s":
                len(records) / sum(r.verify_s * k for r, k in zip(records, scales)),
            "max_rel_gap": max(r.gap for r in records),
        }


WORKLOADS = {w.name: w for w in (CliOneshot, SweepDense, DesignScreen)}
