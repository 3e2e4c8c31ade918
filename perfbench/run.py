"""swedge benchmark: run one workload, gate its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric by name with its unit, and the full
result, with provenance and sample counts, is written to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads here or in any child: each
# workload is one client on one core, so its figures must not depend on
# whether the host's other core is free.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import CHILD_TIMEOUT_S, ROOT, SRC, WORKLOADS, child_env  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
SETUP_REFERENCES = 10   # reference samples before each set-up probe
IMPORT_REPEATS = 3

# Metric names and units, as the benchmark declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it.  Below 21 samples that percentile would not
    lie above the median, and the maximum is taken instead."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def passes(workload, seconds: float) -> int:
    """Whole passes in a run of ``seconds``, from the workload's fixed
    nominal pass length: the count depends on the run length alone, so
    every commit runs the same operations and takes its tail at the same
    percentile."""
    return max(1, round(seconds / workload.pass_seconds))


def run_loop(workload, cases: list[dict], seconds: float) -> tuple[list, list[float], list[int]]:
    """Closed loop: whole passes over ``cases``, one operation at a time,
    each preceded by the workload's reference samples.  Returns the
    records, the samples, and the number of samples before each record."""
    records, references, positions = [], [], []
    for _ in range(passes(workload, seconds)):
        for case in cases:
            references.extend(calibrate.reference() for _ in range(workload.references_per_op))
            positions.append(len(references))
            records.append(workload.run(case))
    return records, references, positions


def timed_child(cmd: list[str]) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return perf_counter() - start, proc.stdout


def setup_seconds(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up time measured in fresh interpreters: import swedge.cli and
    build the workload's inputs.  Returns the times in reference seconds
    and as measured."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)]
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        references.extend(calibrate.reference() for _ in range(SETUP_REFERENCES))
        times.append(float(timed_child(probe)[1]))
    return calibrate.scaled(times, range(SETUP_REFERENCES, len(references) + 1,
                                         SETUP_REFERENCES), references), times


def import_probes() -> dict[str, float]:
    """Wall time of fresh processes that only start, import numpy, or
    import swedge.cli; rounds are interleaved and the median is reported."""
    probes = {
        "import.interpreter_s": "pass",
        "import.numpy_floor_s": "import numpy",
        "import.swedge_cli_s": "import swedge.cli",
    }
    samples = {name: [] for name in probes}
    for _ in range(IMPORT_REPEATS):
        for name, code in probes.items():
            samples[name].append(timed_child([sys.executable, "-c", code])[0])
    return {name: statistics.median(v) for name, v in samples.items()}


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=CHILD_TIMEOUT_S).stdout.strip() or None
    src = source_digest(SRC / "swedge")
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": commit, "src_sha256": src, "seed": seed,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), **versions,
    }


def source_digest(directory: Path) -> str:
    """SHA-256 over the package sources, identifying the measured code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload, seconds: float, trace: bool, seed: int, workdir: Path) -> dict:
    setup = ([], []) if trace else setup_seconds(workload.name, seed, workdir / "setup")
    workload.setup()
    cases = workload.cases()
    workload.run(cases[0])  # warm-up: compiled bytecode, numpy and page caches
    records, references, positions = run_loop(workload, cases,
                                              seconds / 2 if trace else seconds)
    run = {"records": records, "references": references, "positions": positions}
    if not trace:
        return {**run, "setup": setup}
    tracer = tracing.Tracer()
    restore = tracer.install() if workload.in_process else (lambda: None)
    try:
        traced = [workload.run(r.case, tracer) for r in records]
    finally:
        restore()
    return {**run, "traced": traced, "spans": tracer.spans}


def end_to_end(workload, run: dict) -> dict:
    """Timings in reference seconds (calibrate.py); ``raw`` is as measured."""
    records, references = run["records"], run["references"]
    raw = [r.seconds for r in records]
    times = calibrate.scaled(raw, run["positions"], references)
    tail_s, pct, beyond = tail(times)
    work = sum(workload.work(r.case) for r in records)
    setup, setup_raw = run["setup"]
    return {
        "op_p50_s": {"value": statistics.median(times), "raw": statistics.median(raw),
                     "samples": len(times)},
        "op_tail_s": {"value": tail_s, "raw": tail(raw)[0], "percentile": pct,
                      "samples_beyond": beyond, "samples": len(times)},
        "work_per_s": {"value": work / sum(times), "raw": work / sum(raw),
                       "samples": len(times), "work": work},
        "setup_s": {"value": statistics.median(setup), "raw": statistics.median(setup_raw),
                    "samples": len(setup)},
        "peak_rss_mb": {"value": workload.peak_rss_mb(records), "samples": 1},
        "reference": {"samples": len(references), "median_s": statistics.median(references),
                      "reference_s": calibrate.REFERENCE_S, "window": calibrate.WINDOW},
    }


def per_layer(workload, records: list, traced: list, spans: list) -> dict:
    untraced_s = sum(r.seconds for r in records)
    traced_s = sum(r.seconds for r in traced)
    metrics = tracing.layer_metrics(
        spans,
        points=sum(r.case.get("points", 0) for r in traced),
        pairs=sum(r.case.get("designs", 0) for r in traced),
        traced_s=traced_s)
    metrics["variance.max_rel_gap"] = max((r.gap for r in traced), default=0.0)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics.update(import_probes())
    return {name: {"value": metrics[name]} for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="run length; sets the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--golden", type=Path, default=BENCH / "golden.json",
                        help="golden reference to gate outputs against")
    args = parser.parse_args(argv)

    if not (SRC / "swedge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no swedge sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    golden = gate.load(args.golden)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, golden, workdir)
    try:
        run = measure(workload, args.seconds, bool(args.trace), args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = run["records"] + run.get("traced", [])
    failures = [r.error for r in records if r.error]
    checks = workload.reference_checks()
    failures += [e for e in checks if e]
    attempted = len(records) + len(checks)
    if args.trace:
        metrics = per_layer(workload, run["records"], run["traced"], run["spans"])
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(workload, run)
        units = END_TO_END_UNITS
    reference = metrics.pop("reference", None)
    for name, unit in units.items():
        metrics[name]["unit"] = unit

    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed), "metrics": metrics, "reference": reference,
        "extra": workload.extra(run["records"],
                                calibrate.factors(run["positions"], run["references"])),
        "ops": {"attempted": attempted, "failed": len(failures),
                "ops_failed_frac": len(failures) / attempted, "first_failures": failures[:20]},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracing.dump(run["spans"], stem.with_suffix(".spans.json"))

    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"{name:38s} {value:.6g}")
    print(f"{'ops_failed_frac':38s} {result['ops']['ops_failed_frac']:.6g} "
          f"({len(failures)} of {attempted})")
    for failure in failures[:5]:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
