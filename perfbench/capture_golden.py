"""Write perfbench/golden.json from the program in the checkout's src/.

    python3 perfbench/capture_golden.py

The golden reference is captured once, from the commit whose behaviour is
the reference, and committed; later commits are gated against it.  It
holds every cli-oneshot output verbatim, every row of every sweep-dense
output, and library SE/power for every catalog id under every model.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import gate
import inputs
from workloads import ROOT, SRC, CliOneshot

sys.path.insert(0, str(SRC))


def capture_cli(workdir: Path) -> dict:
    runner = CliOneshot(0, None, workdir)
    runner.setup()
    golden = {}
    for case in inputs.cli_cases():
        code, out, err, _, _ = runner.call(case["argv"])
        golden[inputs.case_key(case["argv"])] = {"exit": code, "stdout": out, "stderr": err}
        print(f"cli   exit {code}  {inputs.case_key(case['argv'])}")
    return golden


def capture_sweeps() -> dict:
    import swedge.cli

    golden = {}
    for case in inputs.sweep_cases():
        outputs, errors, codes = {}, set(), set()
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.add(swedge.cli.main([*case["argv"], "--format", fmt]))
            outputs[fmt] = out.getvalue()
            errors.add(err.getvalue())
        if len(codes) != 1 or len(errors) != 1:
            raise RuntimeError(f"csv and json runs disagree: {case['argv']}")
        golden[inputs.case_key(case["argv"])] = gate.sweep_record(
            codes.pop(), outputs["csv"], outputs["json"], errors.pop())
        print(f"sweep exit {golden[inputs.case_key(case['argv'])]['exit']}  "
              f"{inputs.case_key(case['argv'])}")
    return golden


def capture_library() -> dict:
    return {gate.library_key(*case): gate.library_values(*case)
            for case in gate.library_cases(inputs.CATALOG_IDS)}


def main() -> None:
    workdir = ROOT / ".perfbench_out" / "capture"
    try:
        golden = {"cli": capture_cli(workdir), "sweep": capture_sweeps(),
                  "library": capture_library()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "golden.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for k, (section, entries) in enumerate(golden.items()):
            fh.write(f'"{section}": {{\n')
            fh.write(",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                                for key, value in entries.items()))
            fh.write("\n}" + (",\n" if k < len(golden) - 1 else "\n"))
        fh.write("}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
