"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first Python block under the README's "Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_in_a_fresh_namespace(capsys):
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[0] for fields in printed] == ["trt1", "trt2", "diff"]
    result, table = namespace["result"], namespace["table"]
    for fields, row in zip(printed, result.rows):
        assert [float(v) for v in fields[1:]] == [row.se, row.power]
    assert table.labels == result.labels() == ("trt1", "trt2", "diff")
    assert namespace["rho_w"].shape == namespace["diff"].shape == (300,)
    # the default grid's point at rho_w 0.1 is the quick start's design_power point
    k = int(np.flatnonzero(namespace["rho_w"] == 0.1)[0])
    assert namespace["diff"][k] == result.row("diff").power
