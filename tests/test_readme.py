"""The README's library quick start and CLI examples run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import swedge
from swedge.cli import main
from swedge.designs import catalog_design, serialize_design

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    """The ``swedge`` command lines of the first shell block under the
    README's "CLI" heading, continuations joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = (shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines())
    return [shlex.join(argv) for argv in lines if argv]


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_trial.csv").write_text(serialize_design(catalog_design("fig1")),
                                           encoding="utf-8")
    argv = shlex.split(line)
    assert argv[0] == "swedge"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    if "--json" in argv or "json" in argv:  # catalog --json, --format json
        json.loads(out)


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


def test_every_public_name_is_documented():
    """Each name ``swedge`` exports appears in the README, in code type."""
    text = README.read_text(encoding="utf-8")
    missing = [name for name in swedge.__all__ if not re.search(rf"`{re.escape(name)}\b", text)]
    assert not missing
