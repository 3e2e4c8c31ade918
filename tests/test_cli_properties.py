"""Property tests at the command-line boundary: every subcommand reads the
ICC flags the same way, and a flag the run does not use exits 2."""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swedge.cli import main

# ICC values inside the domain, on and beyond its edges, and not finite.
iccs = st.one_of(
    st.floats(0.0, 0.95),
    st.sampled_from([-0.1, 0.0, 1.0, 1.5, math.nan, math.inf]),
)
optional_iccs = st.one_of(st.none(), iccs)
models = st.sampled_from(["cs", "cohort", "nested"])

COMMON = ["--design", "fig2b", "--n", "15", "--delta", "0.4", "--format", "json"]
RAW = ["--sigma-alpha-sq", "1", "--sigma-e-sq", "3"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def flags(**values):
    return [f"--{name.replace('_', '-')}={value!r}"
            for name, value in values.items() if value is not None]


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(deadline=None)
@given(model=models, rho_w=iccs, rho_a=optional_iccs, pi=optional_iccs, cac=optional_iccs)
@example(model="nested", rho_w=0.1, rho_a=0.05, pi=None, cac=0.9)
@example(model="cs", rho_w=0.1, rho_a=None, pi=0.3, cac=None)
def test_power_and_sweep_read_icc_flags_alike(model, rho_w, rho_a, pi, cac):
    shared = ["--model", model, *COMMON, *flags(rho_a=rho_a, pi=pi, cac=cac)]
    power_code, power_out, power_err = run(["power", *flags(rho_w=rho_w), *shared])
    sweep_code, sweep_out, sweep_err = run(["sweep", *flags(rho_values=rho_w), *shared])
    assert power_code == sweep_code, (power_err, sweep_err)
    if power_code == 2:
        assert_one_error_line(power_err)
        assert_one_error_line(sweep_err)
        return
    assert power_code == 0
    [point] = json.loads(sweep_out)["rows"]
    for row in json.loads(power_out)["rows"]:
        assert point[f"se_{row['label']}"] == row["se"]
        assert point[f"power_{row['label']}"] == row["power"]


@settings(deadline=None)
@given(model=models, rho_w=optional_iccs, rho_a=optional_iccs, pi=optional_iccs,
       cac=optional_iccs)
@example(model="cohort", rho_w=None, rho_a=None, pi=0.3, cac=None)
def test_raw_components_take_no_icc_flags(model, rho_w, rho_a, pi, cac):
    icc = flags(rho_w=rho_w, rho_a=rho_a, pi=pi, cac=cac)
    code, _, err = run(["power", "--model", model, *COMMON, *RAW, *icc])
    if icc:
        assert code == 2
        assert_one_error_line(err)
    else:
        assert code == 0, err
