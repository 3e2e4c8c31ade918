import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import swedge
import swedge.cli
from swedge.cli import _render_table, _sweep_points, build_parser, main
from swedge.covariance import CorrelationSpec, CovarianceModel, RawComponents
from swedge.designs import catalog_design, parse_design, serialize_design
from swedge.power import DEFAULT_RHO_GRID, sweep
from swedge.variance import oracle_covariance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EFFECT = ("--n", "15", "--delta", "0.4")


def json_reference(capsys, *command):
    """A sweep or compare's JSON text, and ``json.dumps`` of the floats of
    its CSV text, each failed point's object (rebuilt from stderr) at its
    index."""
    code, out_csv, err = run(capsys, *command, "--format", "csv")
    assert code == 0
    code, out_json, err_json = run(capsys, *command, "--format", "json")
    assert (code, err_json) == (0, err)
    header, *lines = out_csv.splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    meta = json.loads(out_json)["meta"]
    for line in err.splitlines():  # in point order
        k, rho_w, message = re.fullmatch(r"point (\d+) \(rho_w=(.*?)\): (.*)", line).groups()
        rows.insert(int(k), {"rho_w": float(rho_w), "rho_a": meta["rho_a"], "error": message})
    return out_json, json.dumps({"meta": meta, "rows": rows}, sort_keys=True,
                                separators=(",", ":")) + "\n"


def _src_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this swedge."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(swedge.__file__)))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def assert_oracle_se(csv_text: str, component: float) -> None:
    """The SE rows of ``power`` CSV output for fig2b at n = 10 and both raw
    cross-sectional components equal to ``component`` are the oracle's."""
    spec = CorrelationSpec(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=10,
                           raw=RawComponents(sigma_alpha_sq=component, sigma_e_sq=component))
    oracle = oracle_covariance(catalog_design("fig2b"), spec.cov_entries())
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert [row[0] for row in rows] == list(oracle.labels) == ["trt1", "trt2"]
    for k, (_, _, se, _) in enumerate(rows):
        assert float(se) == pytest.approx(math.sqrt(oracle.matrix[k, k]), rel=1e-10)


class TestPowerCommand:
    def test_symmetric_power_rows(self, capsys):
        code, out, _ = run(
            capsys, "power", "--design", "fig2b", "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4", "0.4",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,effect,se,power"
        row1, row2 = lines[1].split(","), lines[2].split(",")
        assert row1[0] == "trt1" and row2[0] == "trt2"
        assert row1[3] == row2[3]

    def test_single_delta_broadcasts(self, capsys):
        code, out, _ = run(
            capsys, "power", "--design", "fig2b", "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("command", [("power", "--rho-w", "0.1"),
                                         ("sweep", "--rho-values", "0.1,0.2")])
    def test_negative_number_in_exponent_notation_is_a_value(self, capsys, command):
        """``-4e-1`` is read as the number, as ``-0.4`` is, not as an option."""
        argv = (*command, "--design", "fig2b", "--model", "cs", "--n", "15", "--format", "csv")
        expected = run(capsys, *argv, "--delta", "-0.4")
        assert expected[0] == 0
        assert run(capsys, *argv, "--delta", "-4e-1") == expected
        code, out, err = run(capsys, *argv, "--delta", "0.4", "-4e-1")
        assert (code, err) == (0, "")
        if command[0] == "power":
            assert [line.split(",")[:2] for line in out.splitlines()[1:]] == \
                [["trt1", "0.4"], ["trt2", "-0.4"]]

    def test_missing_design_file_exits_2(self, capsys):
        code, _, err = run(
            capsys, "power", "--design", "missing/file.csv", "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4",
        )
        assert code == 2
        assert "design" in err

    def test_out_of_domain_rho_exits_2(self, capsys):
        code, _, err = run(
            capsys, "power", "--design", "fig2b", "--model", "cs",
            "--rho-w", "1.0", "--n", "15", "--delta", "0.4",
        )
        assert code == 2
        assert "rho_w" in err

    def test_all_control_design_exits_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("0,0,0\n0,0,0\n", encoding="utf-8")
        code, _, err = run(
            capsys, "power", "--design", str(path), "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4",
        )
        assert code == 3
        assert "estimable" in err

    def test_design_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trial.csv"
        path.write_text(serialize_design(catalog_design("fig1")), encoding="utf-8")
        code, out, _ = run(
            capsys, "power", "--design", str(path), "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("trt1")

    def test_contrast_flag(self, capsys):
        code, out, _ = run(
            capsys, "power", "--design", "fig2b", "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4",
            "--contrast", "diff=1,-1@0.4", "--format", "csv",
        )
        assert code == 0
        assert any(line.startswith("diff,") for line in out.splitlines())

    def test_mixed_parameterizations_rejected(self, capsys):
        code, _, err = run(
            capsys, "power", "--design", "fig1", "--model", "cs",
            "--rho-w", "0.1", "--sigma-alpha-sq", "1.0", "--sigma-e-sq", "3.0",
            "--n", "15", "--delta", "0.4",
        )
        assert code == 2
        assert "not both" in err

    def test_raw_parameterization(self, capsys):
        code, out, _ = run(
            capsys, "power", "--design", "fig1", "--model", "cs",
            "--sigma-alpha-sq", "1.0", "--sigma-e-sq", "9.0",
            "--n", "15", "--delta", "1.264911064067", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["sigma_y_sq"] == 10.0
        # raw effect / sigma_y = 0.4: matches the standardized run
        code2, out2, _ = run(
            capsys, "power", "--design", "fig1", "--model", "cs",
            "--rho-w", "0.1", "--n", "15", "--delta", "0.4", "--format", "json",
        )
        p_raw = payload["rows"][0]["power"]
        p_std = json.loads(out2)["rows"][0]["power"]
        assert p_raw == pytest.approx(p_std, abs=1e-9)

    # contrast labels that read as numbers, an exponent, nan, a signed zero
    # and a %-template
    LABELS = ("2", "1e5", "nan", "-0", "a%b")
    WEIGHTS = ("1,-1,0", "0.5,0.5,1", "1,1,0.25", "1,-1,0", "2,-1,1")

    @pytest.mark.parametrize("model", [("--model", "cs"), ("--model", "cohort", "--pi", "0.5"),
                                       ("--model", "nested", "--rho-a", "0.05")])
    @pytest.mark.parametrize("design", [("fig2b",), ("fig8-design2",), ("fig5b", "--additive")])
    def test_formats_carry_one_text(self, capsys, design, model):
        """JSON holds the numbers of the CSV text, its meta too, and each label
        as the string it is; a table shows that text at 4 digits, labels
        verbatim."""
        width = 3 if design[0] == "fig8-design2" else 2
        contrasts = [f"--contrast={label}={','.join(weights.split(',')[:width])}{effect}"
                     for label, weights, effect in zip(self.LABELS, self.WEIGHTS,
                                                       ("", "@0.3", "", "@1e-3", "@-2"))]
        out = {}
        for fmt in ("csv", "json", "table"):
            code, out[fmt], _ = run(capsys, "power", "--design", *design, *model, "--rho-w",
                                    "0.1", "--n", "15", "--delta", "0.40000000000001", *contrasts,
                                    "--format", fmt)
            assert code == 0
        csv_rows = [line.split(",") for line in out["csv"].splitlines()[1:]]
        assert [row[0] for row in csv_rows[-len(self.LABELS):]] == list(self.LABELS)
        payload = json.loads(out["json"])
        assert set(payload["meta"]["deltas"].values()) == {0.4}
        json_rows = payload["rows"]
        assert [r["label"] for r in json_rows] == [row[0] for row in csv_rows]
        for r, row in zip(json_rows, csv_rows):
            numbers = [r["effect"], r["se"], r["power"]]
            assert all(type(v) is float for v in numbers)
            assert numbers == [float(token) for token in row[1:]]
        table = out["table"].splitlines()
        assert table[0].startswith(f"# {design[0]}: model=")
        assert table[1].split() == ["label", "effect", "se", "power"]
        assert [line.split() for line in table[3:]] == \
            [[row[0], *(format(float(token), ".4g") for token in row[1:])] for row in csv_rows]


class TestRejectedInputs:
    BASE = ("power", "--design", "fig2b", "--model", "cs", "--n", "10")

    @pytest.mark.parametrize("extra, message", [
        (("--sigma-alpha-sq", "nan", "--sigma-e-sq", "1", "--delta", "0.3"),
         "sigma_alpha_sq must be finite"),
        (("--sigma-alpha-sq", "0.1", "--sigma-e-sq", "inf", "--delta", "0.3"),
         "sigma_e_sq must be finite"),
        (("--rho-w", "0.05", "--delta", "nan"), "must be finite"),
        (("--rho-w", "0.05", "--delta", "0.3", "inf"), "must be finite"),
        (("--rho-w", "0.05", "--contrast", "a=nan,1@0.3"), "weights must be finite"),
        (("--rho-w", "0.05", "--contrast", "a=1,-1@nan"), "effect must be finite"),
        (("--rho-w", "nan", "--delta", "0.3"), "rho_w"),
        (("--rho-w", "0.05", "--delta", "0.3", "--alpha", "nan"), "alpha"),
        (("--rho-w", "0.05", "--contrast", "a=1,0,0@0.3"),
         "contrast length 3 does not match covariance dimension 2"),
        (("--rho-w", "0.05", "--delta", "0.3", "--alpha", "1e-300"),
         "alpha 1e-300 is too small: 1 - alpha/2 rounds to 1"),
    ])
    def test_exits_2_with_message(self, capsys, extra, message):
        code, out, err = run(capsys, *self.BASE, *extra)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("power", "--design", "fig2b", "--model", "cs", "--rho-w", "0.1", "--n", "15",
         "--delta", "0.4"),
        ("sweep", "--design", "fig1", "--model", "cs", "--n", "15", "--delta", "0.4",
         "--rho-values", "0.1,0.2"),
        ("catalog",),
        ("catalog", "fig1"),
    ], ids=["power", "sweep", "catalog-list", "catalog-dump"])
    @pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, missing_dir):
        target = str(tmp_path / "missing" / "x.csv" if missing_dir else tmp_path)
        code, out, err = run(capsys, *argv, "--output", target)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write output file {target!r}: ")
        assert err.count("\n") == 1

    def test_huge_covariance_entries_give_the_oracle_se(self, capsys):
        # unscaled arithmetic underflows the determinant of the inverse to
        # zero at these entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *self.BASE, "--sigma-alpha-sq", "1e300",
                                 "--sigma-e-sq", "1e300", "--delta", "0.3", "--format", "csv")
        assert (code, err) == (0, "")
        assert_oracle_se(out, 1e300)

    def test_a_variance_underflowing_to_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "power", "--design", "fig2b", "--model", "cs", "--n", "1",
                             "--sigma-alpha-sq", "1e-323", "--sigma-e-sq", "5e-324",
                             "--delta", "0.3")
        assert (code, out) == (2, "")
        assert err.startswith("error: a variance of the effect estimates underflows to 0")

    def test_overflowing_covariance_entries_exit_2(self, capsys):
        code, out, err = run(capsys, "power", "--design", "fig2b", "--model", "cs", "--n", "1",
                             "--sigma-alpha-sq", "1.7e308", "--sigma-e-sq", "1.7e308",
                             "--delta", "0.3")
        assert (code, out) == (2, "")
        assert err == ("error: cluster covariance entries must be finite, got diagonal inf, "
                       "off-diagonal 1.7e+308\n")

    @pytest.mark.parametrize("argv, message", [
        (("power", "--model", "nested", "--rho-w", "0.1", "--rho-a", "0.05", "--cac", "0.9"),
         "needs --rho-a or --cac, not both"),
        (("power", "--model", "cohort", "--rho-w", "0.1", "--pi", "0.3", "--cac", "0.5"),
         "--cac does not apply to the cohort model"),
        (("power", "--model", "cs", "--sigma-alpha-sq", "1", "--sigma-e-sq", "3",
          "--pi", "0.3"), "raw variance components, not both"),
        (("sweep", "--model", "cs", "--pi", "0.3"), "--pi does not apply to the cs model"),
        (("sweep", "--model", "cs", "--rho-w", "0.2"), "drop --rho-w"),
        (("compare", "--design", "fig1", "--model", "cs", "--rho-a", "0.05"),
         "--rho-a does not apply to the cs model"),
    ])
    def test_unused_icc_flag_exits_2(self, capsys, argv, message):
        command, *flags = argv
        code, out, err = run(capsys, command, "--design", "fig2b", "--n", "10",
                             "--delta", "0.3", *flags)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("command, rho", [
        ("power", ("--rho-w", "0.1")),
        ("sweep", ("--rho-values", "0.1")),
        ("compare", ("--design", "fig1", "--rho-values", "0.1")),
    ])
    @pytest.mark.parametrize("rho_a", ["1.5", "-0.1", "nan"])
    def test_out_of_range_rho_a_is_named(self, capsys, command, rho, rho_a):
        code, out, err = run(capsys, command, "--design", "fig2b", "--model", "nested",
                             "--n", "15", "--delta", "0.4", "--rho-a", rho_a, *rho)
        assert code == 2
        assert out == ""
        assert err == f"error: --rho-a must lie in [0, 1), got {float(rho_a)}\n"

    @pytest.mark.parametrize("command", [("sweep",), ("compare", "--design", "fig1")])
    @pytest.mark.parametrize("flag, value", [
        ("--rho-step", "nan"), ("--rho-step", "inf"), ("--rho-min", "nan"),
        ("--rho-min", "-inf"), ("--rho-max", "inf"), ("--rho-max", "nan"),
    ])
    def test_non_finite_sweep_grid_flag_exits_2(self, capsys, command, flag, value):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs",
                             "--n", "15", "--delta", "0.4", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["1e308", "1e-320"])
    def test_extreme_components_give_the_oracle_se(self, capsys, value):
        code, out, err = run(capsys, *self.BASE, "--sigma-alpha-sq", value,
                             "--sigma-e-sq", value, "--delta", "0.3", "--format", "csv")
        assert (code, err) == (0, "")
        assert_oracle_se(out, float(value))

    @pytest.mark.parametrize("value", ["1e308", "1e-320"])
    def test_extreme_components_print_no_warning(self, value):
        # a fresh interpreter that shows every warning, so a numpy
        # RuntimeWarning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "swedge.cli", *self.BASE, "--sigma-alpha-sq", value,
             "--sigma-e-sq", value, "--delta", "0.3", "--format", "csv"],
            capture_output=True, text=True, env=_src_env(PYTHONWARNINGS="default"),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert_oracle_se(proc.stdout, float(value))

    @pytest.mark.parametrize("argv, column", [
        (("compare", "--design", "fig1", "--design", "fig1"), "se_trt1_fig1"),
        (("compare", "--design", "fig2b", "--design", "fig1", "--design", "fig1"),
         "se_trt1_fig1"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_column_name_exits_2(self, capsys, argv, column, fmt):
        code, out, err = run(capsys, *argv, "--model", "cs", "--n", "15", "--delta", "0.4",
                             "--rho-values", "0.05,0.1", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: column {column!r} would appear twice")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, contrasts, label", [
        (("power", "--rho-w", "0.1"), ("trt1=1,-1",), "trt1"),
        (("power", "--rho-w", "0.1"), ("interaction=1,-1",), "interaction"),
        (("power", "--rho-w", "0.1"), ("d=1,-1", "d=1,1"), "d"),
        (("sweep", "--rho-values", "0.05,0.1"), ("trt1=1,-1",), "trt1"),
        (("sweep", "--rho-values", "0.05,0.1"), ("d=1,-1", "d=1,1"), "d"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_contrast_label_repeating_a_result_label_exits_2(self, capsys, command, contrasts,
                                                             label, fmt):
        flags = [arg for text in contrasts for arg in ("--contrast", text)]
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs", "--n", "15",
                             "--delta", "0.4", *flags, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == (f"error: contrast label {label!r} repeats an effect or contrast label; "
                       "give each contrast its own label\n")

    @pytest.mark.parametrize("command", [("power", "--rho-w", "0.1"),
                                         ("sweep", "--rho-values", "0.05,0.1")])
    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_contrast_label_breaking_a_csv_field_exits_2(self, capsys, command, label, fmt):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs", "--n", "15",
                             "--delta", "0.4", "--contrast", f"{label}=1,-1@0.4",
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: contrast label {label!r} must not hold a comma or a line "
                       "break\n")

    @pytest.mark.parametrize("command", [("power", "--rho-w", "0.1"),
                                         ("sweep", "--rho-values", "0.05,0.1"),
                                         ("power", "--sigma-alpha-sq", "1", "--sigma-e-sq", "1")])
    def test_n_too_large_for_a_float_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs",
                             "--n", "1" + "0" * 309, "--delta", "0.3")
        assert (code, out) == (2, "")
        assert err == "error: n_per_period is too large to represent as a float\n"

    @pytest.mark.parametrize("command", [("power", "--rho-w", "0.1"),
                                         ("sweep", "--rho-values", "0.1,0.2")])
    def test_underflowing_contrast_variance_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs",
                             "--n", "15", "--delta", "0.4", "--contrast", "c=1e-200,0@0.3")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "contrast variance is not positive, got 0 (weights [1e-200, 0.0])" in err

    @pytest.mark.parametrize("command", [("sweep",), ("compare", "--design", "fig1")])
    def test_rho_step_finer_than_the_rounding_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs",
                             "--n", "15", "--delta", "0.4", "--rho-min", "0.1",
                             "--rho-max", "0.1000000000005", "--rho-step", "1e-13")
        assert code == 2
        assert out == ""
        assert err == ("error: --rho-step 1e-13 is finer than the 12 decimals the grid "
                       "values are rounded to, so two of them would be equal\n")

    @pytest.mark.parametrize("command", [("sweep",), ("compare", "--design", "fig1")])
    @pytest.mark.parametrize("grid", [
        ("--rho-step", "1e-320"),
        ("--rho-min", "0", "--rho-max", "0.3", "--rho-step", "1e-6"),  # 300,001 points
        ("--rho-min", "0", "--rho-max", "0.1", "--rho-step", "1e-6"),  # 100,001 points
    ])
    def test_oversized_sweep_grid_exits_2(self, capsys, command, grid):
        code, out, err = run(capsys, *command, "--design", "fig2b", "--model", "cs",
                             "--n", "15", "--delta", "0.4", *grid)
        assert code == 2
        assert out == ""
        assert err == ("error: the sweep grid would have more than 100000 points; "
                       "raise --rho-step or narrow --rho-min/--rho-max\n")

    @pytest.mark.parametrize("values, bad", [
        ("0.1,nan", "nan"), ("inf", "inf"), ("0.1,-inf,0.2", "-inf"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_rho_values_exit_2(self, capsys, values, bad, fmt):
        code, out, err = run(capsys, "sweep", "--design", "fig1", "--model", "cs",
                             "--n", "15", "--delta", "0.4", "--rho-values", values,
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: --rho-values entries must be finite, got {bad}\n"

    def test_wrong_length_contrast_fails_every_sweep_point(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--design", "fig2b", "--model", "cs", "--n", "10",
            "--delta", "0.3", "--contrast", "a=1,0,0@0.3", "--rho-values", "0.05",
        )
        assert code == 2
        assert "every sweep point failed" in err and "contrast length 3" in err


class TestRepeatedMainCalls:
    # different subcommands, repeated flags and a usage error, in an order
    # where state left behind by one call would show in the next
    CALLS = (
        ("compare", "--design", "fig1", "--design", "fig2b", "--model", "cs", "--n", "15",
         "--delta", "0.4", "--rho-values", "0.05,0.1", "--format", "csv"),
        ("power", "--design", "fig2b", "--model", "cs", "--n", "10", "--rho-w", "0.05",
         "--delta", "0.3", "--contrast", "d=1,-1@0"),
        ("sweep", "--design", "fig1", "--model", "nested", "--n", "15", "--rho-a", "0.01",
         "--delta", "0.4", "--rho-values", "0.02,0.3"),
        ("power", "--design", "fig2b", "--rho-w", "0.05"),
        ("validate", "--design", "fig5a"),
    )

    def test_in_process_calls_print_what_fresh_processes_print(self, capsys):
        in_process = []
        for argv in self.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = []
        for argv in self.CALLS:
            proc = subprocess.run([sys.executable, "-m", "swedge.cli", *argv],
                                  capture_output=True, text=True, env=_src_env(),
                                  timeout=120)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
        assert in_process == fresh


class TestRuntimeDependencies:
    def test_cli_runs_without_scipy(self):
        script = (
            "import sys\n"
            "import swedge, swedge.cli\n"
            "code = swedge.cli.main(['power', '--design', 'fig2b', '--model', 'cs',\n"
            "                        '--n', '10', '--rho-w', '0.05', '--delta', '0.3',\n"
            "                        '--format', 'csv'])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('exit', code, 'scipy', loaded)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "label,effect,se,power"
        assert lines[-1] == "exit 0 scipy []"


class TestSweepCommand:
    def test_csv_columns_and_determinism(self, capsys):
        argv = (
            "sweep", "--design", "fig1", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.05,0.1,0.15", "--format", "csv",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "rho_w,se_trt1,power_trt1"
        assert len(lines) == 4

    def test_csv_and_json_numerically_identical(self, capsys):
        base = (
            "sweep", "--design", "fig2b", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.05,0.2",
        )
        _, out_csv, _ = run(capsys, *base, "--format", "csv")
        _, out_json, _ = run(capsys, *base, "--format", "json")
        header, *rows = out_csv.strip().splitlines()
        cols = header.split(",")
        payload = json.loads(out_json)
        for csv_row, json_row in zip(rows, payload["rows"]):
            for col, value in zip(cols, csv_row.split(",")):
                assert float(value) == json_row[col]

    @pytest.mark.parametrize("command, token", [
        # exponent tokens (1e-05), integral powers (1) and a contrast label
        # with a quote, a backslash and a non-ASCII character
        *[(("sweep", "--design", "fig2b", *model, *EFFECT, "--contrast", 'é"x\\=1,1@9',
            "--rho-values", "0.00001,0.05,0.25"), ":1.0,") for model in [
            ("--model", "cs"),
            ("--model", "cohort", "--pi", "0.3"),
            ("--model", "nested", "--rho-a", "1e-6"),
            ("--model", "nested", "--cac", "0.5"),
        ]],
        # failed points at indices 0 and 3, whose error objects stand in their place
        (("sweep", "--design", "fig2b", "--model", "nested", "--rho-a", "0.05", *EFFECT,
          "--rho-values", "0.00001,0.05,0.25,0.01"), '{"error":'),
        # a compare, and a contrast label holding "%", "." and "e" in its column names
        (("compare", "--design", "fig8-design2", "--design", "fig8-design3", "--model", "cs",
          *EFFECT, "--contrast", "a%s.e=1,-1,0@0.3", "--rho-values", "0.00001,0.05,0.25"),
         '"gain_a%s.e_fig8-design3":'),
    ])
    def test_json_rows_carry_the_csv_text(self, capsys, command, token):
        out_json, reference = json_reference(capsys, *command)
        assert out_json == reference
        assert '"rho_w":1e-05' in out_json and token in out_json

    def test_json_rows_are_reencoded_only_where_a_token_needs_it(self, capsys, monkeypatch):
        """Every token of a default-grid sweep or compare is its float's JSON
        text; an integral token makes the whole table take the re-encoder."""
        one_pass = [
            # 49 of the 300 points have rho_w below rho_a
            ("sweep", "--design", "fig8-design2", "--model", "nested", "--rho-a", "0.05",
             *EFFECT),
            ("compare", "--design", "fig8-design1", "--design", "fig8-design2", "--design",
             "fig8-design3", "--model", "cs", *EFFECT, "--contrast", "a%s.e=1,-1,0@0.3"),
        ]
        reencoded = [
            # the ICC token 0
            ("sweep", "--design", "fig2b", "--model", "cs", *EFFECT, "--rho-values", "0,0.1"),
            # one layout twice, so every gain_ token is 0
            ("compare", "--design", "fig1", "--design", "fig2a-trt1", "--model", "cs", *EFFECT),
        ]
        expected = {command: json_reference(capsys, *command) for command in one_pass + reencoded}
        for out_json, reference in expected.values():
            assert out_json == reference
        assert expected[one_pass[0]][1].count('"error":') == 49

        def refuse(x):
            raise AssertionError(f"re-encoded {x!r}")

        monkeypatch.setattr(swedge.cli, "_json_number", refuse)
        for command in one_pass:
            assert run(capsys, *command, "--format", "json")[1] == expected[command][1]
        for command in reencoded:
            with pytest.raises(AssertionError, match="re-encoded"):
                main([*command, "--format", "json"])

    @pytest.mark.parametrize("command, flagged", [
        # the one ICC token 0
        (("sweep", "--design", "fig2b", "--model", "cs", *EFFECT, "--rho-values", "0,0.1"), 1),
        # fig1 and fig2a-trt1 share a layout, so each of the 300 gain tokens against it is 0
        (("compare", "--design", "fig1", "--design", "fig2a-trt1", "--design", "fig2b",
          "--model", "cohort", "--pi", "0.5", *EFFECT), 300),
    ])
    def test_json_rows_reencode_only_the_tokens_that_need_it(self, capsys, monkeypatch,
                                                             command, flagged):
        """Only the tokens with no "." or with an "e" reach ``_json_number``;
        every other token of the same table is written as "%.12g" gave it."""
        out_json, reference = json_reference(capsys, *command)
        assert out_json == reference
        out_csv = run(capsys, *command, "--format", "csv")[1]
        tokens = ",".join(out_csv.splitlines()[1:]).split(",")
        expected = sorted(t for t in tokens if "." not in t or "e" in t)
        assert len(expected) == flagged
        seen = []
        real = swedge.cli._json_number

        def counting(x):
            seen.append(x)
            return real(x)

        monkeypatch.setattr(swedge.cli, "_json_number", counting)
        assert run(capsys, *command, "--format", "json")[1] == reference
        assert sorted("%.12g" % x for x in seen) == expected

    def test_point_errors_reported_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--design", "fig1", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.1,1.5", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + the good point
        assert "1.5" in err

    def test_default_grid_has_300_points(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--design", "fig1", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 301

    def test_default_range_is_the_library_default_grid(self):
        args = build_parser().parse_args(["sweep", "--design", "fig1", "--model", "cs",
                                          "--n", "15", "--delta", "0.4"])
        assert _sweep_points(args) == list(DEFAULT_RHO_GRID)
        # the grid the range rule gives for the defaults, which the CLI does not rebuild
        assert [round(0.001 + k * 0.001, 12) for k in range(300)] == list(DEFAULT_RHO_GRID)

    @pytest.mark.parametrize("grid, expected", [
        (("0", "0.26", "0.1"), [0.0, 0.1, 0.2]),
        (("0.1", "0.16", "0.1"), [0.1]),
        (("0.1", "0.3", "0.1"), [0.1, 0.2, 0.3]),
        # rho_max - rho_min is off by 1.1e-7 steps here, so a fixed 1e-9 slack drops 0.1000001
        (("0.1", "0.1000001", "1e-10"), [round(0.1 + k * 1e-10, 12) for k in range(1001)]),
    ])
    def test_range_grid_ends_at_the_last_point_not_past_rho_max(self, grid, expected):
        flags = [f for flag, value in zip(("--rho-min", "--rho-max", "--rho-step"), grid)
                 for f in (flag, value)]
        args = build_parser().parse_args(["sweep", "--design", "fig1", "--model", "cs",
                                          "--n", "15", "--delta", "0.4", *flags])
        assert _sweep_points(args) == expected

    @pytest.mark.parametrize("flag, value, start, step, count", [
        ("--rho-max", "0.01", 0.001, 0.001, 10),
        ("--rho-min", "0.05", 0.05, 0.001, 251),
        ("--rho-step", "0.002", 0.001, 0.002, 150),
    ])
    def test_one_range_flag_keeps_the_other_defaults(self, flag, value, start, step, count):
        args = build_parser().parse_args(["sweep", "--design", "fig1", "--model", "cs",
                                          "--n", "15", "--delta", "0.4", flag, value])
        assert _sweep_points(args) == [round(start + k * step, 12) for k in range(count)]

    def test_rho_max_less_than_a_step_below_rho_min_is_an_empty_grid(self, capsys):
        code, out, err = run(capsys, "sweep", "--design", "fig1", "--model", "cs", "--n", "15",
                             "--delta", "0.4", "--rho-min", "0.1", "--rho-max", "0.06",
                             "--rho-step", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: empty sweep grid; check --rho-min/--rho-max/--rho-step\n"

    def test_cohort_needs_pi(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--design", "fig1", "--model", "cohort", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.1",
        )
        assert code == 2
        assert "--pi" in err

    def test_nested_with_cac_pairs_rho_a(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--design", "fig1", "--model", "nested", "--n", "15",
            "--delta", "0.4", "--cac", "0.5", "--rho-values", "0.2", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("rho_w,rho_a")
        values = row.split(",")
        assert float(values[1]) == pytest.approx(0.1)

    def test_single_design_has_no_compare_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--design", "fig2b", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "design_names" not in payload["meta"]
        assert sorted(payload["rows"][0]) == [
            "power_trt1", "power_trt2", "rho_w", "se_trt1", "se_trt2"]

    @pytest.mark.parametrize("command, designs", [
        ("sweep", ("--design", "fig5a")),
        ("compare", ("--design", "fig5a", "--design", "fig5b")),
    ])
    def test_every_point_rank_deficient_exits_3(self, capsys, command, designs):
        code, out, err = run(
            capsys, command, *designs, "--model", "cs", "--n", "15", "--delta", "0.4",
            "--rho-values", "0.1,0.2",
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "every sweep point failed" in err and "rank deficient" in err

    def test_mixed_point_failures_exit_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--design", "fig5a", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.1,1.5",
        )
        assert code == 2
        assert "every sweep point failed" in err

    def test_additive_flag_for_factorial_design(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--design", "fig5a", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--additive", "--rho-values", "0.1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "rho_w,se_trt1,se_trt2,power_trt1,power_trt2"


class TestSweepRendering:
    """sweep and compare output against the rule it keeps, applied to the
    tables the library computed: every value through ``format(v, ".12g")``,
    JSON through ``json.dumps`` and table cells at 4 digits."""

    BASE = ("--n", "15", "--delta", "0.4")
    CASES = [
        # rho_a = 0.1 is above the first 99 grid values, so those are error rows
        ("sweep", "--design", "fig2b", "--model", "nested", "--rho-a", "0.1", *BASE),
        ("compare", "--design", "fig2b", "--design", "fig2c", "--model", "nested",
         "--rho-a", "0.1", *BASE),
        # a label that means something to %-, str.format- and JSON templates
        ("sweep", "--design", "fig2b", "--model", "cs", *BASE,
         "--contrast", "a%b.e{0}=1,-1@0.3", "--rho-values", "0.05,0.2"),
        ("compare", "--design", "fig2b", "--design", "fig2c", "--model", "cohort", "--pi",
         "0.5", *BASE, "--contrast", "a%b.e{0}=1,-1@0.3", "--rho-values", "0.05,0.2"),
        # exponent and integral tokens
        ("sweep", "--design", "fig2b", "--model", "cs", "--n", "15000000", "--delta", "40",
         "--rho-values", "0,1e-9,0.5,0.999999"),
        ("compare", "--design", "fig2b", "--design", "fig2c", "--model", "cs",
         "--n", "15000000", "--delta", "40", "--rho-values", "0,1e-9,0.5,0.999999"),
    ]

    @staticmethod
    def expected(tables, names, fmt, meta):
        """(stdout, stderr) of a sweep of ``tables``, value by value."""
        shared = [l for l in tables[0].labels if all(l in t.labels for t in tables)]
        suffixes = [f"_{name}" for name in names] if len(names) > 1 else [""]
        header, columns = list(tables[0].icc), list(tables[0].icc.values())
        powers = []
        for suffix, table in zip(suffixes, tables):
            picked = [table.labels.index(l) for l in shared]
            header += [f"se_{l}{suffix}" for l in shared] + [f"power_{l}{suffix}" for l in shared]
            columns += [table.se[:, picked], table.power[:, picked]]
            powers.append(table.power[:, picked])
        for name, power in zip(names[1:], powers[1:]):
            header += [f"gain_{l}_{name}" for l in shared]
            columns.append(power - powers[0])
        errors = {k: str(e) for table in reversed(tables) for k, e in table.errors.items()}
        rows = np.column_stack(columns).tolist()
        notes = "".join(f"point {k} (rho_w={rows[k][0]:g}): {errors[k]}\n" for k in sorted(errors))
        kept = [[format(v, ".12g") for v in row] for k, row in enumerate(rows) if k not in errors]
        if fmt == "csv":
            return "\n".join(map(",".join, [header, *kept])) + "\n", notes
        if fmt == "table":
            return _render_table(header, [[format(float(t), ".4g") for t in row]
                                          for row in kept]), notes
        objects = []
        for k, row in enumerate(rows):
            values = [float(format(v, ".12g")) for v in row]
            objects.append({**dict(zip(tables[0].icc, values)), "error": errors[k]}
                           if k in errors else dict(zip(header, values)))
        return json.dumps({"meta": meta, "rows": objects}, sort_keys=True,
                          separators=(",", ":")) + "\n", notes

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("argv", CASES)
    def test_output_is_the_value_by_value_rendering(self, monkeypatch, capsys, argv, fmt):
        tables = []

        def recording_sweep(*args, **kwargs):
            tables.append(sweep(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(swedge.cli, "sweep", recording_sweep)
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0
        names = [argv[k + 1] for k, flag in enumerate(argv) if flag == "--design"]
        meta = json.loads(out)["meta"] if fmt == "json" else None
        assert (out, err) == self.expected(tables, names, fmt, meta)
        if "0.1" in argv:
            assert err.count("\n") == 99


class TestCompareCommand:
    def test_identical_designs_zero_difference(self, tmp_path, capsys):
        # a copy under its own name: the same name twice would repeat columns
        path = tmp_path / "fig1-copy.csv"
        path.write_text(serialize_design(catalog_design("fig1"), fmt="csv"),
                        encoding="utf-8")
        code, out, _ = run(
            capsys, "compare", "--design", "fig1", "--design", str(path),
            "--model", "cs", "--n", "15", "--delta", "0.4",
            "--rho-values", "0.05,0.1", "--format", "csv",
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        gain_idx = header.split(",").index("gain_trt1_fig1-copy")
        for row in rows:
            assert float(row.split(",")[gain_idx]) == 0.0

    def test_concurrent_gain_band(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--design", "fig1", "--design", "fig2b",
            "--model", "cs", "--n", "15", "--delta", "0.4",
            "--rho-min", "0.01", "--rho-max", "0.20", "--rho-step", "0.01",
            "--format", "csv",
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        gain_idx = header.split(",").index("gain_trt1_fig2b")
        gains = [float(r.split(",")[gain_idx]) for r in rows]
        assert all(0.14 <= g <= 0.20 for g in gains)

    def test_ten_cluster_concurrent_gain_band(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--design", "fig1", "--design", "fig2c",
            "--model", "cs", "--n", "15", "--delta", "0.4",
            "--rho-min", "0.01", "--rho-max", "0.20", "--rho-step", "0.01",
            "--format", "csv",
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        gain_idx = header.split(",").index("gain_trt1_fig2c")
        gains = [float(r.split(",")[gain_idx]) for r in rows]
        assert all(0.08 <= g <= 0.11 for g in gains)

    def test_file_designs_are_named_by_their_stem(self, tmp_path, capsys):
        path = tmp_path / "my design.csv"
        path.write_text(serialize_design(catalog_design("fig2b"), fmt="csv"),
                        encoding="utf-8")
        code, out, _ = run(
            capsys, "compare", "--design", "fig1", "--design", str(path),
            "--model", "cs", "--n", "15", "--delta", "0.4",
            "--rho-values", "0.1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["design_names"] == ["fig1", "my-design"]
        assert "gain_trt1_my-design" in payload["rows"][0]

    def test_needs_two_designs(self, capsys):
        code, _, err = run(
            capsys, "compare", "--design", "fig1", "--model", "cs",
            "--n", "15", "--delta", "0.4",
        )
        assert code == 2
        assert "two" in err


class TestCatalogAndValidate:
    def test_catalog_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "fig2b" in out and "reconstructed" in out

    def test_catalog_dump_reparses(self, capsys):
        code, out, _ = run(capsys, "catalog", "fig1")
        assert code == 0
        assert parse_design(out) == catalog_design("fig1")

    def test_catalog_json_flags_reconstruction(self, capsys):
        code, out, _ = run(capsys, "catalog", "fig8-design2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reconstructed"] is True
        assert payload["label"] == "fig8-design2"

    def test_catalog_json_needs_an_id(self, capsys):
        code, out, err = run(capsys, "catalog", "--json")
        assert (code, out) == (2, "")
        assert err == "error: --json dumps one design; give a catalog id\n"

    def test_catalog_unknown_id(self, capsys):
        code, _, err = run(capsys, "catalog", "fig99")
        assert code == 2
        assert "fig99" in err

    def test_validate_clean_design(self, capsys):
        code, out, _ = run(capsys, "validate", "--design", "fig1")
        assert code == 0
        assert "ok" in out

    def test_validate_contaminated_design(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n0,0,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--design", str(path))
        assert code == 2
        assert "TRT1 -> TRT2" in out

    def test_validate_permissive_warns_but_passes(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--design", str(path),
                           "--policy", "permissive")
        assert code == 0
        assert "warning" in out

    def test_validate_resolves_catalog_ids_before_files(self, tmp_path, monkeypatch, capsys):
        # same lookup order as power: a catalog id wins over a file of that
        # name, and a bare name that is no catalog id is read as a file
        (tmp_path / "fig1").write_text("0,1,2\n0,0,1\n", encoding="utf-8")
        (tmp_path / "mine").write_text("0,1,2\n0,0,1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        grid = catalog_design("fig1")
        code, out, _ = run(capsys, "validate", "--design", "fig1")
        assert code == 0
        assert out == f"fig1: ok ({grid.n_clusters} clusters x {grid.n_periods} periods)\n"
        code, out, _ = run(capsys, "validate", "--design", "mine")
        assert code == 2
        assert "TRT1 -> TRT2" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_design_file_with_a_byte_order_mark_is_read(self, tmp_path, capsys, fmt):
        path = tmp_path / f"bom.{fmt}"
        path.write_text("\ufeff" + serialize_design(catalog_design("fig1"), fmt),
                        encoding="utf-8")
        argv = ("--model", "cs", "--rho-w", "0.1", "--n", "15", "--delta", "0.4",
                "--format", "csv")
        assert run(capsys, "power", "--design", str(path), *argv) == \
            run(capsys, "power", "--design", "fig1", *argv)
        code, out, _ = run(capsys, "validate", "--design", str(path))
        assert (code, out) == (0, f"{path}: ok (6 clusters x 4 periods)\n")

    @pytest.mark.parametrize("payload", [
        '{"cells": [0, 1]}',
        '{"cells": 5}',
        '{"cells": null}',
        '{"cells": [[0, 1], [0, 1]], "label": 7}',
        '{"cells": [[0, 1], [0, 1]], "reconstructed": "false"}',
        '{"cells": [[0, 1], [0, true]]}',
    ])
    def test_malformed_json_design_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "flat.json"
        path.write_text(payload, encoding="utf-8")
        code, out, err = run(capsys, "validate", "--design", str(path))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid design file"), err

    @pytest.mark.parametrize("content, message", [
        (b"0,1\n0,\xff\n", "error: cannot read design file"),  # not UTF-8
        (b"[" * 200_000 + b"]" * 200_000, "error: invalid design file"),  # too deep to parse
    ], ids=["undecodable", "deeply nested"])
    def test_unreadable_design_file_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "design.txt"
        path.write_bytes(content)
        code, out, err = run(capsys, "validate", "--design", str(path))
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), err

    def test_every_catalog_design_passes_validate(self, capsys):
        from swedge.designs import catalog_ids

        for design_id in catalog_ids():
            code, _, _ = run(capsys, "validate", "--design", design_id)
            assert code == 0

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        argv = (
            "sweep", "--design", "fig1", "--model", "cs", "--n", "15",
            "--delta", "0.4", "--rho-values", "0.1,0.2", "--format", "csv",
        )
        code, out, _ = run(capsys, *argv)
        code2, _, _ = run(capsys, *argv, "--output", str(target))
        assert code == code2 == 0
        assert target.read_text(encoding="utf-8") == out
