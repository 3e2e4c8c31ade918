"""Each input check, met once: the exit code or exception class it gives, and its text.

One table of command lines, each exiting 2, and one of library calls.  Each row reaches a
check that no other test reaches, or one whose input this package reads
in exactly one spelling (model names, ``--rho-values``, contrast labels,
the catalog's format flag).
"""

import numpy as np
import pytest

from swedge.cli import main
from swedge.covariance import (
    CompoundSymmetry,
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
)
from swedge.designs import (
    DesignError,
    DesignGrid,
    catalog_design,
    catalog_ids,
    generate_standard_swd,
    parse_design,
    serialize_design,
)
from swedge.power import ContrastSpec, EffectSpec, design_power, wald_power

POWER = ("power", "--design", "fig2b", "--model", "cs", "--n", "15")
SWEEP = ("sweep", "--design", "fig2b", "--model", "cs", "--n", "15", "--delta", "0.4")
NOT_UTF8 = ("cannot write output file '{}': 'utf-8' codec can't encode character '\\udcff' "
            "in position {}: surrogates not allowed")


@pytest.mark.parametrize("argv, message", [
    (("power", "--design", "nope", "--model", "cs", "--rho-w", "0.1", "--n", "15",
      "--delta", "0.4"),
     f"unknown design 'nope': not a catalog id (known: {', '.join(catalog_ids())}) "
     "and no such file"),
    (("power", "--design", "array.json", "--model", "cs", "--rho-w", "0.1", "--n", "15",
      "--delta", "0.4"),
     "invalid design file 'array.json': design JSON must be an object with a 'cells' array"),
    (("power", "--design", "fig2b", "--model", "nested", "--cac", "1.5", "--rho-w", "0.1",
      "--n", "15", "--delta", "0.4"), "--cac must lie in [0, 1]"),
    ((*POWER, "--delta", "0.4"),
     "give --rho-w (with --rho-a / --pi as the model needs) or raw variance components"),
    ((*POWER, "--sigma-alpha-sq", "1", "--delta", "0.4"),
     "raw parameterization needs --sigma-alpha-sq and --sigma-e-sq"),
    ((*POWER, "--rho-w", "0.1", "--contrast", "abc"),
     "contrast 'abc' must look like label=w1,w2[,w3][@effect]"),
    ((*POWER, "--rho-w", "0.1", "--contrast", "a=1,-1@x"),
     "bad contrast effect size in 'a=1,-1@x'"),
    ((*POWER, "--rho-w", "0.1", "--contrast", "a=1,x"), "bad contrast weights in 'a=1,x'"),
    ((*POWER, "--rho-w", "0.1", "--contrast", '"x=1,-1@0.4', "--format", "csv"),
     """contrast label '"x' must not start with a double quote"""),
    ((*SWEEP, "--contrast", '"x=1,-1@0.4', "--rho-values", "0.1"),
     """contrast label '"x' must not start with a double quote"""),
    ((*POWER, "--rho-w", "0.1"),
     "give --delta (one value per estimable effect) and/or --contrast"),
    ((*POWER, "--rho-w", "0.1", "--delta", "0.1", "0.2", "0.3"),
     "--delta got 3 value(s) but the analysis has 2 estimable effect(s): trt1, trt2"),
    (("sweep", "--design", "fig2b", "--model", "cs", "--n", "15", "--sigma-alpha-sq", "1",
      "--sigma-e-sq", "1", "--delta", "0.4"),
     "sweeps run on the standardized parameterization; drop the raw variance components "
     "and give ICC flags instead"),
    ((*SWEEP, "--rho-values", "0.1,x"), "bad --rho-values list '0.1,x'"),
    ((*SWEEP, "--rho-values", ""), "--rho-values list '' holds no values"),
    ((*SWEEP, "--rho-values", ","), "--rho-values list ',' holds no values"),
    (("compare", "--design", "fig1", "--design", "fig2b", "--model", "cs", "--n", "15",
      "--delta", "0.4", "--rho-values", " , "), "--rho-values list ' , ' holds no values"),
    ((*SWEEP, "--rho-step", "0"), "--rho-step must be positive"),
    ((*SWEEP, "--rho-min", "0.3", "--rho-max", "0.1"),
     "empty sweep grid; check --rho-min/--rho-max/--rho-step"),
    (("compare", "--design", "fig2a-trt1", "--design", "fig2a-trt2", "--model", "cs",
      "--n", "15", "--delta", "0.4"),
     "designs share no estimable effect or contrast labels to compare"),
    *[(("power", "--design", "fig2b", "--model", model, "--rho-w", "0.1", "--n", "15",
        "--delta", "0.4"), f"unknown covariance model {model!r}")
      for model in ("CS", "cross_sectional", "cross-sectional", "ne", "nested_exchangeable",
                    " cohort")],
    # a byte of the command line that is not UTF-8 reaches the output as a lone
    # surrogate: through a contrast label, or through the name of a design file
    # without a label, which power's table title shows
    ((*POWER, "--rho-w", "0.05", "--delta", "0.4", "--contrast", "a\udcff=1,-1",
      "--output", "o.csv"), NOT_UTF8.format("o.csv", 176)),
    (("power", "--design", "d\udcff.csv", "--model", "cs", "--rho-w", "0.05", "--n", "15",
      "--delta", "0.4", "--format", "table", "--output", "o.txt"),
     NOT_UTF8.format("o.txt", 3)),
    # an empty label passes the CLI's label checks to the spec's own
    ((*POWER, "--rho-w", "0.1", "--contrast", "=1,-1@0.4"), "contrast needs a label"),
])
def test_cli_input_error_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # no file named like a design id lies here
    (tmp_path / "array.json").write_text("[[0, 1], [0, 1]]\n")  # JSON, but not an object
    (tmp_path / "d\udcff.csv").write_text("0,1,1\n0,0,2\n0,3,3\n")  # a name, no label
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["array.json", "d\udcff.csv"]


def test_catalog_takes_json_but_no_format_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["catalog", "fig1", "--format", "json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "swedge: error: unrecognized arguments: --format json"


CS = CovarianceModel.CROSS_SECTIONAL
FIG1 = catalog_design("fig1")


@pytest.mark.parametrize("call, kind, message", [
    (lambda: CovarianceModel.from_string("Cohort"), ParameterError,
     "unknown covariance model 'Cohort'"),
    (lambda: CorrelationSpec(model=CS, n_per_period=10, rho_a=0.1,
                             raw=RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=1.0)),
     ParameterError, "rho_a / pi cannot be combined with raw components"),
    (lambda: CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=10, rho_w=0.1),
     ParameterError, "the cohort model requires pi"),
    (lambda: CorrelationSpec(model=CS, n_per_period=10, rho_w=0.1, pi=0.5),
     ParameterError, "pi does not apply to the cs model"),
    (lambda: CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=10,
                             raw=RawComponents(sigma_alpha_sq=0.1, sigma_e_sq=1.0,
                                               sigma_nu_sq=0.2)),
     ParameterError, "sigma_nu_sq applies to the nested exchangeable model only, not cohort"),
    (lambda: DesignGrid([[0, [1]], [0, 1]]), DesignError, "row 1: unknown condition code [1]"),
    (lambda: FIG1.permute_clusters([0, 0, 1, 2, 3, 4]), DesignError,
     "cluster permutation must reorder all rows exactly once"),
    (lambda: FIG1.permute_clusters([float(k) for k in range(6)]), DesignError,
     "cluster permutation must be a sequence of row indices"),
    (lambda: FIG1.permute_clusters([False, True, 2, 3, 4, 5]), DesignError,
     "cluster permutation must be a sequence of row indices"),
    (lambda: FIG1.permute_clusters([np.False_, np.True_, 2, 3, 4, 5]), DesignError,
     "cluster permutation must be a sequence of row indices"),
    (lambda: generate_standard_swd(0, 1), DesignError, "need at least one sequence"),
    (lambda: generate_standard_swd(1, 0), DesignError, "need at least one cluster per sequence"),
    (lambda: serialize_design(FIG1, fmt="xml"), DesignError, "unknown design format 'xml'"),
    (lambda: parse_design("# swedge-design v1 tag=x\n0,1\n0,1\n"), DesignError,
     "malformed design header: '# swedge-design v1 tag=x'"),
    (lambda: parse_design("{"), DesignError,
     "invalid design JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (lambda: parse_design("[" * 200_000 + "]" * 200_000), DesignError,
     "invalid design JSON: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    (lambda: parse_design('{"label": "x"}'), DesignError,
     "design JSON must contain a 'cells' array"),
    (lambda: parse_design('{"cells": "0101"}'), DesignError,
     "design JSON must contain a 'cells' array"),
    (lambda: parse_design('{"cells": {"a": [0, 1]}}'), DesignError,
     "design JSON must contain a 'cells' array"),
    (lambda: ContrastSpec(label="", weights=(1.0, -1.0)), ParameterError,
     "contrast needs a label"),
    (lambda: design_power(FIG1, CorrelationSpec(model=CS, n_per_period=10, rho_w=0.1),
                          EffectSpec(delta1=0.3)).row("trt2"),
     KeyError, "no result row for 'trt2'"),
    # a label the serialized form's reader cannot decode is left to json.loads
    (lambda: parse_design('{"label": "a\\x", "cells": [[0, 1], [0, 1]]}'), DesignError,
     "invalid design JSON: Invalid \\escape: line 1 column 13 (char 12)"),
    (lambda: wald_power(0.4, 0.1, 0.0), ValueError,
     "alpha must lie strictly between 0 and 1, got 0.0"),
    (lambda: generate_standard_swd(2.5, 2), DesignError, "sequences must be an int, got 2.5"),
    (lambda: generate_standard_swd(2, 2.0), DesignError,
     "clusters_per_sequence must be an int, got 2.0"),
    (lambda: generate_standard_swd(True, 2), DesignError, "sequences must be an int, got True"),
    (lambda: generate_standard_swd(2, np.True_), DesignError,
     f"clusters_per_sequence must be an int, got {np.True_!r}"),
])
def test_library_input_error(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert info.value.args[0] == message


#: Every spec field and wald_power argument read as a float, each taking a bool ``b``
#: beside valid values.
FLOAT_FIELDS = {
    "rho_w": lambda b: CorrelationSpec(model=CS, n_per_period=10, rho_w=b),
    "rho_a": lambda b: CorrelationSpec(model=CovarianceModel.NESTED_EXCHANGEABLE,
                                       n_per_period=10, rho_w=0.1, rho_a=b),
    "pi": lambda b: CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=10,
                                    rho_w=0.1, pi=b),
    "sigma_alpha_sq": lambda b: RawComponents(sigma_alpha_sq=b, sigma_e_sq=1.0),
    "sigma_e_sq": lambda b: RawComponents(sigma_alpha_sq=0.1, sigma_e_sq=b),
    "sigma_psi_sq": lambda b: RawComponents(sigma_alpha_sq=0.1, sigma_e_sq=1.0, sigma_psi_sq=b),
    "sigma_nu_sq": lambda b: RawComponents(sigma_alpha_sq=0.1, sigma_e_sq=1.0, sigma_nu_sq=b),
    "diag": lambda b: CompoundSymmetry(diag=b, offdiag=0.1),
    "offdiag": lambda b: CompoundSymmetry(diag=2.0, offdiag=b),
    "delta1": lambda b: EffectSpec(delta1=b),
    "delta2": lambda b: EffectSpec(delta2=b),
    "delta3": lambda b: EffectSpec(delta3=b),
    "alpha": lambda b: EffectSpec(delta1=0.3, alpha=b),
    "contrast weight": lambda b: ContrastSpec(label="c", weights=(b, -1.0)),
    "contrast effect": lambda b: ContrastSpec(label="c", weights=(1.0, -1.0), effect=b),
    "wald effect": lambda b: wald_power(b, 0.1),
    "wald se": lambda b: wald_power(0.4, b),
    "wald alpha": lambda b: wald_power(0.4, 0.1, b),
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy bool"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_a_bool_is_not_a_number(field, value):
    # a sweep grid holding a bool is rejected too
    with pytest.raises(ParameterError) as info:
        FLOAT_FIELDS[field](value)
    assert info.value.args[0] == f"a bool is not a number, got {value!r}"
