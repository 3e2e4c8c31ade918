"""Correctness gate: the golden reference and the comparisons against it.

CLI text is compared token by token: every non-numeric token must be
identical and every number must agree with the golden one within one unit
in its 12th significant digit.  Library values must agree within 1e-12
relative.  Sweep and compare outputs are stored once for both formats: the
csv header, the json meta, and every row as its values in header order (an
error row as its grid parameters followed by its message).  A csv output
must then match the header exactly and the rows without error; a json
output must match the meta and every row.
"""

from __future__ import annotations

import json
import math
import re

LIBRARY_REL_TOL = 1e-12
ORACLE_REL_TOL = 1e-10

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tokens(text: str) -> list[list]:
    """Lines of ``text`` split into strings and numbers (as floats)."""
    return [[float(tok) if k % 2 else tok for k, tok in enumerate(_NUMBER.split(line))]
            for line in text.splitlines()]


def close12(expected: float, actual: float) -> bool:
    """Within one unit in the 12th significant digit of ``expected``."""
    if expected == 0 or not math.isfinite(expected):
        return actual == expected
    unit = 10.0 ** (math.floor(math.log10(abs(expected))) - 11)
    return abs(actual - expected) <= 1.5 * unit


def same(expected, actual) -> bool:
    """Structural equality with numbers compared by :func:`close12`."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return type(actual) is type(expected) and actual == expected
    if isinstance(expected, (int, float)):
        return (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and close12(float(expected), float(actual)))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(same(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(same(expected[k], actual[k]) for k in expected))
    raise TypeError(f"unexpected golden value {expected!r}")


def rel_close(expected: float, actual: float, tol: float) -> bool:
    return abs(actual - expected) <= tol * max(abs(expected), abs(actual))


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_cli(golden: dict, code: int, out: str, err: str) -> str | None:
    """None when a CLI run matches its golden entry ``{"exit", "stdout",
    "stderr"}``, else the reason."""
    if code != golden["exit"]:
        return f"exit code {code}, expected {golden['exit']}"
    if not same(tokens(golden["stdout"]), tokens(out)):
        return "stdout differs from the golden output"
    if not same(tokens(golden["stderr"]), tokens(err)):
        return "stderr differs from the golden output"
    return None


def _number(field: str) -> float:
    if not _NUMBER.fullmatch(field):
        raise ValueError(f"not a number: {field!r}")
    return float(field)


def _row_values(header: list[str], row: dict) -> list:
    """A json row as its values in header order; an error row as its
    leading grid parameters followed by its message."""
    if "error" in row:
        params = header[:len(row) - 1]
        if row.keys() != {*params, "error"}:
            raise ValueError(f"error row keys {sorted(row)}")
        return [row[h] for h in params] + [row["error"]]
    if row.keys() != set(header):
        raise ValueError(f"row keys {sorted(row)} differ from the header")
    return [row[h] for h in header]


def sweep_record(code: int, csv_text: str, json_text: str, err: str) -> dict:
    """Golden entry of a sweep/compare call, from its csv and json outputs."""
    header = csv_text.splitlines()[0].split(",") if csv_text else []
    doc = json.loads(json_text) if json_text else {"meta": {}, "rows": []}
    rows = [_row_values(header, row) for row in doc["rows"]]
    csv_rows = [[_number(f) for f in line.split(",")] for line in csv_text.splitlines()[1:]]
    if csv_rows != [r for r in rows if not isinstance(r[-1], str)]:
        raise ValueError("csv and json rows disagree")
    return {"exit": code, "stderr": err, "meta": doc["meta"], "header": header, "rows": rows}


def check_sweep(golden: dict, fmt: str, code: int, out: str, err: str) -> str | None:
    """None when a sweep/compare output in ``fmt`` matches its golden entry
    row for row, else the reason."""
    if code != golden["exit"]:
        return f"exit code {code}, expected {golden['exit']}"
    if not same(tokens(golden["stderr"]), tokens(err)):
        return "stderr (error rows) differs from the golden output"
    try:
        if fmt == "json":
            doc = json.loads(out) if out else {"meta": {}, "rows": []}
            if not same(golden["meta"], doc["meta"]):
                return "json meta differs from the golden output"
            rows = [_row_values(golden["header"], row) for row in doc["rows"]]
            expected = golden["rows"]
        else:
            lines = out.splitlines()
            if (lines[0].split(",") if lines else []) != golden["header"]:
                return "csv header differs from the golden output"
            rows = [[_number(f) for f in line.split(",")] for line in lines[1:]]
            expected = [r for r in golden["rows"] if not isinstance(r[-1], str)]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparseable {fmt} output: {exc}"
    if len(rows) != len(expected):
        return f"{len(rows)} {fmt} rows, expected {len(expected)}"
    for k, (e, a) in enumerate(zip(expected, rows)):
        if not same(e, a):
            return f"{fmt} row {k} differs from the golden output"
    return None


# ---------------------------------------------------------------------------
# Library values
# ---------------------------------------------------------------------------

# (n, rho_w[, extra]) points per model: extra is pi (cohort) or rho_a (nested).
LIBRARY_POINTS = {
    "cs": ((15, 0.01), (40, 0.2)),
    "cohort": ((15, 0.05, 0.3), (40, 0.2, 0.8)),
    "nested": ((15, 0.05, 0.02), (40, 0.2, 0.1)),
}


def library_cases(catalog_ids) -> list[tuple]:
    """(design, model, point, additive) for every catalog id and model."""
    return [(design, model, point, additive)
            for design in catalog_ids
            for model, points in LIBRARY_POINTS.items()
            for point in points
            for additive in (False, True)]


def library_key(design: str, model: str, point: tuple, additive: bool) -> str:
    return f"{design}|{model}|{','.join(map(repr, point))}|{'additive' if additive else 'full'}"


def library_values(design: str, model: str, point: tuple, additive: bool) -> dict:
    """Per-effect SE and power from ``design_power``, or the error it raised."""
    import swedge

    grid = swedge.catalog_design(design)
    kwargs = {"n_per_period": point[0], "rho_w": point[1]}
    if model == "cohort":
        kwargs["pi"] = point[2]
    elif model == "nested":
        kwargs["rho_a"] = point[2]
    spec = swedge.CorrelationSpec(model=swedge.CovarianceModel.from_string(model), **kwargs)
    labels = [l for l in swedge.active_effects(grid) if not (additive and l == "interaction")]
    deltas = {"trt1": 0.3, "trt2": 0.35, "interaction": 0.25}
    contrasts = ()
    if "trt1" in labels and "trt2" in labels:
        weights = (1.0, -1.0) + (0.0,) * (len(labels) - 2)
        contrasts = (swedge.ContrastSpec("diff", weights),)
    try:
        effects = swedge.EffectSpec(
            delta1=deltas["trt1"] if "trt1" in labels else None,
            delta2=deltas["trt2"] if "trt2" in labels else None,
            delta3=deltas["interaction"] if "interaction" in labels else None,
            contrasts=contrasts, additive=additive)
        result = swedge.design_power(grid, spec, effects)
    except (swedge.ParameterError, swedge.RankDeficiencyError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"rows": [[r.label, r.effect, r.se, r.power] for r in result.rows]}


def check_library(golden: dict, actual: dict) -> str | None:
    if "error" in golden or "error" in actual:
        return None if golden == actual else f"expected {golden}, got {actual}"
    if [r[0] for r in golden["rows"]] != [r[0] for r in actual["rows"]]:
        return "effect labels differ"
    for g, a in zip(golden["rows"], actual["rows"]):
        for name, gv, av in zip(("effect", "se", "power"), g[1:], a[1:]):
            if not rel_close(gv, av, LIBRARY_REL_TOL):
                return f"{g[0]} {name} {av!r}, expected {gv!r}"
    return None
