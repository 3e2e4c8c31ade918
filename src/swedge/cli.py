"""Command-line interface: power, sweep, compare, catalog, validate.

Exit codes: 0 success, 2 input or validation problem, 3 estimability
(rank-deficiency) problem.  Output is deterministic for identical inputs.
Every command formats each value once, to 12 significant digits: CSV is
that text, JSON holds the same numbers (``power``'s few rows through the
``json`` encoder, a sweep's in :func:`_write`'s one ``%`` pass), and a
table shows that text rounded to 4 digits.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import __version__
from .covariance import (
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
)
from .designs import (
    DesignError,
    DesignGrid,
    UnknownDesignError,
    catalog_design,
    catalog_ids,
    parse_design,
    serialize_design,
    validate_design,
)
from .power import DEFAULT_RHO_GRID, ContrastSpec, EffectSpec, design_power, sweep
from .variance import NO_EFFECTS_ESTIMABLE, RankDeficiencyError, active_effects

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RANK = 3

#: The most points a --rho-min/--rho-max/--rho-step grid may have.
MAX_SWEEP_POINTS = 100_000
# The --rho-min/--rho-max/--rho-step defaults, which give DEFAULT_RHO_GRID.
_DEFAULT_RANGE = (0.001, 0.30, 0.001)


class CliError(Exception):
    """Input-level problem; rendered to stderr with exit code 2."""


def _human(x) -> str:
    return format(float(x), ".4g")


def _json_value(x: float) -> float:
    # the value of x's 12-digit text, so JSON and CSV carry identical values
    return float("%.12g" % x)


@functools.cache
def _json_encoder():
    import json

    return json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json(value) -> str:
    return _json_encoder().encode(value)


def _json_number(token: str) -> str:
    """The JSON text of the float a ``"%.12g"`` token reads back as: an
    integral token gains ``.0``, and one with an exponent is re-encoded."""
    if token.lstrip("-").isdigit():
        return token + ".0"
    return _json(float(token))


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            data = text.encode("utf-8")  # before the file exists, so a failure leaves none
            with open(output, "wb") as fh:
                fh.write(data)
        except (OSError, UnicodeEncodeError) as exc:
            raise CliError(f"cannot write output file {output!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _write(args, header: list[str], rows, meta: dict, error_rows: dict | None = None) -> None:
    """Write the numpy array ``rows`` of ``header`` columns to ``--output``
    or stdout in ``--format``, as one format string that ``%`` fills in one
    pass: each number is written once, by ``"%.12g"``.

    CSV is that text under the header.  JSON is ``meta`` and one object per
    row, except that ``error_rows`` maps a point index to the object that
    stands there instead; a token that is not its float's JSON text is
    re-encoded from its text.  A table shows each number read back to 4 digits.
    """
    # JSON sorts the keys, so its columns are permuted once here
    order = (sorted(range(len(header)), key=header.__getitem__) if args.format == "json"
             else range(len(header)))
    values = tuple(rows[:, order].ravel().tolist())
    if args.format == "json":
        keys = [_json(header[k]).replace("%", "%%") + ":" for k in order]
        errors = {k: _json(obj).replace("%", "%%") for k, obj in (error_rows or {}).items()}
        total = len(rows) + len(errors)

        def rows_format(spec: str) -> str:  # each failed point's object at its index
            row = "{" + ",".join(key + spec for key in keys) + "}"
            return ",".join(map(errors.get, range(total), [row] * total))

        fmt = rows_format("%.12g")
        written = fmt % values
        # A "%.12g" token holds at most one "." and is its float's JSON text
        # when it holds one and no "e": then both counts equal the format's.
        if written.count(".") != fmt.count(".") or written.count("e") != fmt.count("e"):
            tokens = (("%.12g," * len(values)) % values).split(",")[:-1]
            written = rows_format("%s") % tuple([t if "." in t and "e" not in t else _json_number(t)
                                                 for t in tokens])
        body = '{"meta":' + _json(meta) + ',"rows":[' + written + "]}\n"
    else:
        line = ",".join(["%.12g"] * len(header))
        written = ((line + "\n") * len(rows)) % values
        body = ",".join(header) + "\n" + written
        if args.format == "table":
            body = _render_table(header, [list(map(_human, row.split(",")))
                                          for row in written.split("\n")[:-1]])
    _emit(body, args.output)


# ---------------------------------------------------------------------------
# Input assembly
# ---------------------------------------------------------------------------

def _looks_like_path(spec: str) -> bool:
    return os.sep in spec or spec.endswith((".csv", ".json"))


def _read_design(spec: str) -> DesignGrid:
    """The catalog design or design file ``spec`` names; catalog ids win."""
    if not _looks_like_path(spec):
        try:
            return catalog_design(spec)
        except UnknownDesignError:
            if not os.path.exists(spec):
                raise CliError(
                    f"unknown design {spec!r}: not a catalog id "
                    f"(known: {', '.join(catalog_ids())}) and no such file"
                ) from None
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports often write
        with open(spec, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read design file {spec!r}: {exc}") from None
    try:
        grid = parse_design(text)
    except DesignError as exc:
        raise CliError(f"invalid design file {spec!r}: {exc}") from None
    if not grid.label:
        grid = grid.relabel(os.path.splitext(os.path.basename(spec))[0])
    return grid


def _load_design(spec: str, policy: str) -> DesignGrid:
    """The design ``spec`` names; a disallowed transition in it is an
    error under the "strict" policy and a warning under "permissive"."""
    grid = _read_design(spec)
    violations = validate_design(grid)
    if violations:
        listing = "\n".join(f"  {v}" for v in violations)
        if policy == "strict":
            raise CliError(f"design {spec!r} has disallowed transitions:\n{listing}")
        sys.stderr.write(f"warning: design {spec!r} has disallowed transitions:\n{listing}\n")
    return grid


_RAW_COMPONENTS = ("sigma_alpha_sq", "sigma_psi_sq", "sigma_nu_sq", "sigma_e_sq")
# The flags that set each second ICC; --cac sets rho_a = cac * rho_w.
_SECOND_ICC_FLAGS = {"pi": ("--pi",), "rho_a": ("--rho-a", "--cac")}


def _flags_given(args, names) -> dict[str, float]:
    """The options among ``names`` the command line set, keyed by flag."""
    return {"--" + name.replace("_", "-"): getattr(args, name)
            for name in names if getattr(args, name) is not None}


def _icc_spec(args, rho_w: float) -> CorrelationSpec:
    """The correlation spec the ICC flags give at within-period ICC ``rho_w``.

    Every second-ICC flag must be one the model uses: ``--pi`` for the
    cohort model, ``--rho-a`` or ``--cac`` (not both) for the nested
    exchangeable model.
    """
    model = CovarianceModel.from_string(args.model)
    given = _flags_given(args, ("pi", "rho_a", "cac"))
    takes = _SECOND_ICC_FLAGS.get(model.second_icc, ())
    for flag in given:
        if flag not in takes:
            raise CliError(f"{flag} does not apply to the {model.value} model")
    if takes and len(given) != 1:
        raise CliError(f"the {model.value} model needs {' or '.join(takes)}"
                       + (", not both" if given else ""))
    if "--cac" in given and not 0.0 <= args.cac <= 1.0:
        raise CliError("--cac must lie in [0, 1]")
    if "--rho-a" in given and not 0.0 <= args.rho_a < 1.0:
        raise CliError(f"--rho-a must lie in [0, 1), got {args.rho_a}")
    second = {model.second_icc: args.cac * rho_w if flag == "--cac" else value
              for flag, value in given.items()}
    return CorrelationSpec(model=model, n_per_period=args.n, rho_w=rho_w, **second)


def _correlation_from_args(args) -> CorrelationSpec:
    if not _flags_given(args, _RAW_COMPONENTS):
        if args.rho_w is None:
            raise CliError("give --rho-w (with --rho-a / --pi as the model needs) "
                           "or raw variance components")
        return _icc_spec(args, args.rho_w)
    icc_given = _flags_given(args, ("rho_w", "rho_a", "pi", "cac"))
    if icc_given:
        raise CliError(f"use either {' / '.join(icc_given)} (standardized) or raw "
                       "variance components, not both")
    if args.sigma_alpha_sq is None or args.sigma_e_sq is None:
        raise CliError("raw parameterization needs --sigma-alpha-sq and --sigma-e-sq")
    raw = RawComponents(
        sigma_alpha_sq=args.sigma_alpha_sq,
        sigma_e_sq=args.sigma_e_sq,
        sigma_psi_sq=args.sigma_psi_sq or 0.0,
        sigma_nu_sq=args.sigma_nu_sq or 0.0,
    )
    return CorrelationSpec(model=CovarianceModel.from_string(args.model),
                           n_per_period=args.n, raw=raw)


def _parse_contrast(text: str) -> ContrastSpec:
    label, _, rest = text.partition("=")
    if not rest:
        raise CliError(f"contrast {text!r} must look like label=w1,w2[,w3][@effect]")
    # the label becomes a CSV field or part of a column name
    if "," in label or (label and label.splitlines() != [label]):
        raise CliError(f"contrast label {label!r} must not hold a comma or a line break")
    if label.startswith('"'):  # a CSV reader would read a quoted field
        raise CliError(f"contrast label {label!r} must not start with a double quote")
    effect = None
    if "@" in rest:
        rest, _, eff_text = rest.partition("@")
        try:
            effect = float(eff_text)
        except ValueError:
            raise CliError(f"bad contrast effect size in {text!r}") from None
    try:
        weights = tuple(float(tok) for tok in rest.split(","))
    except ValueError:
        raise CliError(f"bad contrast weights in {text!r}") from None
    return ContrastSpec(label=label, weights=weights, effect=effect)


def _effects_from_args(args, grid: DesignGrid) -> EffectSpec:
    labels = active_effects(grid, args.additive)
    if not labels:
        raise RankDeficiencyError(NO_EFFECTS_ESTIMABLE)
    deltas = list(args.delta or [])
    if not deltas and not args.contrast:
        raise CliError("give --delta (one value per estimable effect) and/or --contrast")
    if len(deltas) == 1 and len(labels) > 1:
        deltas = deltas * len(labels)
    if deltas and len(deltas) != len(labels):
        raise CliError(
            f"--delta got {len(deltas)} value(s) but the analysis has "
            f"{len(labels)} estimable effect(s): {', '.join(labels)}"
        )
    by_label = dict(zip(labels, deltas)) if deltas else {}
    contrasts = tuple(_parse_contrast(c) for c in (args.contrast or []))
    return EffectSpec(
        delta1=by_label.get("trt1"),
        delta2=by_label.get("trt2"),
        delta3=by_label.get("interaction"),
        alpha=args.alpha,
        contrasts=contrasts,
        additive=args.additive,
    )


def _sweep_template(args) -> CorrelationSpec:
    """Correlation spec whose rho_w (and, under --cac, rho_a) is replaced point by point."""
    if _flags_given(args, _RAW_COMPONENTS):
        raise CliError("sweeps run on the standardized parameterization; drop the raw "
                       "variance components and give ICC flags instead")
    if args.rho_w is not None:
        raise CliError("a sweep takes its rho_w values from --rho-values or "
                       "--rho-min/--rho-max/--rho-step; drop --rho-w")
    # A placeholder rho_w: the smallest the flags allow, which is the
    # fixed --rho-a when one is given.
    return _icc_spec(args, args.rho_a or 0.0)


def _sweep_points(args) -> list:
    if args.rho_values is not None:
        try:
            values = [float(tok) for tok in args.rho_values.split(",") if tok.strip()]
        except ValueError:
            raise CliError(f"bad --rho-values list {args.rho_values!r}") from None
        if not values:
            raise CliError(f"--rho-values list {args.rho_values!r} holds no values")
        for value in values:
            if not math.isfinite(value):
                raise CliError(f"--rho-values entries must be finite, got {value}")
    elif (args.rho_min, args.rho_max, args.rho_step) == _DEFAULT_RANGE:
        values = list(DEFAULT_RHO_GRID)  # the values the rule below gives, built once
    else:
        for flag, value in _flags_given(args, ("rho_min", "rho_max", "rho_step")).items():
            if not math.isfinite(value):
                raise CliError(f"{flag} must be finite, got {value}")
        if args.rho_step <= 0:
            raise CliError("--rho-step must be positive")
        # the points whose value, rounded to 12 decimals, is not past --rho-max
        steps = (args.rho_max - args.rho_min + 5e-13) / args.rho_step
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        if count > MAX_SWEEP_POINTS:
            raise CliError(f"the sweep grid would have more than {MAX_SWEEP_POINTS} points; "
                           "raise --rho-step or narrow --rho-min/--rho-max")
        if count < 1:
            raise CliError("empty sweep grid; check --rho-min/--rho-max/--rho-step")
        values = [round(args.rho_min + k * args.rho_step, 12) for k in range(count)]
        if len(set(values)) < len(values):
            raise CliError(f"--rho-step {args.rho_step:g} is finer than the 12 decimals "
                           "the grid values are rounded to, so two of them would be equal")
    if args.cac is not None:
        return [(v, args.cac * v) for v in values]
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _meta(args, designs: list[str], correlation: CorrelationSpec,
          effects: EffectSpec) -> dict:
    meta = {
        "command": args.command,
        "designs": designs,
        "alpha": effects.alpha,
        "additive": effects.additive,
        "version": __version__,
    }
    meta.update({k: (_json_value(v) if isinstance(v, float) else v)
                 for k, v in correlation.describe().items()})
    deltas = effects.deltas()
    if deltas:
        meta["deltas"] = {k: _json_value(v) for k, v in deltas.items()}
    if effects.contrasts:
        meta["contrasts"] = [
            {"label": c.label, "weights": list(c.weights),
             **({"effect": _json_value(c.effect)} if c.effect is not None else {})}
            for c in effects.contrasts
        ]
    return meta


def cmd_power(args) -> int:
    grid = _load_design(args.design, args.policy)
    correlation = _correlation_from_args(args)
    effects = _effects_from_args(args, grid)
    result = design_power(grid, correlation, effects)
    header = ["label", "effect", "se", "power"]
    # each number as the value of its 12-digit text, the same in every format
    rows = [(r.label, *map(_json_value, (r.effect, r.se, r.power))) for r in result.rows]
    if args.format == "json":
        body = _json({"meta": _meta(args, [args.design], correlation, effects),
                      "rows": [dict(zip(header, row)) for row in rows]}) + "\n"
    elif args.format == "csv":
        body = ",".join(header) + "\n" + "".join(["%s,%.12g,%.12g,%.12g\n" % row for row in rows])
    else:
        params = " ".join(f"{k}={_human(v) if isinstance(v, float) else v}"
                          for k, v in correlation.describe().items())
        body = (f"# {result.design_label or args.design}: {params} alpha={effects.alpha:g}\n"
                + _render_table(header, [[row[0], *map(_human, row[1:])] for row in rows]))
    _emit(body, args.output)
    return EXIT_OK


def _sweep_table(args, specs: list[str]) -> int:
    """Sweep each design over the same grid and render one table.

    With two or more designs, columns carry a ``_<design>`` suffix and the
    ``gain_`` columns give each design's power minus the first design's.
    """
    import numpy as np

    correlation = _sweep_template(args)
    points = _sweep_points(args)
    compare = len(specs) > 1

    names, tables = [], []
    for spec in specs:
        grid = _load_design(spec, args.policy)
        effects = _effects_from_args(args, grid)
        if not tables:  # the JSON meta gives the first design's effects
            first_effects = effects
        table = sweep(grid, correlation, effects, points=points)
        if len(table.errors) == len(points):
            message = (f"design {spec!r}: every sweep point failed; "
                       f"first error: {table.errors[0]}")
            if all(isinstance(exc, RankDeficiencyError) for exc in table.errors.values()):
                raise RankDeficiencyError(message)
            raise CliError(message)
        name = os.path.splitext(os.path.basename(spec))[0] if _looks_like_path(spec) else spec
        names.append("".join(ch if (ch.isalnum() or ch in "-_") else "-" for ch in name))
        tables.append(table)

    shared = [l for l in tables[0].labels if all(l in t.labels for t in tables)]
    if not shared:
        raise CliError("designs share no estimable effect or contrast labels to compare")

    header, columns = list(tables[0].icc), list(tables[0].icc.values())
    for name, table in zip(names, tables):
        suffix = f"_{name}" if compare else ""
        header += [f"se_{l}{suffix}" for l in shared] + [f"power_{l}{suffix}" for l in shared]
        picked = [table.labels.index(l) for l in shared]
        columns += [table.se[:, picked], table.power[:, picked]]
    powers = columns[len(tables[0].icc) + 1::2]
    for name, power in zip(names[1:], powers[1:]):
        header += [f"gain_{l}_{name}" for l in shared]
        columns.append(power - powers[0])

    repeated = next((h for k, h in enumerate(header) if h in header[:k]), None)
    if repeated is not None:
        raise CliError(f"column {repeated!r} would appear twice in the output; "
                       "give every design and contrast its own name")

    # The first design's error at a point is the one reported.
    errors = {k: str(exc) for table in reversed(tables) for k, exc in table.errors.items()}
    failed = sorted(errors)
    values = np.column_stack(columns)
    iccs = values[failed, :len(tables[0].icc)].tolist()
    sys.stderr.write("".join(f"point {k} (rho_w={icc[0]:g}): {errors[k]}\n"
                             for k, icc in zip(failed, iccs)))
    # JSON keeps a row for every point, a failed one's in its place
    error_rows = {k: {**dict(zip(tables[0].icc, map(_json_value, icc))), "error": errors[k]}
                  for k, icc in zip(failed, iccs)} if args.format == "json" else None
    meta = _meta(args, specs, correlation, first_effects)
    if compare:
        meta["design_names"] = names
    _write(args, header, np.delete(values, failed, 0), meta, error_rows=error_rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _sweep_table(args, [args.design])


def cmd_compare(args) -> int:
    if len(args.design) < 2:
        raise CliError("compare needs at least two --design values")
    return _sweep_table(args, args.design)


def cmd_catalog(args) -> int:
    if not args.id:
        if args.json:
            raise CliError("--json dumps one design; give a catalog id")
        header = ["id", "clusters", "periods", "reconstructed"]
        rows = []
        for design_id in catalog_ids():
            grid = catalog_design(design_id)
            rows.append([design_id, str(grid.n_clusters), str(grid.n_periods),
                         "yes" if grid.reconstructed else "no"])
        _emit(_render_table(header, rows), args.output)
        return EXIT_OK
    try:
        grid = catalog_design(args.id)
    except UnknownDesignError:
        raise CliError(
            f"unknown catalog id {args.id!r} (known: {', '.join(catalog_ids())})"
        ) from None
    _emit(serialize_design(grid, fmt="json" if args.json else "csv"), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = args.design
    grid = _read_design(spec)
    violations = validate_design(grid)
    if not violations:
        print(f"{spec}: ok ({grid.n_clusters} clusters x {grid.n_periods} periods)")
        return EXIT_OK
    for v in violations:
        print(str(v))
    if args.policy == "permissive":
        print(f"{spec}: {len(violations)} warning(s) under the permissive policy")
        return EXIT_OK
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_param_options(p: argparse.ArgumentParser, sweep_mode: bool = False) -> None:
    p.add_argument("--model", required=True, help="covariance model: cs, cohort, or nested")
    p.add_argument("--n", type=int, required=True, help="individuals per cluster-period")
    p.add_argument("--rho-w", type=float, default=None,
                   help="within-period ICC (power only; sweeps take their rho_w values "
                        "from --rho-values or --rho-min/--rho-max/--rho-step)")
    p.add_argument("--rho-a", type=float, default=None,
                   help="across-period ICC (nested exchangeable only; held fixed in sweeps)")
    p.add_argument("--pi", type=float, default=None,
                   help="individual autocorrelation (cohort only)")
    p.add_argument("--cac", type=float, default=None,
                   help="cluster autocorrelation in [0, 1], setting rho_a = cac * rho_w "
                        "(nested exchangeable only; instead of --rho-a)")
    p.add_argument("--sigma-alpha-sq", type=float, default=None, help="raw cluster variance")
    p.add_argument("--sigma-psi-sq", type=float, default=None,
                   help="raw individual variance (cohort)")
    p.add_argument("--sigma-nu-sq", type=float, default=None,
                   help="raw cluster-period variance (nested exchangeable)")
    p.add_argument("--sigma-e-sq", type=float, default=None, help="raw residual variance")
    p.add_argument("--delta", type=float, nargs="+", default=None,
                   help="effect size per estimable effect (single value broadcasts)")
    p.add_argument("--alpha", type=float, default=0.05, help="two-sided type I error rate")
    p.add_argument("--contrast", action="append", default=None,
                   metavar="LABEL=W1,W2[,W3][@EFFECT]",
                   help="contrast of effect estimates; repeatable")
    p.add_argument("--additive", action="store_true",
                   help="assume additive treatment effects (drop the interaction column)")
    p.add_argument("--policy", choices=["strict", "permissive"], default="strict",
                   help="transition policy applied to input designs")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--output", default=None, help="write output to this path instead of stdout")
    if sweep_mode:
        for flag, default in zip(("--rho-min", "--rho-max", "--rho-step"), _DEFAULT_RANGE):
            p.add_argument(flag, type=float, default=default)
        p.add_argument("--rho-values", default=None,
                       help="comma-separated rho_w values (overrides min/max/step)")


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent
    notation, such as ``-4e-1``, as a value: argparse's own pattern for
    negative numbers has no exponent, so it reads one as an option.
    ``add_subparsers`` makes the subparsers of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="swedge",
        description="Power analysis for stepped wedge trials with two treatments.",
    )
    parser.add_argument("--version", action="version", version=f"swedge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", help="power for one design at one parameter point")
    p_power.add_argument("--design", required=True, help="catalog id or design file path")
    _add_param_options(p_power)
    p_power.set_defaults(func=cmd_power)

    p_sweep = sub.add_parser("sweep", help="power across a grid of ICC values")
    p_sweep.add_argument("--design", required=True, help="catalog id or design file path")
    _add_param_options(p_sweep, sweep_mode=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="side-by-side sweep of two or more designs")
    p_cmp.add_argument("--design", action="append", required=True,
                       help="catalog id or design file path; repeat for each design")
    _add_param_options(p_cmp, sweep_mode=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_cat = sub.add_parser("catalog", help="list catalog designs or dump one")
    p_cat.add_argument("id", nargs="?", default=None, help="catalog design id")
    p_cat.add_argument("--json", action="store_true", help="dump the design as JSON, not CSV")
    p_cat.add_argument("--output", default=None)
    p_cat.set_defaults(func=cmd_catalog)

    p_val = sub.add_parser("validate", help="check a design against the transition policy")
    p_val.add_argument("--design", required=True, help="catalog id or design file path")
    p_val.add_argument("--policy", choices=["strict", "permissive"], default="strict")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ParameterError, DesignError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except RankDeficiencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RANK


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
