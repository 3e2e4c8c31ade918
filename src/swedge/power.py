"""Wald-test power for treatment, interaction, and contrast effects.

Power uses the standard normal approximation to the Wald statistic: both
rejection tails are included, so a zero effect gives back exactly the
type I error rate.
"""

from __future__ import annotations

import itertools
import math
import sys

from ._record import Record
from .covariance import (
    CorrelationSpec,
    ParameterError,
    _read_float,
    cluster_cov_stack,
)
from .designs import DesignGrid
# design_power solves its point with closed_form_stack; closed_form_covariance
# stays a name of this module, which perfbench/tracing.py binds
from .variance import (  # noqa: F401
    EFFECT_LABELS,
    RankDeficiencyError,
    _elementwise,
    _points,
    closed_form_covariance,
    closed_form_stack,
    contrast_variances,
)


#: Default within-period ICC sweep grid: 0.001 through 0.300 in 0.001 steps.
DEFAULT_RHO_GRID = tuple(round(0.001 * k, 3) for k in range(1, 301))


def _check_alpha(alpha: float) -> None:
    """Raise for an alpha in (0, 1) too small to have a critical value."""
    if 1.0 - alpha / 2.0 == 1.0:
        raise ParameterError(f"alpha {alpha:g} is too small: 1 - alpha/2 rounds to 1, "
                             "which has no normal quantile")


def _critical_value(alpha: float) -> float:
    """Critical value z of the two-sided test at level ``alpha`` in (0, 1):
    the root of Q(z) = alpha/2 for the upper normal tail Q(z) =
    erfc(z / sqrt(2)) / 2 that :func:`_two_sided_power` evaluates.

    Five Newton steps start from z = sqrt(-2 log alpha), above the root
    since Q(z) <= exp(-z**2 / 2) / 2.  Below alpha = 1/2 they solve the
    concave log Q(z) = log(alpha/2), so every step stays above the root;
    from 1/2 up, erf(z / sqrt(2)) / 2 = 1/2 - alpha/2, whose right side is
    exact there and keeps the low digits that 1 - Q(z) would lose.  Against
    mpmath at 40 digits the worst relative error was 3.6e-16 over 80,000
    alphas from 2**-53 to 1 - 2**-53; of 16,000 log-uniform alphas in
    [1e-15, 1), 51-52 % were correctly rounded and none was 3 ulps off.
    """
    _check_alpha(alpha)
    p, root2 = alpha / 2.0, math.sqrt(2.0)
    z = math.sqrt(-2.0 * math.log(alpha))
    for _ in range(5):
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        if alpha < 0.5:
            tail = 0.5 * math.erfc(z / root2)
            z += math.log(tail / p) * tail / density
        else:
            z -= (0.5 * math.erf(z / root2) - (0.5 - p)) / density
    return z


def wald_power(effect: float, se: float, alpha: float = 0.05) -> float:
    """Two-sided Wald power for a single coefficient.

    Parameters
    ----------
    effect : float
        True coefficient value under the alternative, in the same units
        as ``se``.
    se : float
        Standard error of the estimate; must be positive.
    alpha : float
        Two-sided type I error rate.

    Each is read as a float; a Python or numpy bool raises
    :class:`~swedge.covariance.ParameterError`.
    """
    effect, se, alpha = _read_float(effect), _read_float(se), _read_float(alpha)
    if not math.isfinite(effect):
        raise ValueError(f"effect must be finite, got {effect}")
    if not math.isfinite(se):
        raise ValueError(f"standard error must be finite, got {se}")
    if se <= 0:
        raise ValueError(f"standard error must be positive, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    crit = _critical_value(alpha)  # raises for an alpha too small to have one
    if effect == 0:
        return alpha
    return _two_sided_power([abs(effect) / se], crit)[0]


def _two_sided_power(shifts: list, crit: float) -> list[float]:
    """Power of the two-sided test with critical value ``crit`` for each
    statistic centred at one of the list ``shifts`` = |effect| / se.

    Each value is Phi(shift - crit) + Phi(-shift - crit), for the standard
    normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2.  Near the centre and in the
    upper tail Phi is accurate to a few ulps.  In the lower tail the
    rounding of ``-x / sqrt(2)`` is amplified by erfc's conditioning, to
    about 4e-13 relative for x near -37.5.  Every shift gets the same
    scalar formula, so a column and a single shift give the same bits.
    """
    root2 = math.sqrt(2.0)
    return [0.5 * math.erfc((crit - s) / root2) + 0.5 * math.erfc((s + crit) / root2)
            for s in shifts]


class ContrastSpec(Record):
    """A weighted comparison of effect estimates.

    ``weights`` must match the dimension of the design's estimable effect
    set.  ``effect`` is the detectable difference; when omitted it is the
    weighted combination of the main effect sizes.  Each weight and the
    effect are read as Python floats, numpy scalars included.
    """

    label: str
    weights: tuple[float, ...]
    effect: float | None

    def __init__(self, label: str, weights: tuple[float, ...],
                 effect: float | None = None) -> None:
        self.__dict__.update(label=label, weights=tuple(map(_read_float, weights)),
                             effect=_read_float(effect))
        if not self.label:
            raise ParameterError("contrast needs a label")
        if not all(math.isfinite(w) for w in self.weights):
            raise ParameterError(f"contrast {self.label!r} weights must be finite")
        if not any(self.weights):
            raise ParameterError("contrast weights must not all be zero")
        if self.effect is not None and not math.isfinite(self.effect):
            raise ParameterError(f"contrast {self.label!r} effect must be finite")


class EffectSpec(Record):
    """Effect sizes, significance level, and requested contrasts.

    ``delta1``/``delta2``/``delta3`` are effect sizes for treatment 1,
    treatment 2 and their interaction, in outcome standard deviations when
    the correlation spec is standardized (raw effect units otherwise).
    Leave an entry ``None`` to skip it; at least one effect or contrast
    must be requested, and each contrast needs a label of its own, none of
    the effect labels.  ``additive`` analyzes the design under assumed
    additive treatment effects, dropping the interaction column from the
    model entirely.  The effect sizes and ``alpha`` are read as Python
    floats, numpy scalars included; ``contrasts``, a tuple or list of
    :class:`ContrastSpec` values, is kept as a tuple, and ``additive``, a
    Python or numpy bool, as a Python bool.
    """

    delta1: float | None
    delta2: float | None
    delta3: float | None
    alpha: float
    contrasts: tuple[ContrastSpec, ...]
    additive: bool

    def __init__(self, delta1: float | None = None, delta2: float | None = None,
                 delta3: float | None = None, alpha: float = 0.05,
                 contrasts: tuple[ContrastSpec, ...] = (), additive: bool = False) -> None:
        np = sys.modules.get("numpy")  # an input holds a numpy bool only once numpy is loaded
        if not (isinstance(additive, bool) or np is not None and isinstance(additive, np.bool_)):
            raise ParameterError(f"additive must be a bool, got {additive!r}")
        if not isinstance(contrasts, (tuple, list)) or \
                not all(isinstance(spec, ContrastSpec) for spec in contrasts):
            raise ParameterError(f"contrasts must be a tuple of ContrastSpec values, "
                                 f"got {contrasts!r}")
        self.__dict__.update(delta1=_read_float(delta1), delta2=_read_float(delta2),
                             delta3=_read_float(delta3), alpha=_read_float(alpha),
                             contrasts=tuple(contrasts), additive=bool(additive))
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        _check_alpha(self.alpha)
        for label, delta in self.deltas().items():
            if not math.isfinite(delta):
                raise ParameterError(f"effect size for {label} must be finite, got {delta}")
        if self.delta1 is None and self.delta2 is None and self.delta3 is None \
                and not self.contrasts:
            raise ParameterError("request at least one effect or contrast")
        if self.additive and self.delta3 is not None:
            raise ParameterError("an additive analysis has no interaction effect to size")
        labels = [spec.label for spec in self.contrasts]
        for k, label in enumerate(labels):
            if label in EFFECT_LABELS or label in labels[:k]:
                raise ParameterError(f"contrast label {label!r} repeats an effect or contrast "
                                     "label; give each contrast its own label")

    def deltas(self) -> dict[str, float]:
        """Mapping of effect label to requested effect size."""
        pairs = zip(EFFECT_LABELS, (self.delta1, self.delta2, self.delta3))
        return {label: delta for label, delta in pairs if delta is not None}


class EffectPower(Record):
    """One effect's size, standard error and power in a :class:`PowerResult`."""

    label: str
    effect: float
    se: float
    power: float

    def __init__(self, label: str, effect: float, se: float, power: float) -> None:
        self.__dict__.update(label=label, effect=effect, se=se, power=power)


class PowerResult(Record):
    """Per-effect standard errors and power, with run metadata, which
    equality ignores."""

    rows: tuple[EffectPower, ...]
    design_label: str
    metadata: dict

    def __init__(self, rows: tuple[EffectPower, ...], design_label: str,
                 metadata: dict) -> None:
        self.__dict__.update(rows=rows, design_label=design_label, metadata=metadata)

    def _key(self) -> tuple:
        return self.rows, self.design_label

    def row(self, label: str) -> EffectPower:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no result row for {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)


def _result_columns(effects: EffectSpec, labels: tuple[str, ...], cov, m: int):
    """The result columns of ``effects`` at m points from the entry columns
    ``cov`` of the effects ``labels``, as
    :func:`~swedge.variance.closed_form_stack` returns them:
    ``(names, sizes, se, power, errors)``, the result labels and effect
    sizes, an SE column per name, a (m,) array or for one point a float, a
    power column per name, a list of m floats, and a map from each failed
    row to the first error of its columns.  The columns mean nothing in
    failed rows, and are nan when every row failed.  A contrast variance
    that is not finite and positive fails its row; any other check fails
    every row and leaves the effect sizes nan.
    """
    deltas = effects.deltas()
    names = (*deltas, *(spec.label for spec in effects.contrasts))
    sizes, variances, errors = list(deltas.values()), [], {}
    try:
        for label in deltas:
            if label not in labels:
                raise RankDeficiencyError(
                    "effect size requested for an effect the design cannot estimate",
                    effect=label,
                )
            i = labels.index(label)
            variances.append(cov[i][i])
        for spec in effects.contrasts:
            var, failed = contrast_variances(spec.weights, cov)
            errors = {**failed, **errors}
            variances.append(var)
            size = spec.effect
            if size is None:  # the weighted combination of the main effect sizes
                pairs = [(w, label) for w, label in zip(spec.weights, labels) if w != 0]
                for _, label in pairs:
                    if label not in deltas:
                        raise ParameterError(
                            f"contrast {spec.label!r} has no explicit effect size and no "
                            f"effect size was given for {label}")
                size = 0  # summed left to right: from Python 3.12 sum() compensates
                for w, label in pairs:
                    size += w * deltas[label]
                if not math.isfinite(size):
                    raise ParameterError(f"contrast {spec.label!r} effect size is not finite")
            sizes.append(size)
    except (ParameterError, RankDeficiencyError) as exc:
        errors = {**dict.fromkeys(range(m), exc), **errors}
        sizes = [math.nan] * len(names)
    if len(errors) == m:
        return names, tuple(sizes), [math.nan] * len(names), [math.nan] * len(names), errors
    # a failed row's variance may be nan or 0; a shift beyond the float range has power 1
    ops = _elementwise(variances[0])
    with ops.errstate(all="ignore"):
        se = [ops.sqrt(var) for var in variances]
        shifts = [abs(size) / s for size, s in zip(sizes, se)]
    crit = _critical_value(effects.alpha)
    power = [[effects.alpha] * m if size == 0 else _two_sided_power(_points(shift), crit)
             for size, shift in zip(sizes, shifts)]
    return names, tuple(sizes), se, power, errors


def design_power(grid: DesignGrid, correlation: CorrelationSpec,
                 effects: EffectSpec) -> PowerResult:
    """Standard errors and Wald power for one design at one parameter point.

    Standard errors come from the closed-form covariance, one point of the
    stack :func:`sweep` solves, on floats.  Every requested effect must be
    estimable in the design; otherwise a :class:`RankDeficiencyError` names
    the offender.
    """
    cs = correlation.cov_entries()
    labels, cov, errors = closed_form_stack(grid, cs.diag, cs.offdiag, additive=effects.additive)
    if not errors:
        names, sizes, se, power, errors = _result_columns(effects, labels, cov, 1)
    if errors:
        raise errors[0]
    rows = tuple(EffectPower(label=label, effect=size, se=s, power=p[0])
                 for label, size, s, p in zip(names, sizes, se, power))
    metadata = {**correlation.describe(), "alpha": effects.alpha,
                "estimable_effects": list(labels)}
    return PowerResult(rows=rows, design_label=grid.label, metadata=metadata)


class SweepTable(Record):
    """Power across a grid of correlation values, one array per column.

    ``labels`` are the result labels in :func:`design_power` order and
    ``effects`` their effect sizes (nan when the design gives no point a
    result).  ``icc`` maps ``"rho_w"`` and the model's second ICC, if any,
    to (K,) arrays: the point's own value, else the template's.  ``se``
    and ``power`` are (K, n) arrays, nan in failed rows; ``errors`` maps
    each failed point's index to the exception :func:`design_power`
    raises there, a rank deficiency's ``effect`` and ``condition`` included.
    A table equals only itself.
    """

    labels: tuple[str, ...]
    effects: tuple[float, ...]
    icc: dict[str, np.ndarray]
    se: np.ndarray
    power: np.ndarray
    errors: dict[int, Exception]

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, labels: tuple[str, ...], effects: tuple[float, ...],
                 icc: dict[str, np.ndarray], se: np.ndarray, power: np.ndarray,
                 errors: dict[int, Exception]) -> None:
        self.__dict__.update(labels=labels, effects=effects, icc=icc, se=se, power=power,
                             errors=errors)


def _icc_columns(points, correlation: CorrelationSpec) -> dict[str, np.ndarray]:
    """The (K,) ICC columns of a sweep grid, a zero as +0.0: ``rho_w``, and
    for a model with a second ICC that ICC, from a (K, 2) grid or the template.

    The grid must be a numeric array-like of ints or floats, of shape
    (K,), or (K, 2) for a model with a second ICC; the spec must hold
    ICCs.  Anything else, a grid holding a bool included, raises
    :class:`ParameterError`.
    """
    import numpy as np

    if correlation.is_raw:
        raise ParameterError("cannot sweep correlations on a raw-component spec")
    second = correlation.model.second_icc
    try:
        values = np.array(points)
    except (TypeError, ValueError, OverflowError):
        values = np.array(None)
    numeric = values.dtype.kind in "fiu"
    if numeric and values.ndim in (1, 2) and not isinstance(points, np.ndarray):
        # numpy reads a Python or numpy bool among numbers as 1 or 0
        cells = itertools.chain.from_iterable([points] if values.ndim == 1 else points)
        numeric = {bool, np.bool_}.isdisjoint(map(type, cells))
    if numeric and values.shape[1:] == (2,) and second is None:
        raise ParameterError("cross-sectional sweep points are single rho_w values")
    if not numeric or values.ndim == 0 or values.shape[1:] not in ((), (2,)):
        pairs = f", or a (K, 2) array-like of (rho_w, {second}) pairs" if second else ""
        raise ParameterError(f"sweep points must be a numeric (K,) array-like of rho_w "
                             f"values{pairs}")
    columns = dict(zip(("rho_w", second), np.atleast_2d(values.T).astype(float) + 0.0))
    if second:
        columns.setdefault(second, np.full(len(values), getattr(correlation, second)))
    return columns


def sweep(grid: DesignGrid, correlation: CorrelationSpec, effects: EffectSpec,
          points=DEFAULT_RHO_GRID) -> SweepTable:
    """Evaluate power across a grid of correlation values.

    ``points`` is a numeric array-like of ints or floats: K rho_w values,
    which keep the template's second ICC, or for the cohort / nested
    exchangeable model K ``(rho_w, pi)`` / ``(rho_w, rho_a)`` pairs.  Any
    other grid, or a raw-component template, raises
    :class:`ParameterError` before any point is solved.  Points outside
    the model's domain are reported in the table's ``errors`` without
    aborting the rest.  All points are solved as one stack, each at its
    own index, and SE and power are computed a column at a time;
    :func:`design_power` is the same computation at one point, and each
    failed point keeps the exception it raises there.
    """
    import numpy as np

    icc = _icc_columns(points, correlation)
    ok, diag, offdiag, errors = cluster_cov_stack(correlation.n_per_period, **icc)
    estimable, cov, solve_errors = closed_form_stack(grid, diag, offdiag,
                                                     additive=effects.additive)
    labels, sizes, se_valid, power_valid, result_errors = _result_columns(
        effects, estimable, cov, len(diag))
    index = np.flatnonzero(ok)
    se = np.full((len(ok), len(labels)), math.nan)
    power = se.copy()
    se[index], power[index] = np.column_stack(se_valid), np.column_stack(power_valid)
    # a point's solver error wins over the errors of its result columns
    errors.update((int(index[j]), exc) for j, exc in {**result_errors, **solve_errors}.items())
    se[list(errors)] = power[list(errors)] = math.nan
    return SweepTable(labels=labels, effects=tuple(map(float, sizes)), icc=icc, se=se,
                      power=power, errors=dict(sorted(errors.items())))
