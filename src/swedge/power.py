"""Wald-test power for treatment, interaction, and contrast effects.

Power uses the standard normal approximation to the Wald statistic: both
rejection tails are included, so a zero effect gives back exactly the
type I error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .covariance import CorrelationSpec, CovarianceModel, ParameterError, cluster_cov_stack
from .designs import DesignGrid
from .variance import (
    EFFECT_LABELS,
    RankDeficiencyError,
    closed_form_covariance,
    closed_form_stack,
    contrast_variance,
    quadratic_form,
)

#: Default within-period ICC sweep grid: 0.001 through 0.300 in 0.001 steps.
DEFAULT_RHO_GRID = tuple(round(0.001 * k, 3) for k in range(1, 301))

_STANDARD_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF.

    Near the centre and in the upper tail it is accurate to a few ulps.  In
    the lower tail the rounding of ``-x / sqrt(2)`` is amplified by erfc's
    conditioning, to about 4e-13 relative for x near -37.5.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for ``0 < p < 1``."""
    return _STANDARD_NORMAL.inv_cdf(p)


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
    """
    if not math.isfinite(effect):
        raise ValueError(f"effect must be finite, got {effect}")
    if not math.isfinite(se):
        raise ValueError(f"standard error must be finite, got {se}")
    if se <= 0:
        raise ValueError(f"standard error must be positive, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if effect == 0:
        return alpha
    return _two_sided_power([abs(effect) / se], normal_quantile(1.0 - alpha / 2.0))[0]


def _two_sided_power(shifts: list[float], crit: float) -> list[float]:
    """Power of the two-sided test with critical value ``crit`` for each
    statistic centred at a shift = |effect| / se.

    Each value is ``normal_cdf(shift - crit) + normal_cdf(-shift - crit)``
    written out, with the same bits.
    """
    root2 = math.sqrt(2.0)
    return [0.5 * math.erfc((crit - shift) / root2) + 0.5 * math.erfc((shift + crit) / root2)
            for shift in shifts]


@dataclass(frozen=True)
class ContrastSpec:
    """A weighted comparison of effect estimates.

    ``weights`` must match the dimension of the design's estimable effect
    set.  ``effect`` is the detectable difference; when omitted it is the
    weighted combination of the main effect sizes.
    """

    label: str
    weights: tuple[float, ...]
    effect: float | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ParameterError("contrast needs a label")
        if not all(math.isfinite(w) for w in self.weights):
            raise ParameterError(f"contrast {self.label!r} weights must be finite")
        if not any(self.weights):
            raise ParameterError("contrast weights must not all be zero")
        if self.effect is not None and not math.isfinite(self.effect):
            raise ParameterError(f"contrast {self.label!r} effect must be finite")


@dataclass(frozen=True)
class EffectSpec:
    """Effect sizes, significance level, and requested contrasts.

    ``delta1``/``delta2``/``delta3`` are effect sizes for treatment 1,
    treatment 2 and their interaction, in outcome standard deviations when
    the correlation spec is standardized (raw effect units otherwise).
    Leave an entry ``None`` to skip it; at least one effect or contrast
    must be requested, and each contrast needs a label of its own, none of
    the effect labels.  ``additive`` analyzes the design under assumed
    additive treatment effects, dropping the interaction column from the
    model entirely.
    """

    delta1: float | None = None
    delta2: float | None = None
    delta3: float | None = None
    alpha: float = 0.05
    contrasts: tuple[ContrastSpec, ...] = ()
    additive: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise ParameterError(f"alpha {self.alpha:g} is too small: 1 - alpha/2 rounds to 1, "
                                 "which has no normal quantile")
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


@dataclass(frozen=True)
class EffectPower:
    label: str
    effect: float
    se: float
    power: float


@dataclass(frozen=True)
class PowerResult:
    """Per-effect standard errors and power, with run metadata."""

    rows: tuple[EffectPower, ...]
    design_label: str
    model: CovarianceModel
    metadata: dict = field(compare=False)

    def row(self, label: str) -> EffectPower:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no result row for {label!r}")

    def power(self, label: str) -> float:
        return self.row(label).power

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)


def _contrast_effect(spec: ContrastSpec, labels: tuple[str, ...],
                     deltas: dict[str, float]) -> float:
    if spec.effect is not None:
        return spec.effect
    total = 0.0
    for weight, label in zip(spec.weights, labels):
        if weight == 0:
            continue
        if label not in deltas:
            raise ParameterError(
                f"contrast {spec.label!r} has no explicit effect size and no "
                f"effect size was given for {label}"
            )
        total += weight * deltas[label]
    if not math.isfinite(total):
        raise ParameterError(f"contrast {spec.label!r} effect size is not finite")
    return total


def design_power(grid: DesignGrid, correlation: CorrelationSpec,
                 effects: EffectSpec) -> PowerResult:
    """Standard errors and Wald power for one design at one parameter point.

    Standard errors come from the closed-form covariance.  Every requested
    effect must be estimable in the design; otherwise a
    :class:`RankDeficiencyError` names the offender.
    """
    cov = closed_form_covariance(grid, correlation.cov_entries(),
                                 additive=effects.additive)
    deltas = effects.deltas()
    rows = []
    for label, delta in deltas.items():
        if label not in cov.labels:
            raise RankDeficiencyError(
                "effect size requested for an effect the design cannot estimate",
                effect=label,
            )
        se = cov.se(label)
        rows.append(EffectPower(label=label, effect=delta, se=se,
                                power=wald_power(delta, se, effects.alpha)))
    for spec in effects.contrasts:
        se = float(np.sqrt(contrast_variance(spec.weights, cov)))
        effect = _contrast_effect(spec, cov.labels, deltas)
        rows.append(EffectPower(label=spec.label, effect=effect, se=se,
                                power=wald_power(effect, se, effects.alpha)))
    metadata = {**correlation.describe(), "alpha": effects.alpha,
                "estimable_effects": list(cov.labels)}
    return PowerResult(rows=tuple(rows), design_label=grid.label, model=correlation.model,
                       metadata=metadata)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Power across a grid of correlation values, one array per column.

    ``labels`` are the result labels in :func:`design_power` order and
    ``effects`` their effect sizes (nan when the design gives no point a
    result).  ``icc`` maps ``"rho_w"`` and the model's second ICC, if any,
    to (K,) arrays: the point's own value, else the template's.  ``se``
    and ``power`` are (K, n) arrays, nan in failed rows; ``errors`` maps
    the index of each failed point to the text and class of its
    :func:`design_power` error.
    """

    labels: tuple[str, ...]
    effects: tuple[float, ...]
    icc: dict[str, np.ndarray]
    se: np.ndarray
    power: np.ndarray
    errors: dict[int, tuple[str, type[Exception]]]


def _icc_columns(points, correlation: CorrelationSpec) -> dict[str, np.ndarray]:
    """The (K,) ICC columns a sweep grid gives: ``rho_w``, and for a
    (K, 2) grid also the model's second ICC.

    The grid must be a numeric array-like of ints or floats, of shape
    (K,), or (K, 2) for a model with a second ICC; the spec must hold
    ICCs.  Anything else raises :class:`ParameterError`.
    """
    if correlation.is_raw:
        raise ParameterError("cannot sweep correlations on a raw-component spec")
    second = correlation.model.second_icc
    try:
        values = np.array(points)
    except (TypeError, ValueError, OverflowError):
        values = np.array(None)
    numeric = values.dtype.kind in "fiu"
    if numeric and values.shape[1:] == (2,) and second is None:
        raise ParameterError("cross-sectional sweep points are single rho_w values")
    if not numeric or values.ndim == 0 or values.shape[1:] not in ((), (2,)):
        pairs = f", or a (K, 2) array-like of (rho_w, {second}) pairs" if second else ""
        raise ParameterError(f"sweep points must be a numeric (K,) array-like of rho_w "
                             f"values{pairs}")
    return dict(zip(("rho_w", second), np.atleast_2d(values.T).astype(float)))


def _batch_columns(effects: EffectSpec, labels: tuple[str, ...], matrices: np.ndarray):
    """Effect sizes and (m, n) variances of the result columns from m
    covariance matrices of ``labels``; None if the design cannot give them."""
    deltas = effects.deltas()
    if any(label not in labels for label in deltas) \
            or any(len(spec.weights) != len(labels) for spec in effects.contrasts):
        return None
    try:
        sizes = [*deltas.values(),
                 *(_contrast_effect(spec, labels, deltas) for spec in effects.contrasts)]
    except ParameterError:
        return None
    columns = [matrices[:, i, i] for i in map(labels.index, deltas)]
    columns += [quadratic_form(np.array(spec.weights, dtype=float), matrices)
                for spec in effects.contrasts]
    return np.array(sizes), np.stack(columns, axis=-1)


def sweep(grid: DesignGrid, correlation: CorrelationSpec, effects: EffectSpec,
          points=DEFAULT_RHO_GRID) -> SweepTable:
    """Evaluate power across a grid of correlation values.

    ``points`` is a numeric array-like of ints or floats: K rho_w values,
    which keep the template's second ICC, or for the cohort / nested
    exchangeable model K ``(rho_w, pi)`` / ``(rho_w, rho_a)`` pairs.  Any
    other grid, or a raw-component template, raises
    :class:`ParameterError` before any point is solved.  Points outside
    the model's domain are reported in the table's ``errors`` without
    aborting the rest.  All points are solved as one batch from one
    summary of the design, and SE and power are computed a column at a
    time.  A point the batch cannot finish goes through
    :func:`design_power`, which raises the error the table reports for it.
    """
    model = correlation.model
    given = _icc_columns(points, correlation)
    count = len(given["rho_w"])
    icc = {"rho_w": given["rho_w"]}
    if model.second_icc:
        icc[model.second_icc] = given.get(model.second_icc,
                                          np.full(count, getattr(correlation, model.second_icc)))
    valid, sig_c, sig_a = cluster_cov_stack(model, correlation.n_per_period, **icc)
    estimable, solved, matrices = closed_form_stack(grid, sig_c, sig_a,
                                                    additive=effects.additive)
    labels = (*effects.deltas(), *(spec.label for spec in effects.contrasts))
    se = np.full((count, len(labels)), math.nan)
    power = se.copy()
    batch = _batch_columns(effects, estimable, matrices)
    sizes, variances = batch or (np.full(len(labels), math.nan), None)
    if variances is not None:
        with np.errstate(invalid="ignore"):
            root = np.sqrt(variances)
            finished = np.isfinite(root).all(axis=1) & (root > 0.0).all(axis=1)
        rows = np.flatnonzero(valid)[solved][finished]
        se[rows] = root[finished]
        crit = normal_quantile(1.0 - effects.alpha / 2.0)
        for j, (size, shifts) in enumerate(zip(sizes.tolist(), (abs(sizes) / se[rows]).T)):
            power[rows, j] = effects.alpha if size == 0 else \
                _two_sided_power(shifts.tolist(), crit)

    errors = {}
    failed = np.flatnonzero(np.isnan(se[:, 0]))
    for k, *values in zip(failed.tolist(), *(col[failed].tolist() for col in given.values())):
        try:
            result = design_power(grid, correlation.with_icc(**dict(zip(given, values))),
                                  effects)
        except (ParameterError, RankDeficiencyError) as exc:
            errors[k] = (str(exc), type(exc))
            continue
        se[k] = [r.se for r in result.rows]
        power[k] = [r.power for r in result.rows]
    return SweepTable(labels=labels, effects=tuple(sizes.tolist()), icc=icc, se=se,
                      power=power, errors=errors)
