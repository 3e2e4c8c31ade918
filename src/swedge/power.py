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

from .covariance import CorrelationSpec, CovarianceModel, ParameterError
from .designs import DesignGrid
from .variance import (
    RankDeficiencyError,
    closed_form_covariance,
    contrast_variance,
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
    crit = normal_quantile(1.0 - alpha / 2.0)
    shift = abs(effect) / se
    return normal_cdf(shift - crit) + normal_cdf(-shift - crit)


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
    must be requested.  ``additive`` analyzes the design under assumed
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
        for label, delta in self.deltas().items():
            if not math.isfinite(delta):
                raise ParameterError(f"effect size for {label} must be finite, got {delta}")
        if self.delta1 is None and self.delta2 is None and self.delta3 is None \
                and not self.contrasts:
            raise ParameterError("request at least one effect or contrast")
        if self.additive and self.delta3 is not None:
            raise ParameterError("an additive analysis has no interaction effect to size")

    def deltas(self) -> dict[str, float]:
        """Mapping of effect label to requested effect size."""
        pairs = zip(("trt1", "trt2", "interaction"), (self.delta1, self.delta2, self.delta3))
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
        var = contrast_variance(spec.weights, cov)
        se = float(np.sqrt(var))
        effect = _contrast_effect(spec, cov.labels, deltas)
        rows.append(EffectPower(label=spec.label, effect=effect, se=se,
                                power=wald_power(effect, se, effects.alpha)))
    metadata = correlation.describe()
    metadata["alpha"] = effects.alpha
    metadata["estimable_effects"] = list(cov.labels)
    return PowerResult(
        rows=tuple(rows),
        design_label=grid.label,
        model=correlation.model,
        metadata=metadata,
    )


@dataclass(frozen=True)
class SweepRow:
    """One parameter point of a sweep; exactly one of result/error is set."""

    index: int
    rho_w: float
    rho_a: float | None
    pi: float | None
    result: PowerResult | None
    error: str | None


def _point_iccs(point, model: CovarianceModel) -> dict[str, float]:
    """Named ICC values of a sweep point: ``rho_w``, and for a pair also
    the model's second ICC."""
    if not isinstance(point, (tuple, list)):
        return {"rho_w": _point_float(point)}
    if model.second_icc is None:
        raise ParameterError("cross-sectional sweep points are single rho_w values")
    if len(point) != 2:
        raise ParameterError(f"sweep point {point!r} must have two entries")
    return {"rho_w": _point_float(point[0]), model.second_icc: _point_float(point[1])}


def _point_float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"sweep point entry {value!r} is not a number") from None


def sweep(grid: DesignGrid, correlation: CorrelationSpec, effects: EffectSpec,
          points=DEFAULT_RHO_GRID) -> list[SweepRow]:
    """Evaluate power across a grid of correlation values.

    Each point is a rho_w value, or a ``(rho_w, pi)`` pair for the cohort
    model / ``(rho_w, rho_a)`` pair for the nested exchangeable model.
    Invalid points are reported in their row's ``error`` field without
    aborting the rest; row order follows input order.
    """
    rows = []
    for idx, point in enumerate(points):
        iccs = {"rho_w": math.nan}
        try:
            iccs = _point_iccs(point, correlation.model)
            result = design_power(grid, correlation.with_icc(**iccs), effects)
            error = None
        except (ParameterError, RankDeficiencyError) as exc:
            result, error = None, str(exc)
        # The point's own values, over the template's; rho_w is nan when the
        # point cannot be read.
        values = {"rho_a": correlation.rho_a, "pi": correlation.pi, **iccs}
        rows.append(SweepRow(index=idx, result=result, error=error, **values))
    return rows
