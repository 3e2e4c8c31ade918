"""Covariance models for cluster-period mean outcomes.

Three models are supported: repeated cross-sectional, cohort (closed or
open, via the individual autocorrelation), and nested exchangeable.  Each
model induces a compound-symmetric T x T covariance matrix for the vector
of cluster-period means, so downstream linear algebra only ever needs the
diagonal and off-diagonal entries.  Parameters may be supplied either as
intracluster correlations (standardized scale, total variance 1) or as raw
variance components.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum


class ParameterError(ValueError):
    """Covariance parameters outside their valid domain."""


class SingularCovarianceError(ParameterError):
    """Cluster-period covariance would be singular (diagonal == off-diagonal)."""


class CovarianceModel(Enum):
    CROSS_SECTIONAL = "cs"
    COHORT = "cohort"
    NESTED_EXCHANGEABLE = "nested"

    @classmethod
    def from_string(cls, name: str) -> "CovarianceModel":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "cs": cls.CROSS_SECTIONAL,
            "cross_sectional": cls.CROSS_SECTIONAL,
            "crosssectional": cls.CROSS_SECTIONAL,
            "cohort": cls.COHORT,
            "nested": cls.NESTED_EXCHANGEABLE,
            "nested_exchangeable": cls.NESTED_EXCHANGEABLE,
            "ne": cls.NESTED_EXCHANGEABLE,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ParameterError(f"unknown covariance model {name!r}") from None

    @property
    def second_icc(self) -> str | None:
        """The correlation parameter the model takes besides ``rho_w``:
        ``"pi"`` for cohort, ``"rho_a"`` for nested exchangeable, ``None``
        for cross-sectional."""
        return {"cohort": "pi", "nested": "rho_a"}.get(self.value)


@dataclass(frozen=True)
class RawComponents:
    """Raw variance components of the outcome model.

    ``sigma_psi_sq`` (individual intercept) applies to the cohort model
    only; ``sigma_nu_sq`` (cluster-period intercept) to the nested
    exchangeable model only.  Components that do not apply to the selected
    model must remain zero.
    """

    sigma_alpha_sq: float
    sigma_e_sq: float
    sigma_psi_sq: float = 0.0
    sigma_nu_sq: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_alpha_sq", "sigma_e_sq", "sigma_psi_sq", "sigma_nu_sq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.sigma_e_sq <= 0:
            raise ParameterError("sigma_e_sq must be positive")

    @property
    def total_variance(self) -> float:
        return self.sigma_alpha_sq + self.sigma_psi_sq + self.sigma_nu_sq + self.sigma_e_sq

    def check_model(self, model: CovarianceModel) -> None:
        """Reject components that the selected model does not include."""
        if model is not CovarianceModel.COHORT and self.sigma_psi_sq != 0:
            raise ParameterError(f"sigma_psi_sq applies to the cohort model only, not {model.value}")
        if model is not CovarianceModel.NESTED_EXCHANGEABLE and self.sigma_nu_sq != 0:
            raise ParameterError(
                f"sigma_nu_sq applies to the nested exchangeable model only, not {model.value}"
            )


@dataclass(frozen=True)
class StandardizedParams:
    """Correlation-scale parameters: total outcome variance is 1.

    rho_w is the within-period intracluster correlation.  The cohort model
    adds the individual autocorrelation ``pi``; the nested exchangeable
    model adds the across-period correlation ``rho_a`` (which it requires
    to satisfy rho_a <= rho_w).
    """

    model: CovarianceModel
    rho_w: float
    rho_a: float | None = None
    pi: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho_w < 1.0:
            raise ParameterError(f"rho_w must lie in [0, 1), got {self.rho_w}")
        second = self.model.second_icc
        for name in ("rho_a", "pi"):
            if name == second and getattr(self, name) is None:
                raise ParameterError(f"the {self.model.value} model requires {name}")
            if name != second and getattr(self, name) is not None:
                raise ParameterError(f"{name} does not apply to the {self.model.value} model")
        if self.pi is not None and not 0.0 <= self.pi <= 1.0:
            raise ParameterError(f"pi must lie in [0, 1], got {self.pi}")
        if self.rho_a is not None and not 0.0 <= self.rho_a <= self.rho_w:
            raise ParameterError(
                f"need 0 <= rho_a <= rho_w, got rho_a={self.rho_a}, rho_w={self.rho_w}"
            )

    @property
    def across_period_icc(self) -> float:
        """Correlation between outcomes in the same cluster, different periods."""
        if self.model is CovarianceModel.CROSS_SECTIONAL:
            return self.rho_w
        if self.model is CovarianceModel.COHORT:
            return self.rho_w + self.pi * (1.0 - self.rho_w)
        return self.rho_a


@dataclass(frozen=True)
class CompoundSymmetry:
    """Effective covariance of cluster-period means: constant diagonal and
    off-diagonal.  ``scale`` records the outcome variance the entries are
    expressed against (1.0 when standardized).
    """

    diag: float
    offdiag: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.offdiag < 0:
            raise ParameterError(f"off-diagonal entry must be nonnegative, got {self.offdiag}")
        if self.diag <= self.offdiag:
            raise SingularCovarianceError(
                f"cluster covariance is singular: diagonal {self.diag} <= off-diagonal {self.offdiag}"
            )

    @property
    def within_variance(self) -> float:
        """Effective residual variance (diagonal minus off-diagonal)."""
        return self.diag - self.offdiag

    @property
    def between_variance(self) -> float:
        """Effective cluster-level variance (the off-diagonal entry)."""
        return self.offdiag


def cluster_cov_entries(params: StandardizedParams, n_per_period: int) -> CompoundSymmetry:
    """Compound-symmetry entries of the standardized cluster-mean covariance.

    Parameters
    ----------
    params : StandardizedParams
        Correlation-scale parameters for any of the three models.
    n_per_period : int
        Number of individuals observed per cluster-period.

    Returns
    -------
    CompoundSymmetry
        Diagonal and off-diagonal entries with scale 1.
    """
    if n_per_period < 1:
        raise ParameterError(f"n_per_period must be >= 1, got {n_per_period}")
    n = float(n_per_period)
    diag = params.rho_w + (1.0 - params.rho_w) / n
    if params.model is CovarianceModel.CROSS_SECTIONAL:
        off = params.rho_w
    elif params.model is CovarianceModel.COHORT:
        off = params.rho_w + params.pi * (1.0 - params.rho_w) / n
    else:
        off = params.rho_a
    return CompoundSymmetry(diag=diag, offdiag=off, scale=1.0)


def raw_cov_entries(
    raw: RawComponents, model: CovarianceModel, n_per_period: int
) -> CompoundSymmetry:
    """Compound-symmetry entries in raw outcome-variance units."""
    if n_per_period < 1:
        raise ParameterError(f"n_per_period must be >= 1, got {n_per_period}")
    raw.check_model(model)
    n = float(n_per_period)
    diag = raw.sigma_alpha_sq + raw.sigma_e_sq / n
    off = raw.sigma_alpha_sq
    if model is CovarianceModel.COHORT:
        diag += raw.sigma_psi_sq / n
        off += raw.sigma_psi_sq / n
    elif model is CovarianceModel.NESTED_EXCHANGEABLE:
        diag += raw.sigma_nu_sq
    return CompoundSymmetry(diag=diag, offdiag=off, scale=raw.total_variance)


def standardize(raw: RawComponents, model: CovarianceModel) -> StandardizedParams:
    """Convert raw variance components to correlation-scale parameters."""
    raw.check_model(model)
    total = raw.total_variance
    if total <= 0:
        raise ParameterError("total outcome variance must be positive")
    if model is CovarianceModel.CROSS_SECTIONAL:
        return StandardizedParams(model=model, rho_w=raw.sigma_alpha_sq / total)
    if model is CovarianceModel.COHORT:
        individual = raw.sigma_psi_sq + raw.sigma_e_sq
        return StandardizedParams(
            model=model,
            rho_w=raw.sigma_alpha_sq / total,
            pi=raw.sigma_psi_sq / individual,
        )
    return StandardizedParams(
        model=model,
        rho_w=(raw.sigma_nu_sq + raw.sigma_alpha_sq) / total,
        rho_a=raw.sigma_alpha_sq / total,
    )


def unstandardize(params: StandardizedParams, sigma_y_sq: float) -> RawComponents:
    """Recover raw variance components from correlations and a total variance."""
    if sigma_y_sq <= 0:
        raise ParameterError("sigma_y_sq must be positive")
    model = params.model
    if model is CovarianceModel.CROSS_SECTIONAL:
        return RawComponents(
            sigma_alpha_sq=params.rho_w * sigma_y_sq,
            sigma_e_sq=(1.0 - params.rho_w) * sigma_y_sq,
        )
    if model is CovarianceModel.COHORT:
        psi = params.pi * (1.0 - params.rho_w) * sigma_y_sq
        return RawComponents(
            sigma_alpha_sq=params.rho_w * sigma_y_sq,
            sigma_psi_sq=psi,
            sigma_e_sq=(1.0 - params.rho_w) * (1.0 - params.pi) * sigma_y_sq,
        )
    return RawComponents(
        sigma_alpha_sq=params.rho_a * sigma_y_sq,
        sigma_nu_sq=(params.rho_w - params.rho_a) * sigma_y_sq,
        sigma_e_sq=(1.0 - params.rho_w) * sigma_y_sq,
    )


@dataclass(frozen=True)
class CorrelationSpec:
    """Model selection plus exactly one parameterization and the cell size.

    Either the correlation parameters (``rho_w`` with the model's extras)
    or ``raw`` variance components must be given, never both.
    """

    model: CovarianceModel
    n_per_period: int
    rho_w: float | None = None
    rho_a: float | None = None
    pi: float | None = None
    raw: RawComponents | None = None

    def __post_init__(self) -> None:
        n = self.n_per_period
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ParameterError(f"n_per_period must be an integer, got {n!r}")
        if n < 1:
            raise ParameterError(f"n_per_period must be >= 1, got {n}")
        has_icc = self.rho_w is not None
        has_raw = self.raw is not None
        if has_icc == has_raw:
            raise ParameterError("give exactly one of rho_w (standardized) or raw components")
        if has_raw and (self.rho_a is not None or self.pi is not None):
            raise ParameterError("rho_a / pi cannot be combined with raw components")
        if has_icc:
            self.standardized_params()  # validates domains eagerly
        else:
            self.raw.check_model(self.model)

    @property
    def is_raw(self) -> bool:
        return self.raw is not None

    @property
    def variance_scale(self) -> float:
        """Total outcome variance of the working scale."""
        return self.raw.total_variance if self.is_raw else 1.0

    def standardized_params(self) -> StandardizedParams:
        if self.is_raw:
            return standardize(self.raw, self.model)
        return StandardizedParams(
            model=self.model, rho_w=self.rho_w, rho_a=self.rho_a, pi=self.pi
        )

    def cov_entries(self) -> CompoundSymmetry:
        """Compound-symmetry entries on this spec's working scale."""
        if self.is_raw:
            return raw_cov_entries(self.raw, self.model, self.n_per_period)
        return cluster_cov_entries(self.standardized_params(), self.n_per_period)

    def with_icc(
        self, rho_w: float, rho_a: float | None = None, pi: float | None = None
    ) -> "CorrelationSpec":
        """New spec at different correlation values (sweep support).

        ``rho_a`` and ``pi`` keep this spec's values unless given.
        """
        if self.is_raw:
            raise ParameterError("cannot sweep correlations on a raw-component spec")
        return dataclasses.replace(self, rho_w=rho_w,
                                   rho_a=self.rho_a if rho_a is None else rho_a,
                                   pi=self.pi if pi is None else pi)

    def describe(self) -> dict:
        """Flat parameter dictionary for result metadata."""
        info: dict = {"model": self.model.value, "n_per_period": self.n_per_period}
        if self.is_raw:
            info["sigma_alpha_sq"] = self.raw.sigma_alpha_sq
            info["sigma_e_sq"] = self.raw.sigma_e_sq
            if self.model is CovarianceModel.COHORT:
                info["sigma_psi_sq"] = self.raw.sigma_psi_sq
            if self.model is CovarianceModel.NESTED_EXCHANGEABLE:
                info["sigma_nu_sq"] = self.raw.sigma_nu_sq
            info["sigma_y_sq"] = self.raw.total_variance
        else:
            info["rho_w"] = self.rho_w
            if self.rho_a is not None:
                info["rho_a"] = self.rho_a
            if self.pi is not None:
                info["pi"] = self.pi
        return info
