"""Covariance models for cluster-period mean outcomes.

Three models are supported: repeated cross-sectional, cohort (closed or
open, via the individual autocorrelation), and nested exchangeable.  Each
model induces a compound-symmetric T x T covariance matrix for the vector
of cluster-period means, so downstream linear algebra only ever needs the
diagonal and off-diagonal entries.  A :class:`CorrelationSpec` holds the
parameters, either as intracluster correlations (standardized scale, total
variance 1) or as raw variance components.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace


class ParameterError(ValueError):
    """Covariance parameters outside their valid domain."""


class SingularCovarianceError(ParameterError):
    """Cluster-period covariance would be singular (diagonal == off-diagonal)."""


def _read_float(value):
    """A real number ``value`` as a Python float, so that numpy float32 and
    float16 values are checked and solved in double precision, as a sweep
    reads them; anything else, a string say, as it is, to fail as it did."""
    if type(value) is not float and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range, which the checks reject
            pass
    return value


def _read_floats(obj, names) -> None:
    """Store each of the fields ``names`` of the frozen ``obj`` as
    :func:`_read_float` reads it, before it is checked."""
    for name in names:
        object.__setattr__(obj, name, _read_float(getattr(obj, name)))


class CovarianceModel(Enum):
    CROSS_SECTIONAL = "cs"
    COHORT = "cohort"
    NESTED_EXCHANGEABLE = "nested"

    @classmethod
    def from_string(cls, name: str) -> "CovarianceModel":
        """The model whose value is ``name``: ``cs``, ``cohort`` or ``nested``."""
        try:
            return cls(name)
        except ValueError:
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
        names = ("sigma_alpha_sq", "sigma_e_sq", "sigma_psi_sq", "sigma_nu_sq")
        _read_floats(self, names)
        for name in names:
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


#: The covariance domain, in the order it is checked: a :class:`CorrelationSpec`
#: checks rho_w before it matches its ICCs to the model and its second ICC
#: after, a :class:`CompoundSymmetry` its entries.  Each check is a comparison
#: of the values ``v``, true where they fail it, that Python floats and numpy
#: arrays answer alike (``x != x`` holds for nan only; ``x * 0.0`` is 0 unless
#: x is nan or infinite; an absent ICC passes), and the error it raises there.
DOMAIN = (
    (lambda v: (v.rho_w != v.rho_w) | (v.rho_w < 0.0) | (v.rho_w >= 1.0),
     ParameterError, "rho_w must lie in [0, 1), got {rho_w}"),
    (lambda v: v.pi is not None and (v.pi != v.pi) | (v.pi < 0.0) | (v.pi > 1.0),
     ParameterError, "pi must lie in [0, 1], got {pi}"),
    (lambda v: v.rho_a is not None
     and (v.rho_a != v.rho_a) | (v.rho_a < 0.0) | (v.rho_a > v.rho_w),
     ParameterError, "need 0 <= rho_a <= rho_w, got rho_a={rho_a}, rho_w={rho_w}"),
    (lambda v: v.offdiag < 0.0,
     ParameterError, "off-diagonal entry must be nonnegative, got {offdiag}"),
    (lambda v: v.diag <= v.offdiag, SingularCovarianceError,
     "cluster covariance is singular: diagonal {diag} <= off-diagonal {offdiag}"),
    (lambda v: v.diag * 0.0 + v.offdiag * 0.0 != 0.0, ParameterError,
     "cluster covariance entries must be finite, got diagonal {diag}, off-diagonal {offdiag}"),
)
_RHO_W, _SECOND_ICC, _ENTRIES = DOMAIN[:1], DOMAIN[1:3], DOMAIN[3:]


def _raise_first(v, checks) -> None:
    """Raise the error of the first of ``checks`` that the values ``v`` fail."""
    for fails, error, template in checks:
        if fails(v):
            raise error(template.format_map(vars(v)))


@dataclass(frozen=True)
class CompoundSymmetry:
    """Effective covariance of cluster-period means: constant diagonal and
    off-diagonal."""

    diag: float
    offdiag: float

    def __post_init__(self) -> None:
        _read_floats(self, ("diag", "offdiag"))
        _raise_first(self, _ENTRIES)


def _entries(model: CovarianceModel, n: float, rho_w, rho_a=None, pi=None):
    """Diagonal and off-diagonal of the standardized cluster-mean covariance.

    Plain arithmetic, so floats and numpy arrays of ICCs give the same
    values entry by entry.
    """
    diag = rho_w + (1.0 - rho_w) / n
    if model is CovarianceModel.CROSS_SECTIONAL:
        return diag, rho_w
    if model is CovarianceModel.COHORT:
        return diag, rho_w + pi * (1.0 - rho_w) / n
    return diag, rho_a


def cluster_cov_stack(model: CovarianceModel, n_per_period: int, rho_w,
                      rho_a=None, pi=None):
    """:meth:`CorrelationSpec.cov_entries` over numpy arrays of ICCs, one
    entry per point.

    ``rho_w`` and the model's second ICC are arrays of one shape.  Returns
    ``(ok, diag, offdiag, errors)``: a mask of the points that pass every
    :data:`DOMAIN` check, the entries of those points, in order, with the
    bits the scalar objects hold, and a map from each other point's index
    to the error of the first check it fails, the one they raise there.
    """
    import numpy as np

    ok, errors = np.ones(rho_w.shape, bool), {}
    with np.errstate(invalid="ignore", over="ignore"):  # entries of points outside the domain
        diag, offdiag = _entries(model, float(n_per_period), rho_w, rho_a=rho_a, pi=pi)
        v = SimpleNamespace(rho_w=rho_w, rho_a=rho_a, pi=pi, diag=diag, offdiag=offdiag)
        for fails, error, template in DOMAIN:
            for k in np.flatnonzero(ok & fails(v)).tolist():
                ok[k] = False
                point = {n: float(a[k]) for n, a in vars(v).items() if a is not None}
                errors[k] = error(template.format_map(point))
    return ok, diag[ok], offdiag[ok], errors


def standardize(raw: RawComponents, model: CovarianceModel) -> dict[str, float]:
    """The ICCs of raw variance components, as :class:`CorrelationSpec`
    keywords: ``CorrelationSpec(model=m, n_per_period=n, **standardize(raw, m))``."""
    raw.check_model(model)
    total = raw.total_variance
    if model is CovarianceModel.CROSS_SECTIONAL:
        return {"rho_w": raw.sigma_alpha_sq / total}
    if model is CovarianceModel.COHORT:
        return {"rho_w": raw.sigma_alpha_sq / total,
                "pi": raw.sigma_psi_sq / (raw.sigma_psi_sq + raw.sigma_e_sq)}
    return {"rho_w": (raw.sigma_nu_sq + raw.sigma_alpha_sq) / total,
            "rho_a": raw.sigma_alpha_sq / total}


@dataclass(frozen=True)
class CorrelationSpec:
    """Model selection plus exactly one parameterization and the cell size.

    Either the correlation parameters or ``raw`` variance components must
    be given, never both.  The correlations are on the standardized scale
    (total outcome variance 1): the within-period ICC ``rho_w``, plus the
    individual autocorrelation ``pi`` for the cohort model or the
    across-period ICC ``rho_a`` (at most ``rho_w``) for the nested
    exchangeable model.
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
        try:
            float(n)
        except OverflowError:
            raise ParameterError("n_per_period is too large to represent as a float") from None
        has_icc = self.rho_w is not None
        has_raw = self.raw is not None
        if has_icc == has_raw:
            raise ParameterError("give exactly one of rho_w (standardized) or raw components")
        if has_raw and (self.rho_a is not None or self.pi is not None):
            raise ParameterError("rho_a / pi cannot be combined with raw components")
        if has_raw:
            self.raw.check_model(self.model)
            return
        _read_floats(self, ("rho_w", "rho_a", "pi"))
        _raise_first(self, _RHO_W)
        second = self.model.second_icc
        for name in ("rho_a", "pi"):
            if name == second and getattr(self, name) is None:
                raise ParameterError(f"the {self.model.value} model requires {name}")
            if name != second and getattr(self, name) is not None:
                raise ParameterError(f"{name} does not apply to the {self.model.value} model")
        _raise_first(self, _SECOND_ICC)

    @property
    def is_raw(self) -> bool:
        return self.raw is not None

    def cov_entries(self) -> CompoundSymmetry:
        """Compound-symmetry entries of the cluster-mean covariance, in raw
        outcome-variance units for raw components."""
        n = float(self.n_per_period)
        if not self.is_raw:
            diag, off = _entries(self.model, n, self.rho_w, rho_a=self.rho_a, pi=self.pi)
            return CompoundSymmetry(diag=diag, offdiag=off)
        raw = self.raw
        diag = raw.sigma_alpha_sq + raw.sigma_e_sq / n
        off = raw.sigma_alpha_sq
        if self.model is CovarianceModel.COHORT:
            diag += raw.sigma_psi_sq / n
            off += raw.sigma_psi_sq / n
        elif self.model is CovarianceModel.NESTED_EXCHANGEABLE:
            diag += raw.sigma_nu_sq
        return CompoundSymmetry(diag=diag, offdiag=off)

    def with_icc(
        self, rho_w: float, rho_a: float | None = None, pi: float | None = None
    ) -> "CorrelationSpec":
        """New spec at different correlation values.

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
