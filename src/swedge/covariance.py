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

import math
import numbers
import sys
from enum import Enum
from types import SimpleNamespace

from ._record import Record


class ParameterError(ValueError):
    """Covariance parameters outside their valid domain."""


class SingularCovarianceError(ParameterError):
    """Cluster-period covariance would be singular (diagonal == off-diagonal)."""


def _read_float(value):
    """A real number ``value`` as a Python float, so that numpy float32 and
    float16 values are checked and solved in double precision, as a sweep
    reads them; a Python or numpy bool, which a sweep grid rejects too,
    raises :class:`ParameterError`; anything else, a string say, is kept
    as it is, to fail as it did."""
    np = sys.modules.get("numpy")  # an input holds a numpy bool only once numpy is loaded
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        raise ParameterError(f"a bool is not a number, got {value!r}")
    if type(value) is not float and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range, which the checks reject
            pass
    return value


#: What the cohort and nested exchangeable models add to the cross-sectional
#: one, by model name: the ICC besides ``rho_w``, the raw variance component,
#: and the model's name in messages.
_EXTRAS = {"cohort": ("pi", "sigma_psi_sq", "cohort"),
           "nested": ("rho_a", "sigma_nu_sq", "nested exchangeable")}


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
        """The correlation parameter the model takes besides ``rho_w``, as
        :data:`_EXTRAS` names it; ``None`` for cross-sectional."""
        return _EXTRAS.get(self.value, (None,))[0]


class RawComponents(Record):
    """Raw variance components of the outcome model.

    ``sigma_psi_sq`` (individual intercept) applies to the cohort model
    only; ``sigma_nu_sq`` (cluster-period intercept) to the nested
    exchangeable model only.  :meth:`check_model` holds the components a
    model does not include at zero, and :meth:`CorrelationSpec.cov_entries`
    relies on this: it adds every component under every model.
    """

    sigma_alpha_sq: float
    sigma_e_sq: float
    sigma_psi_sq: float
    sigma_nu_sq: float

    def __init__(self, sigma_alpha_sq: float, sigma_e_sq: float, sigma_psi_sq: float = 0.0,
                 sigma_nu_sq: float = 0.0) -> None:
        self.__dict__.update(sigma_alpha_sq=_read_float(sigma_alpha_sq),
                             sigma_e_sq=_read_float(sigma_e_sq),
                             sigma_psi_sq=_read_float(sigma_psi_sq),
                             sigma_nu_sq=_read_float(sigma_nu_sq))
        for name, value in vars(self).items():
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
        for value, (_, component, name) in _EXTRAS.items():
            if value != model.value and getattr(self, component) != 0:
                raise ParameterError(
                    f"{component} applies to the {name} model only, not {model.value}")


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


class CompoundSymmetry(Record):
    """Effective covariance of cluster-period means: constant diagonal and
    off-diagonal."""

    diag: float
    offdiag: float

    def __init__(self, diag: float, offdiag: float) -> None:
        self.__dict__.update(diag=_read_float(diag), offdiag=_read_float(offdiag))
        _raise_first(self, _ENTRIES)


def _entries(n: float, rho_w, rho_a=None, pi=None):
    """Diagonal and off-diagonal of the standardized cluster-mean covariance.

    The model is read from the second ICC given: ``pi`` for cohort,
    ``rho_a`` for nested exchangeable, neither for cross-sectional.  Plain
    arithmetic, so floats and numpy arrays of ICCs give the same values
    entry by entry.
    """
    diag = rho_w + (1.0 - rho_w) / n
    if pi is not None:
        return diag, rho_w + pi * (1.0 - rho_w) / n
    return diag, rho_w if rho_a is None else rho_a


def cluster_cov_stack(n_per_period: int, rho_w, rho_a=None, pi=None):
    """:meth:`CorrelationSpec.cov_entries` over numpy arrays of ICCs, one
    entry per point.

    ``rho_w`` and the second ICC, if the model has one, are arrays of one
    shape; the model is read from the second ICC given, as in
    :func:`_entries`.  Returns ``(ok, diag, offdiag, errors)``: a mask of
    the points that pass every :data:`DOMAIN` check, the entries of those
    points, in order, with the bits the scalar objects hold, and a map from
    each other point's index to the error of the first check it fails, the
    one they raise there.
    """
    import numpy as np

    ok, errors = np.ones(rho_w.shape, bool), {}
    with np.errstate(invalid="ignore", over="ignore"):  # entries of points outside the domain
        diag, offdiag = _entries(float(n_per_period), rho_w, rho_a=rho_a, pi=pi)
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
    raw.check_model(model)  # a component the model lacks is zero
    total = raw.total_variance
    icc = {"rho_w": (raw.sigma_nu_sq + raw.sigma_alpha_sq) / total,
           "rho_a": raw.sigma_alpha_sq / total,
           "pi": raw.sigma_psi_sq / (raw.sigma_psi_sq + raw.sigma_e_sq)}
    return {name: icc[name] for name in ("rho_w", model.second_icc) if name}


class CorrelationSpec(Record):
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
    rho_w: float | None
    rho_a: float | None
    pi: float | None
    raw: RawComponents | None

    def __init__(self, model: CovarianceModel, n_per_period: int, rho_w: float | None = None,
                 rho_a: float | None = None, pi: float | None = None,
                 raw: RawComponents | None = None) -> None:
        self.__dict__.update(model=model, n_per_period=n_per_period, rho_w=_read_float(rho_w),
                             rho_a=_read_float(rho_a), pi=_read_float(pi), raw=raw)
        if not isinstance(model, CovarianceModel):
            raise ParameterError(f"model must be a CovarianceModel, got {model!r}; "
                                 "CovarianceModel.from_string reads a name")
        n = n_per_period
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
        raw = self.raw
        if raw is None:
            diag, off = _entries(n, self.rho_w, rho_a=self.rho_a, pi=self.pi)
        else:  # a component the model lacks is zero
            diag = raw.sigma_alpha_sq + raw.sigma_e_sq / n + raw.sigma_psi_sq / n + raw.sigma_nu_sq
            off = raw.sigma_alpha_sq + raw.sigma_psi_sq / n
        return CompoundSymmetry(diag=diag, offdiag=off)

    def with_icc(
        self, rho_w: float, rho_a: float | None = None, pi: float | None = None
    ) -> "CorrelationSpec":
        """New spec at different correlation values.

        ``rho_a`` and ``pi`` keep this spec's values unless given.
        """
        if self.is_raw:
            raise ParameterError("cannot sweep correlations on a raw-component spec")
        return CorrelationSpec(self.model, self.n_per_period, rho_w,
                               self.rho_a if rho_a is None else rho_a,
                               self.pi if pi is None else pi)

    def describe(self) -> dict:
        """Flat parameter dictionary for result metadata."""
        info: dict = {"model": self.model.value, "n_per_period": self.n_per_period}
        icc, component, _ = _EXTRAS.get(self.model.value, (None, None, None))
        if self.is_raw:
            for name in filter(None, ("sigma_alpha_sq", "sigma_e_sq", component)):
                info[name] = getattr(self.raw, name)
            info["sigma_y_sq"] = self.raw.total_variance
        else:
            for name in filter(None, ("rho_w", icc)):
                info[name] = getattr(self, name)
        return info
