"""The rules ``EffectSpec``, ``ContrastSpec`` and ``CorrelationSpec`` hold
on their own.

Each spec raises ``ParameterError`` exactly when one of its rules is
broken, whatever the other fields hold; a spec that is built keeps what it
was given, and a ``CorrelationSpec`` has the entries a sweep gives its point.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swedge.covariance import (
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
    cluster_cov_stack,
)
from swedge.power import ContrastSpec, EffectSpec

EFFECTS = ("trt1", "trt2", "interaction")

# Floats of every kind, not finite ones included.
numbers = st.one_of(
    st.floats(),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324]),
)
# alpha inside (0, 1), on its edges, beyond them, and so small that
# 1 - alpha/2 rounds to 1.
alphas = st.one_of(
    st.floats(0.0, 1.0),
    numbers,
    st.sampled_from([0.05, 1e-17, 2.2e-16, 2.3e-16, 4.5e-16, 1.0 - 1e-16, 1.0, -0.0]),
)
# Mostly valid sizes, so that one broken rule at a time is drawn often.
sizes = st.one_of(st.none(), st.floats(-2.0, 2.0), numbers)


@given(label=st.text(max_size=3), weights=st.lists(numbers, max_size=3),
       effect=st.one_of(st.none(), numbers))
def test_contrast_spec_raises_exactly_when_a_rule_is_broken(label, weights, effect):
    broken = (not label
              or not all(math.isfinite(w) for w in weights)
              or all(w == 0 for w in weights)
              or (effect is not None and not math.isfinite(effect)))
    if broken:
        with pytest.raises(ParameterError):
            ContrastSpec(label=label, weights=tuple(weights), effect=effect)
    else:
        spec = ContrastSpec(label=label, weights=tuple(weights), effect=effect)
        assert (spec.label, spec.weights, spec.effect) == (label, tuple(weights), effect)


@given(alpha=alphas, deltas=st.tuples(sizes, sizes, sizes),
       labels=st.lists(st.sampled_from([*EFFECTS, "c1", "c2", "2"]), max_size=3),
       additive=st.booleans())
@example(alpha=0.05, deltas=(0.1, None, None), labels=["c1", "c1"], additive=False)
@example(alpha=0.05, deltas=(0.1, None, None), labels=["c1", "trt2"], additive=False)
@example(alpha=0.05, deltas=(0.1, 0.2, 0.0), labels=[], additive=True)
@example(alpha=1e-17, deltas=(0.1, None, None), labels=[], additive=False)
@example(alpha=0.05, deltas=(None, None, None), labels=["2"], additive=True)
def test_effect_spec_raises_exactly_when_a_rule_is_broken(alpha, deltas, labels, additive):
    contrasts = tuple(ContrastSpec(label=label, weights=(1.0, -1.0)) for label in labels)
    broken = (not 0.0 < alpha < 1.0
              or 1.0 - alpha / 2.0 == 1.0
              or any(d is not None and not math.isfinite(d) for d in deltas)
              or (deltas == (None, None, None) and not contrasts)
              or (additive and deltas[2] is not None)
              or len(set(labels)) < len(labels)
              or not set(labels).isdisjoint(EFFECTS))
    build = dict(delta1=deltas[0], delta2=deltas[1], delta3=deltas[2], alpha=alpha,
                 contrasts=contrasts, additive=additive)
    if broken:
        with pytest.raises(ParameterError):
            EffectSpec(**build)
    else:
        spec = EffectSpec(**build)
        assert list(spec.deltas().items()) == \
            [(label, d) for label, d in zip(EFFECTS, deltas) if d is not None]


# ICCs inside the domain, on and beyond its edges and not finite, as Python
# floats or numpy float16, float32 or float64 scalars, or absent.
iccs = st.one_of(
    st.none(),
    st.builds(lambda v, read: read(v),
              st.one_of(st.floats(-0.5, 1.5),
                        st.sampled_from([0.0, -0.0, 0.1, 1.0, math.nan, math.inf, -math.inf])),
              st.sampled_from([float, np.float16, np.float32, np.float64])),
)
raw_components = st.one_of(st.none(), st.builds(
    RawComponents, sigma_alpha_sq=st.floats(0.0, 2.0), sigma_e_sq=st.floats(0.1, 2.0),
    sigma_psi_sq=st.sampled_from([0.0, 0.3]), sigma_nu_sq=st.sampled_from([0.0, 0.2])))


def correlation_rule_broken(model, n, rho_w, rho_a, pi, raw):
    """Whether a rule of ``CorrelationSpec`` or of the covariance domain's
    ICC checks fails, each ICC judged at the double of its value."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= sys.float_info.max:
        return True
    if (rho_w is None) == (raw is None):
        return True
    if raw is not None:
        return (rho_a is not None or pi is not None
                or (model is not CovarianceModel.COHORT and raw.sigma_psi_sq != 0)
                or (model is not CovarianceModel.NESTED_EXCHANGEABLE and raw.sigma_nu_sq != 0))
    given = {"rho_a": rho_a, "pi": pi}
    if any((name == model.second_icc) != (value is not None) for name, value in given.items()):
        return True
    return not (0.0 <= float(rho_w) < 1.0
                and (pi is None or 0.0 <= float(pi) <= 1.0)
                and (rho_a is None or 0.0 <= float(rho_a) <= float(rho_w)))


@given(model=st.sampled_from(list(CovarianceModel)),
       n=st.one_of(st.integers(-1, 500), st.sampled_from([True, 15.0, 10**400])),
       rho_w=iccs, rho_a=iccs, pi=iccs, raw=raw_components)
@example(model=CovarianceModel.COHORT, n=15, rho_w=np.float32(0.1), rho_a=None,
         pi=np.float32(1.0), raw=None)  # singular
@example(model=CovarianceModel.NESTED_EXCHANGEABLE, n=15, rho_w=0.1, rho_a=np.float32(0.1),
         pi=None, raw=None)  # rho_a > rho_w in double precision only
def test_correlation_spec_raises_exactly_when_a_rule_is_broken(model, n, rho_w, rho_a, pi,
                                                               raw):
    build = dict(model=model, n_per_period=n, rho_w=rho_w, rho_a=rho_a, pi=pi, raw=raw)
    if correlation_rule_broken(model, n, rho_w, rho_a, pi, raw):
        with pytest.raises(ParameterError):
            CorrelationSpec(**build)
        return
    spec = CorrelationSpec(**build)
    if raw is not None:
        assert spec.raw is raw
        return
    given = {"rho_w": rho_w, "rho_a": rho_a, "pi": pi}
    kept = {name: getattr(spec, name) for name in given}
    assert kept == {name: None if v is None else float(v) for name, v in given.items()}
    assert all(type(v) is float for v in kept.values() if v is not None)
    ok, diag, offdiag, errors = cluster_cov_stack(
        n, **{name: np.array([float(v)]) for name, v in given.items() if v is not None})
    try:
        cs = spec.cov_entries()
    except ParameterError as exc:
        assert not ok[0] and (type(errors[0]), str(errors[0])) == (type(exc), str(exc))
        return
    assert ok[0] and (cs.diag.hex(), cs.offdiag.hex()) == (diag[0].hex(), offdiag[0].hex())
