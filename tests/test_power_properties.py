"""Contract test of ``design_power`` over its whole input domain.

Any grid, correlation spec and effect request either gives, for every
result row, a finite standard error above 0 and a power in [alpha, 1], or
raises ``ParameterError`` or ``RankDeficiencyError``.  The lower bound on
power allows for the rounding of the two-tail sum: ``wald_power(1e-300,
1, alpha)`` is alpha - 8.3e-17 at alpha = 0.2 and alpha - 1.1e-16 at
alpha = 0.9.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designgen import random_grid
from swedge.covariance import CorrelationSpec, CovarianceModel, ParameterError
from swedge.designs import catalog_design
from swedge.power import ContrastSpec, EffectSpec, design_power
from swedge.variance import RankDeficiencyError, active_effects

POWER_MARGIN = 1e-15

# ICC values inside the domain (two times in three), on and beyond its
# edges, and not finite.
icc_values = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.1, -0.0, 1.0, 1.5, 1e-300,
                     0.999999999999]),
)

# Zero, or a magnitude from 1e-300 to 1e300 with either sign.
sizes = st.one_of(
    st.just(0.0),
    st.builds(lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
              st.floats(1.0, 9.99), st.integers(-300, 299), st.sampled_from([1.0, -1.0])),
)


@st.composite
def correlations(draw):
    """Keywords of a correlation spec: all three models, any ICC values."""
    model = draw(st.sampled_from(tuple(CovarianceModel)))
    rho_w = draw(icc_values)
    # rho_a is often a share of rho_w, which keeps it in the domain
    shares = st.floats(0.0, 1.0).map(lambda share: share * rho_w)
    second = {model.second_icc: draw(st.one_of(icc_values, shares))} if model.second_icc \
        else {}
    return dict(model=model, n_per_period=draw(st.integers(1, 10**6)), rho_w=rho_w, **second)


@st.composite
def effect_requests(draw, labels):
    """Keywords of an effect spec whose sizes and contrast weights span
    1e-300 to 1e300 and 0; a contrast has one weight per estimable effect,
    or one too many."""
    additive = draw(st.booleans())
    width = len(labels) - (additive and "interaction" in labels)
    deltas = {name: draw(st.one_of(st.none(), sizes))
              for name, label in zip(("delta1", "delta2", "delta3"),
                                     ("trt1", "trt2", "interaction"))
              if label in labels and not (additive and label == "interaction")}
    extra = draw(st.sampled_from([0, 0, 0, 1]))
    weights = st.lists(sizes, min_size=width + extra, max_size=width + extra)
    contrasts = tuple(
        ContrastSpec(f"c{k}", tuple(w), effect=draw(st.one_of(st.none(), sizes)))
        for k, w in enumerate(draw(st.lists(weights.filter(any), max_size=2)))
    )
    if not contrasts and all(delta is None for delta in deltas.values()):
        deltas[next(iter(deltas))] = draw(sizes)
    alpha = draw(st.one_of(st.floats(0.001, 0.999),
                           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           st.sampled_from([1e-300, 1e-16, 3e-16, 0.05, 0.9, 1.0 - 1e-16])))
    return dict(alpha=alpha, additive=additive, contrasts=contrasts, **deltas)


@settings(deadline=None, max_examples=500)
@given(seed=st.integers(0, 2**32 - 1), correlation=correlations(), data=st.data())
@example(seed=0, correlation=dict(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=15,
                                  rho_w=0.1),
         data=None)
def test_design_power_gives_bounded_power_or_a_domain_error(seed, correlation, data):
    if data is None:  # a contrast variance that underflows to 0
        grid = catalog_design("fig2b")
        request = dict(delta1=0.4, contrasts=(ContrastSpec("c", (1e-200, 0.0), effect=0.3),))
    else:
        grid = random_grid(np.random.default_rng(seed), max_clusters=8, max_periods=5)
        request = data.draw(effect_requests(active_effects(grid)))
    try:
        effects = EffectSpec(**request)
        result = design_power(grid, CorrelationSpec(**correlation), effects)
    except (ParameterError, RankDeficiencyError):
        return
    assert result.rows
    for row in result.rows:
        assert math.isfinite(row.se) and row.se > 0.0, row
        assert effects.alpha - POWER_MARGIN <= row.power <= 1.0, row
