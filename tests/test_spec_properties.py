"""The rules ``EffectSpec`` and ``ContrastSpec`` hold on their own.

Each spec raises ``ParameterError`` exactly when one of its rules is
broken, whatever the other fields hold; a spec that is built keeps what it
was given.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swedge.covariance import ParameterError
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
