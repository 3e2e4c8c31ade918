"""Property tests of the batched sweep engine.

``sweep`` solves every point of a grid as one batch from one design
summary.  On a numeric grid it must give, bit for bit, what a loop of
``design_power`` over ``with_icc`` specs gives, including the text and
type of every error; any other grid must raise before any point is solved.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designgen import random_grid
from swedge.covariance import (
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
    cluster_cov_stack,
)
from swedge.designs import DesignGrid, catalog_design, catalog_ids
from swedge.power import ContrastSpec, EffectSpec, design_power, sweep
from swedge.variance import RankDeficiencyError, closed_form_stack

MODELS = tuple(CovarianceModel)
ODD_VALUES = (math.nan, math.inf, -math.inf, -0.1, 0.0, -0.0, 1.0, 1.5, 1e-300)

# ICC values inside the domain, on and beyond its edges, and not finite.
icc_values = st.one_of(st.floats(0.0, 0.99), st.sampled_from(ODD_VALUES))


@st.composite
def grids(draw):
    """Estimable random grids, catalog grids (fig5a's interaction is not
    estimable) and arbitrary code arrays, rank deficient or all control."""
    kind = draw(st.sampled_from(["random", "catalog", "codes"]))
    if kind == "random":
        return random_grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                           max_clusters=8, max_periods=5)
    if kind == "catalog":
        return catalog_design(draw(st.sampled_from(catalog_ids())))
    n_periods = draw(st.integers(2, 5))
    row = st.lists(st.integers(0, 3), min_size=n_periods, max_size=n_periods)
    return DesignGrid(draw(st.lists(row, min_size=1, max_size=6)), label="codes")


@st.composite
def templates(draw):
    model = draw(st.sampled_from(MODELS))
    rho_w = draw(st.floats(0.0, 0.9))
    second = {}
    if model.second_icc == "pi":
        second["pi"] = draw(st.floats(0.0, 1.0))
    elif model.second_icc == "rho_a":
        second["rho_a"] = draw(st.floats(0.0, 1.0)) * rho_w
    return CorrelationSpec(model=model, n_per_period=draw(st.integers(1, 500)),
                           rho_w=rho_w, **second)


@st.composite
def effect_specs(draw):
    additive = draw(st.booleans())
    deltas = {name: draw(st.one_of(st.none(), st.floats(-1.0, 1.0)))
              for name in ("delta1", "delta2", "delta3")}
    if additive:
        deltas["delta3"] = None
    weights = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=1, max_size=3)
    contrasts = tuple(
        ContrastSpec(f"c{k}", tuple(w), effect=draw(st.one_of(st.none(), st.floats(-1.0, 1.0))))
        for k, w in enumerate(draw(st.lists(weights.filter(any), max_size=2)))
    )
    if not contrasts and all(d is None for d in deltas.values()):
        deltas["delta1"] = 0.3
    return EffectSpec(alpha=draw(st.sampled_from([0.01, 0.05, 0.2])), contrasts=contrasts,
                      additive=additive, **deltas)


@st.composite
def numeric_grids(draw, model):
    """Grids ``sweep`` reads: K numbers or, for a model with a second ICC,
    K pairs, as Python, numpy float64 or float32 floats, ints, or a (K,)
    or (K, 2) array."""
    width = 2 if model.second_icc and draw(st.booleans()) else 1
    kind = draw(st.sampled_from(["float", "float64", "float32", "int", "array"]))
    size = draw(st.integers(0, 8)) * width
    if kind == "int":
        values = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    else:
        values = draw(st.lists(icc_values, min_size=size, max_size=size))
        values = [{"float64": np.float64, "float32": np.float32}.get(kind, float)(v)
                  for v in values]
    if kind == "array":
        return np.array(values).reshape(-1, 2) if width == 2 else np.array(values)
    if width == 1:
        return values
    return [draw(st.sampled_from([tuple, list]))(values[k:k + 2])
            for k in range(0, size, 2)]


@st.composite
def malformed_grids(draw, model):
    """Grids ``sweep`` rejects: bools, strings, None, object arrays,
    scalars mixed with pairs, a bare number, other shapes, and pairs under
    the cross-sectional model."""
    kinds = ["bool", "str", "none", "object", "mixed", "scalar", "shape"]
    kind = draw(st.sampled_from(kinds + ([] if model.second_icc else ["pairs"])))
    size = draw(st.integers(1, 6))
    floats = draw(st.lists(icc_values, min_size=size, max_size=size))
    if kind == "bool":
        return draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if kind == "str":
        return [repr(v) for v in floats]
    if kind == "none":
        return floats[:-1] + [None]
    if kind == "object":
        return np.array(floats, dtype=object)
    if kind == "mixed":
        return draw(st.permutations(floats + [(floats[0], floats[0])]))
    if kind == "scalar":
        return floats[0]
    if kind == "pairs":
        return [(v, v) for v in floats]
    shape = draw(st.sampled_from([(size, 1), (size, 3), (size, 2, 2), (1, size, 2)]))
    return np.resize(np.array(floats), shape)


def reference_row(grid, template, effects, point):
    """A point's (iccs, result, error text, error type), one design_power at a time."""
    values = point if isinstance(point, (tuple, list, np.ndarray)) else (point,)
    iccs = {name: float(v) for name, v in zip(("rho_w", template.model.second_icc), values)}
    try:
        return iccs, design_power(grid, template.with_icc(**iccs), effects), None, None
    except (ParameterError, RankDeficiencyError) as exc:
        return iccs, None, str(exc), type(exc)


def bits(x):
    return None if x is None else float(x).hex()


@settings(deadline=None, max_examples=300)
@given(grid=grids(), template=templates(), effects=effect_specs(), data=st.data())
@example(grid=catalog_design("fig5a"),
         template=CorrelationSpec(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=15,
                                  rho_w=0.0),
         effects=EffectSpec(delta1=0.4, delta2=0.4, delta3=0.4), data=None)
def test_batched_sweep_matches_a_design_power_loop(grid, template, effects, data):
    grid_points = [0.1, 0.2, math.nan, 1.5] if data is None \
        else data.draw(numeric_grids(template.model))
    table = sweep(grid, template, effects, points=grid_points)
    second = template.model.second_icc
    assert list(table.icc) == (["rho_w", second] if second else ["rho_w"])
    assert table.se.shape == table.power.shape == (len(grid_points), len(table.labels))
    for k, point in enumerate(grid_points):
        iccs, result, error, error_type = reference_row(grid, template, effects, point)
        values = {"rho_a": template.rho_a, "pi": template.pi, **iccs}
        for name, column in table.icc.items():
            assert bits(column[k]) == bits(values[name])
        if result is None:
            assert table.errors[k] == (error, error_type)
            assert np.isnan(table.se[k]).all() and np.isnan(table.power[k]).all()
            continue
        assert k not in table.errors
        assert table.labels == result.labels()
        assert [bits(r.effect) for r in result.rows] == list(map(bits, table.effects))
        assert [bits(r.se) for r in result.rows] == list(map(bits, table.se[k]))
        assert [bits(r.power) for r in result.rows] == list(map(bits, table.power[k]))


@settings(deadline=None, max_examples=200)
@given(template=templates(), effects=effect_specs(), data=st.data())
def test_any_other_grid_raises_before_solving(template, effects, data):
    grid_points = data.draw(malformed_grids(template.model))
    solver = mock.Mock(side_effect=AssertionError("a malformed grid reached the solver"))
    with mock.patch("swedge.power.cluster_cov_stack", solver), \
            pytest.raises(ParameterError, match="^(sweep points must be|cross-sectional)"):
        sweep(catalog_design("fig2b"), template, effects, points=grid_points)


@settings(deadline=None, max_examples=50)
@given(template=templates(), effects=effect_specs(), data=st.data())
def test_a_raw_component_template_raises_before_solving(template, effects, data):
    raw = CorrelationSpec(model=template.model, n_per_period=template.n_per_period,
                          raw=RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0))
    solver = mock.Mock(side_effect=AssertionError("a raw template reached the solver"))
    with mock.patch("swedge.power.cluster_cov_stack", solver), \
            pytest.raises(ParameterError, match="^cannot sweep correlations on a raw"):
        sweep(catalog_design("fig2b"), raw, effects,
              points=data.draw(numeric_grids(template.model)))


@settings(deadline=None, max_examples=200)
@given(template=templates(), rho_w=st.lists(icc_values, min_size=1, max_size=6),
       second=st.lists(icc_values, min_size=6, max_size=6))
def test_covariance_masks_match_the_scalar_checks(template, rho_w, second):
    model = template.model
    rho_w = [v if isinstance(v, float) else 0.5 for v in rho_w]
    second = [v if isinstance(v, float) else 0.5 for v in second][:len(rho_w)]
    extra = {model.second_icc: np.array(second)} if model.second_icc else {}
    ok, within, between = cluster_cov_stack(model, template.n_per_period,
                                            np.array(rho_w), **extra)
    entries = []
    for k, r in enumerate(rho_w):
        point = {model.second_icc: second[k]} if model.second_icc else {}
        try:
            cs = template.with_icc(rho_w=r, **point).cov_entries()
        except ParameterError:
            assert not ok[k]
            continue
        assert ok[k]
        entries.append((bits(cs.within_variance), bits(cs.between_variance)))
    assert [(bits(c), bits(a)) for c, a in zip(within, between)] == entries


SWAPPED = {"trt1": "trt2", "trt2": "trt1", "interaction": "interaction"}


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), template=templates(), additive=st.booleans(),
       rho_w=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=20))
def test_label_swap_permutes_the_batched_covariance_bit_exactly(seed, template, additive,
                                                                  rho_w):
    grid = random_grid(np.random.default_rng(seed), max_clusters=8, max_periods=5)
    model = template.model
    extra = {model.second_icc: np.full(len(rho_w), getattr(template, model.second_icc))} \
        if model.second_icc else {}
    if model.second_icc == "rho_a":
        extra["rho_a"] = np.minimum(extra["rho_a"], rho_w)
    _, within, between = cluster_cov_stack(model, template.n_per_period, np.array(rho_w),
                                           **extra)
    labels, ok, matrices = closed_form_stack(grid, within, between, additive)
    swapped_labels, swapped_ok, swapped = closed_form_stack(
        grid.swap_treatments(), within, between, additive)
    assert sorted(SWAPPED[label] for label in labels) == sorted(swapped_labels)
    assert np.array_equal(ok, swapped_ok)
    order = [swapped_labels.index(SWAPPED[label]) for label in labels]
    assert swapped[:, order][:, :, order].tobytes() == matrices.tobytes()
