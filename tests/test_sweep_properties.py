"""Property tests of the batched sweep engine.

``sweep`` solves every point of a grid as one batch from one design
summary.  It must give, bit for bit, what a loop of ``design_power`` over
``with_icc`` specs gives, including the text and type of every error.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designgen import random_grid
from swedge.covariance import (
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    cluster_cov_stack,
)
from swedge.designs import DesignGrid, catalog_design, catalog_ids
from swedge.power import ContrastSpec, EffectSpec, design_power, sweep
from swedge.variance import RankDeficiencyError, closed_form_stack

MODELS = tuple(CovarianceModel)
ODD_VALUES = (math.nan, math.inf, -math.inf, -0.1, 0.0, -0.0, 1.0, 1.5, 1e-300, "x", None)

# ICC values inside the domain, on and beyond its edges, not finite and not numbers.
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


# A point is one value or a pair; a pair is an error under the
# cross-sectional model.
points = st.lists(st.one_of(icc_values, st.tuples(icc_values, icc_values)), max_size=8)


@st.composite
def typed_grids(draw):
    """Grids one array call reads (numpy and Python floats, ints, pairs, (K,)
    and (K, 2) arrays) and grids left to the per-point reader (bools,
    numeric strings, mixed scalars and pairs, (K, 3) arrays)."""
    kind = draw(st.sampled_from(["float64", "float32", "int", "bool", "str", "mixed",
                                 "pairs", "array1", "array2", "array3"]))
    size = draw(st.integers(0, 6))
    width = {"pairs": 2, "array2": 2, "array3": 3}.get(kind, 1)
    floats = draw(st.lists(st.one_of(st.floats(0.0, 0.99),
                                     st.sampled_from([math.nan, -0.1, 0.0, 1.0, 1.5])),
                           min_size=size * width, max_size=size * width))
    if kind == "float64":
        return [np.float64(v) for v in floats]
    if kind == "float32":
        return [np.float32(v) for v in floats]
    if kind == "int":
        return draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    if kind == "bool":
        return draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if kind == "str":
        return [repr(v) for v in floats]
    if kind == "mixed":
        scalar = st.one_of(st.floats(0.0, 0.99), st.integers(0, 1), st.booleans())
        return draw(st.lists(st.one_of(scalar, st.tuples(scalar, scalar)),
                             min_size=size, max_size=size))
    if kind == "pairs":
        return [draw(st.sampled_from([tuple, list]))(floats[2 * k:2 * k + 2])
                for k in range(size)]
    return np.array(floats).reshape(-1, width) if width > 1 else np.array(floats)


def as_number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"sweep point entry {value!r} is not a number") from None


def reference_row(grid, template, effects, point):
    """A point's (iccs, result, error text, error type), one design_power at a time."""
    second = template.model.second_icc
    iccs = {"rho_w": math.nan}
    try:
        if isinstance(point, (tuple, list, np.ndarray)):
            if second is None:
                raise ParameterError("cross-sectional sweep points are single rho_w values")
            if len(point) != 2:
                raise ParameterError(f"sweep point {point!r} must have two entries")
            iccs = {"rho_w": as_number(point[0]), second: as_number(point[1])}
        else:
            iccs = {"rho_w": as_number(point)}
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
        else data.draw(st.one_of(points, typed_grids()))
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
