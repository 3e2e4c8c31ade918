"""Property tests for design-file parsing and serialization."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swedge.designs import DesignError, DesignGrid, parse_design, serialize_design

# Any value a JSON document can hold, nested a few levels deep.
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=25,
)

# Rectangular code grids: every one is a valid design once it has 2 periods.
code_rows = st.integers(1, 7).flatmap(
    lambda periods: st.lists(
        st.lists(st.integers(0, 3), min_size=periods, max_size=periods),
        min_size=1, max_size=8,
    )
)

# Rectangular grids of codes mixed with other JSON values, true and false
# among them.
mixed_rows = st.integers(2, 6).flatmap(
    lambda periods: st.lists(
        st.lists(st.one_of(st.integers(0, 3), st.booleans(), json_leaves),
                 min_size=periods, max_size=periods),
        min_size=1, max_size=6,
    )
)

@settings(deadline=None)
@given(
    cells=st.one_of(code_rows, mixed_rows, json_values),
    extra=st.fixed_dictionaries(
        {}, optional={"label": st.one_of(st.text(), json_values),
                      "reconstructed": st.one_of(st.booleans(), json_values)},
    ),
)
@example(cells=[0, 1], extra={})
@example(cells=None, extra={})
@example(cells=[[0, 1], [0, True]], extra={})
@example(cells=[[0, 1]], extra={"reconstructed": "false"})
def test_json_cells_give_a_grid_or_a_design_error(cells, extra):
    payload = {"cells": cells, **extra}
    try:
        grid = parse_design(json.dumps(payload))
    except DesignError:
        return
    assert isinstance(grid, DesignGrid)
    assert grid.to_codes() == cells
    assert all(type(cell) is int for row in cells for cell in row)
    assert grid.label == payload.get("label", "")
    assert grid.reconstructed is payload.get("reconstructed", False)


@settings(deadline=None)
@given(rows=code_rows, label=st.text(), reconstructed=st.booleans())
@example(rows=[[0, 1]], label="a\x0bb", reconstructed=False)
@example(rows=[[0, 1]], label="x ", reconstructed=False)
@example(rows=[[0, 1]], label="\r", reconstructed=False)
def test_serialize_then_parse_round_trips(rows, label, reconstructed):
    try:
        grid = DesignGrid.from_codes(rows, label=label, reconstructed=reconstructed)
    except DesignError:
        assert len(rows[0]) < 2
        return
    again = parse_design(serialize_design(grid, fmt="json"))
    assert again == grid
    assert again.reconstructed is grid.reconstructed
    try:
        text = serialize_design(grid, fmt="csv")
    except DesignError as exc:
        # Only a label the one-line header cannot carry is refused.
        assert label != label.rstrip() or len(label.splitlines()) > 1
        assert "JSON" in str(exc)
        return
    again = parse_design(text)
    assert again == grid
    assert again.reconstructed is grid.reconstructed
