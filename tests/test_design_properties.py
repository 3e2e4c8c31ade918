"""Property tests for design-file parsing, serialization and storage."""

import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swedge import designs
from swedge.designs import (
    DesignError,
    DesignGrid,
    catalog_design,
    catalog_ids,
    parse_design,
    serialize_design,
    validate_design,
)

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
        grid = DesignGrid(rows, label=label, reconstructed=reconstructed)
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


def parse_cell_by_cell(text):
    """CSV rows read one token at a time, each an ASCII integer with an
    optional sign: ``int`` would also read ``1_0`` and non-ASCII digits."""
    if not text.strip():
        raise DesignError("empty design file")
    rows = []
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = []
        for tok in line.split(","):
            if not re.fullmatch(r"[+-]?[0-9]+", tok.strip()):
                raise DesignError(f"line {lineno}: bad cell value {tok.strip()!r}")
            cells.append(int(tok.strip()))
        rows.append(cells)
    return DesignGrid(rows)


def outcome(parse, text):
    try:
        return parse(text).to_codes()
    except DesignError as exc:
        return str(exc)


# CSV cells: codes, with padding, and tokens the parser reads or rejects.
csv_tokens = st.one_of(
    st.integers(0, 3).map(str),
    st.sampled_from([" 1", "2 ", "\t3", "+1", "-0", "00", "1_0", "\u0661", "4", "-1",
                     "1.0", "", " ", "x", "0x1", "1e0", "99999999999999999999"]),
)


@st.composite
def large_token_rows(draw):
    """Random code grids up to 300 x 21, which the one-buffer reader takes,
    half of them with one cell swapped for another token."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clusters, periods = draw(st.integers(1, 300)), draw(st.integers(1, 21))
    rows = rng.integers(0, 4, (clusters, periods)).astype(str).tolist()
    if draw(st.booleans()):
        rows[draw(st.integers(0, clusters - 1))][draw(st.integers(0, periods - 1))] = \
            draw(csv_tokens)
    return rows


@settings(deadline=None)
@given(st.one_of(st.lists(st.lists(csv_tokens, min_size=1, max_size=4), min_size=1, max_size=5),
                 large_token_rows()),
       st.lists(st.sampled_from(["", "# note", "   "]), max_size=2))
@example([["0", "1"], ["0", "1.0"]], [])
@example([["0", "1"], ["0", "1", "1"]], [])
@example([["0", "99999999999999999999"]], [])
@example([["0", "1_0"], ["0", "\u0661"]], [])
def test_csv_parse_matches_a_cell_by_cell_read(rows, extra_lines):
    text = "\n".join(extra_lines + [",".join(row) for row in rows])
    assert outcome(parse_design, text) == outcome(parse_cell_by_cell, text)


def read_decoded(text):
    """The cells, label and flag of design JSON ``text``, or the DesignError
    text, read by ``json.loads`` and DesignGrid alone."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid design JSON: {exc}"
    try:
        grid = DesignGrid(payload["cells"], payload["label"], payload.get("reconstructed", False))
    except DesignError as exc:
        return str(exc)
    return grid.to_codes(), grid.label, grid.reconstructed


def read_parsed(text):
    try:
        grid = parse_design(text)
    except DesignError as exc:
        return str(exc)
    return grid.to_codes(), grid.label, grid.reconstructed


# Labels with characters JSON escapes, non-ASCII text, and the text of the
# cells key and of the flag, which reading the label must step over.
json_labels = st.lists(st.one_of(
    st.text(max_size=3),
    st.sampled_from(['"', "\\", "\\u0041", "\x00", "\n", "\x1f", "\xe9", " ", "\ud800",
                     '"cells": [[', '], "reconstructed": true}']),
), max_size=4).map("".join)

# The forms of a design JSON text: as serialize_design writes it, or with one change.
JSON_FORMS = [None, None, None, "compact", "indent", "swapped", "newline", "extra", "false",
              "unicode"]
CELLS_MARK = "@cells@"  # a JSON label escapes every quote, so none reads '"@cells@"'
# the size of design-screen's largest design
SCREEN = DesignGrid(np.random.default_rng(1).integers(0, 4, (300, 21)), label="screen")


@st.composite
def design_json_texts(draw):
    """Design JSON with cells 0-3, or with one cell the decoder reads as
    another value or refuses, one row longer than the rest, or no rows."""
    periods = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.sampled_from("0123"), min_size=periods, max_size=periods),
                         max_size=8))
    defect = draw(st.sampled_from([None, None, "cell", "ragged"]))
    if rows and defect == "cell":
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, periods - 1))] = \
            draw(st.sampled_from(["true", "4", "1.0", '"1"', "d"]))
    if rows and defect == "ragged":
        rows[draw(st.integers(0, len(rows) - 1))].append("0")
    form = draw(st.sampled_from(JSON_FORMS))
    payload = {"label": draw(json_labels), "cells": CELLS_MARK}
    if form == "false":
        payload["reconstructed"] = False
    elif draw(st.booleans()):
        payload["reconstructed"] = True
    if form == "swapped":
        payload = dict(reversed(payload.items()))
    if form == "extra":
        payload["note"] = 0
    options = {"compact": {"separators": (",", ":")}, "indent": {"indent": 1},
               "unicode": {"ensure_ascii": False}}.get(form, {})
    sep = "," if form in ("compact", "indent") else ", "
    cells = "[" + sep.join("[" + sep.join(row) + "]" for row in rows) + "]"
    text = json.dumps(payload, **options).replace(json.dumps(CELLS_MARK), cells)
    return text + ("\n\n" if form == "newline" else "\n")


@settings(deadline=None, max_examples=300)
@given(design_json_texts())
@example('{"label": "x", "cells": [[0, d], [0, 1]]}')
@example('{"label": "x", "cells": [[0, ?], [0, 1]]}')
@example(serialize_design(SCREEN, fmt="json"))
def test_json_parse_matches_the_decoded_read(text):
    assert read_parsed(text) == read_decoded(text)


def test_serialized_designs_are_read_as_one_buffer(monkeypatch):
    """The texts serialize_design writes never reach json.loads or the
    CSV line reader."""
    def refuse(*args):
        raise AssertionError("decoded in full")

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(designs, "_parse_row", refuse)
    grids = [catalog_design(design_id) for design_id in catalog_ids()] + [SCREEN]
    for grid in grids:
        for fmt in ("csv", "json"):
            again = parse_design(serialize_design(grid, fmt))
            assert again == grid
            assert again.reconstructed is grid.reconstructed
    for label in ['"cells": [[0, 1]]', "a\\b\u00e9\n", ""]:
        again = parse_design(serialize_design(SCREEN.relabel(label), "json"))
        assert again == SCREEN.relabel(label)


def read_cells_one_by_one(rows):
    """The codes of a list grid, or the DesignError text, one cell at a time."""
    if not rows:
        return "design has no clusters"
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        return f"ragged design: row lengths {widths}"
    if widths[0] < 2:
        return "design needs at least 2 periods"
    for r, row in enumerate(rows, start=1):
        for cell in row:
            value = cell.tolist() if isinstance(cell, (np.generic, np.ndarray)) else cell
            if type(value) is not int or not 0 <= value <= 3:
                return f"row {r}: unknown condition code {value!r}"
    return [[int(cell) for cell in row] for row in rows]


# List cells: codes, and values the one-byte-per-cell reader takes or
# refuses: bools, other numbers, strings, nested lists and numpy scalars.
list_cells = st.one_of(
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from([1.0, "1", 4, 127, 128, 255, 256, -1, 2**70, None, [1], [[0]]]),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 255).map(np.uint8),
    st.integers(-5, 300).map(np.int64),
    st.sampled_from([np.int8(-1), np.True_, np.bool_(False), np.float64(1.0), np.array(2)]),
)


@settings(deadline=None)
@given(st.one_of(
    st.integers(1, 6).flatmap(lambda periods: st.lists(
        st.lists(st.one_of(st.integers(0, 3), list_cells), min_size=periods, max_size=periods),
        min_size=1, max_size=6)),
    st.lists(st.lists(list_cells, max_size=4), max_size=4),
))
@example([[0, 1], [0, np.int64(7)]])
@example([[0, 1], [0, True]])
@example([[0, [1]], [0, 1]])
@example([[0, 1], [0, 256]])
def test_list_cells_are_read_as_one_by_one(rows):
    expected = read_cells_one_by_one(rows)
    try:
        assert DesignGrid(rows).to_codes() == expected
    except DesignError as exc:
        assert str(exc) == expected
    try:
        text = json.dumps({"cells": rows})
    except TypeError:  # numpy scalars have no JSON form
        return
    try:
        assert parse_design(text).to_codes() == expected
    except DesignError as exc:
        assert str(exc) == expected


# Storage: a grid keeps its cells as bytes, whatever form they came in.

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def violations_one_by_one(rows):
    """(cluster, period, before, after) of every cell whose code clears a bit
    set in the cell before it, row by row."""
    return [(i, j, row[j - 1], row[j]) for i, row in enumerate(rows)
            for j in range(1, len(row)) if row[j - 1] & ~row[j]]


@st.composite
def grid_inputs(draw):
    """A grid of codes, as a list of lists, and the same cells in another
    form: a numpy array of an integer dtype, C-ordered, Fortran-ordered or
    strided, or a list of rows holding numpy integer scalars."""
    periods = draw(st.integers(2, 7))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=periods, max_size=periods),
                         min_size=1, max_size=8))
    dtype = draw(st.sampled_from(INT_DTYPES))
    form = draw(st.sampled_from(["list", "array", "fortran", "strided", "scalars"]))
    if form == "list":
        return rows, rows
    if form == "scalars":
        return rows, [[dtype(cell) for cell in row] for row in rows]
    array = np.array(rows, dtype=dtype)
    if form == "fortran":
        return rows, np.asfortranarray(array)
    if form == "strided":
        return rows, np.repeat(array, 2, axis=1)[:, ::2]
    return rows, array


@settings(deadline=None)
@given(grid_inputs(), st.randoms(use_true_random=False))
def test_a_grid_stores_its_cells_as_bytes(data, rng):
    rows, cells = data
    grid = DesignGrid(cells, label="g")
    assert grid.cells == bytes(cell for row in rows for cell in row)
    assert grid.to_codes() == rows
    assert (grid.n_clusters, grid.n_periods) == (len(rows), len(rows[0]))
    assert grid.codes.dtype == np.int8 and not grid.codes.flags.writeable
    assert grid.codes.tolist() == rows
    assert grid.condition_counts() == {c: sum(row.count(c) for row in rows) for c in range(4)}
    assert grid == DesignGrid(rows, label="g") and grid != DesignGrid(rows, label="h")
    for again in (pickle.loads(pickle.dumps(grid)), copy.copy(grid), copy.deepcopy(grid)):
        assert again == grid and again.cells == grid.cells
        assert again.codes.tolist() == rows and not again.codes.flags.writeable
    swapped = [[(c & 1) << 1 | c >> 1 for c in row] for row in rows]
    assert grid.swap_treatments().to_codes() == swapped
    order = list(range(len(rows)))
    rng.shuffle(order)
    assert grid.permute_clusters(order).to_codes() == [rows[k] for k in order]
    assert grid.permute_clusters(iter(order)) == grid.permute_clusters(order)
    assert [(v.cluster_index, v.period_index, v.before, v.after)
            for v in validate_design(grid)] == violations_one_by_one(rows)


@pytest.mark.parametrize("cells, message", [
    (np.array([[0, 1], [1, 4]]), "row 2: unknown condition code 4"),
    (np.array([[0, 1], [-1, 0]], dtype=np.int8), "row 2: unknown condition code -1"),
    (np.array([[0, 1], [0, 256]], dtype=np.uint16), "row 2: unknown condition code 256"),
    (np.array([[0.0, 1.0], [0.0, 1.0]]), "row 1: unknown condition code 0.0"),
    (np.array([[True, False], [False, True]]), "row 1: unknown condition code True"),
    ([[0, 1], [0, 1.0]], "row 2: unknown condition code 1.0"),
    ([[0, 1], [np.uint64(2**63), 0]], f"row 2: unknown condition code {2**63}"),
])
def test_a_bad_cell_of_any_form_is_named(cells, message):
    with pytest.raises(DesignError) as info:
        DesignGrid(cells)
    assert str(info.value) == message


@settings(deadline=None)
@given(code_rows, st.lists(st.sampled_from([
    "# swedge-design v1 label=a", "# swedge-design v1 reconstructed=true label=b",
    "# note", ""]), max_size=3), st.integers(0, 8))
def test_header_lines_anywhere_give_the_last_header(rows, comments, at):
    lines = [",".join(map(str, row)) for row in rows]
    lines[at:at] = comments
    header = next((line for line in reversed(lines) if line.startswith("# swedge-design")), "")
    try:
        grid = parse_design("\n".join(lines))
    except DesignError as exc:
        assert str(exc) == "design needs at least 2 periods"
        return
    assert grid.to_codes() == rows
    assert grid.label == header.partition("label=")[2]
    assert grid.reconstructed is ("reconstructed=true" in header)
