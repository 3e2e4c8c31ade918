"""Stepped wedge design grids with up to two treatments.

A design is an I x T grid of cell codes.  Bit 0 of a code is the
treatment-1 indicator X and bit 1 the treatment-2 indicator W, so 0 is
control, 1 treatment 1, 2 treatment 2 and 3 both treatments at once
(their interaction).  The transition policy is one rule on those bits: a
treatment, once started, never stops.  This module covers grid
construction and validation, generators for standard and concurrent
layouts, a catalog of published example designs, and CSV/JSON
serialization.

A grid holds its codes as one ``bytes`` object, row by row, one byte per
cell, and everything here works on those bytes in plain Python, so
building, checking and reading a design does not load numpy.  Only
:attr:`DesignGrid.codes` and :meth:`DesignGrid.indicators`, the array
views the dense oracle and the tests read, import it.

A design file in the form :func:`serialize_design` writes, CSV rows of
single digits or the JSON text, is read as one byte buffer: one
``translate`` checks its rows and another gives the codes.  Any other
layout is decoded in full, CSV line by line and JSON by ``json.loads``,
with the same results and error messages.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Sequence
from functools import cache, cached_property

from ._record import Record


class DesignError(ValueError):
    """Structurally malformed design (ragged rows, bad codes, too small)."""


class UnknownDesignError(KeyError):
    """Catalog lookup for an id that does not exist."""


# The names of the cell codes 0-3, as messages print them.
_CONDITION_NAMES = ("CONTROL", "TRT1", "TRT2", "BOTH")
_CODES = bytes(range(4))
# the translation of cells that exchanges treatments 1 and 2
_SWAP = bytes.maketrans(b"\1\2", b"\2\1")
# the translation of the digits of a design file to cell codes
_DIGITS = bytes.maketrans(b"0123", _CODES)


class TransitionViolation(Record):
    """A disallowed transition entering (cluster_index, period_index),
    from cell code ``before`` to cell code ``after``."""

    cluster_index: int
    period_index: int
    before: int
    after: int

    def __init__(self, cluster_index: int, period_index: int, before: int, after: int) -> None:
        self.__dict__.update(cluster_index=cluster_index, period_index=period_index,
                             before=before, after=after)

    def __str__(self) -> str:
        return (
            f"cluster {self.cluster_index + 1}, period {self.period_index + 1}: "
            f"{_CONDITION_NAMES[self.before]} -> {_CONDITION_NAMES[self.after]}"
        )


def _code_array(codes) -> tuple[bytes, int]:
    """The cells of an I x T grid of condition codes, row by row and one
    byte per cell, and T.

    Every cell must be an int 0-3; a bool is not a code.  Each cell is
    read on its own, a numpy scalar or 0-d array as its ``tolist()``
    value, and a bad cell is named by that Python value.
    """
    try:
        rows = list(codes)
        widths = {len(row) for row in rows}
    except TypeError:
        raise DesignError("design must be a sequence of rows of condition codes") from None
    if not rows:
        raise DesignError("design has no clusters")
    if len(widths) != 1:
        raise DesignError(f"ragged design: row lengths {sorted(widths)}")
    width = widths.pop()
    if width < 2:
        raise DesignError("design needs at least 2 periods")
    # an input holds numpy objects only once a caller has imported numpy
    np = sys.modules.get("numpy")
    cells = []
    for r, row in enumerate(rows):
        for cell in row:
            if np is not None and isinstance(cell, (np.generic, np.ndarray)):
                cell = cell.tolist()
            if isinstance(cell, bool) or not isinstance(cell, int) or not 0 <= cell <= 3:
                raise DesignError(f"row {r + 1}: unknown condition code {cell!r}")
            cells.append(cell)
    return bytes(cells), width


class DesignGrid(Record):
    """Immutable I x T grid of cell codes (bit 0: treatment 1, bit 1: treatment 2).

    ``DesignGrid(codes, label="", reconstructed=False)`` copies ``codes``,
    rows of ints 0-3 or a 2-d integer array, into ``cells``: one byte per
    cell, row by row.  ``codes``, a read-only int8 array viewing those
    bytes, and ``forms``, computed from them on first use, are kept with
    the grid; a derived, copied or unpickled grid is a new grid with its
    own.  Equality compares ``label`` and the cells.  ``reconstructed``
    marks catalog grids whose exact layout was rebuilt from published
    summary counts rather than copied cell-for-cell; it is provenance
    metadata and excluded from equality; a grid has no hash.
    """

    cells: bytes
    n_periods: int
    label: str
    reconstructed: bool

    __hash__ = None

    def __init__(self, codes, label: str = "", reconstructed: bool = False) -> None:
        cells, n_periods = _code_array(codes)
        self.__dict__.update(cells=cells, n_periods=n_periods, label=label,
                             reconstructed=reconstructed)

    def _key(self) -> tuple:
        return self.label, self.n_periods, self.cells

    def __reduce__(self):  # copies and unpickled grids share the bytes, not the caches
        return _grid, (self.cells, self.n_periods, self.label, self.reconstructed)

    @property
    def n_clusters(self) -> int:
        return len(self.cells) // self.n_periods

    @cached_property
    def codes(self):
        """The cells as a read-only (I, T) int8 array that views ``cells``;
        the first access imports numpy."""
        import numpy as np

        return np.frombuffer(self.cells, np.int8).reshape(self.n_clusters, self.n_periods)

    def to_codes(self) -> list[list[int]]:
        t = self.n_periods
        return [list(self.cells[k:k + t]) for k in range(0, len(self.cells), t)]

    def condition_counts(self) -> dict[int, int]:
        """Number of cells holding each code 0-3."""
        return {code: self.cells.count(code) for code in _CODES}

    def indicators(self):
        """(X, W) 0/1 float arrays of shape (I, T) for treatments 1 and 2."""
        return (self.codes & 1).astype(float), (self.codes >> 1).astype(float)

    @cached_property
    def forms(self) -> dict:
        """The closed form's exact coefficients for this grid, one entry per
        analysis, which :mod:`swedge.variance` computes from ``cells`` on
        first use: the grid's one cache."""
        return {}

    def swap_treatments(self) -> "DesignGrid":
        """Relabel treatment 1 <-> treatment 2 everywhere."""
        return _grid(self.cells.translate(_SWAP), self.n_periods, self.label,
                     self.reconstructed)

    def permute_clusters(self, order: Sequence[int]) -> "DesignGrid":
        try:  # ints or numpy integers, not bools; 1.0 == 1 would pass the check below
            order = list(map(_index, order))
        except TypeError:
            raise DesignError("cluster permutation must be a sequence of row indices") from None
        if sorted(order) != list(range(self.n_clusters)):
            raise DesignError("cluster permutation must reorder all rows exactly once")
        t = self.n_periods
        return _grid(b"".join([self.cells[k * t:k * t + t] for k in order]), t, self.label,
                     self.reconstructed)

    def relabel(self, label: str) -> "DesignGrid":
        return _grid(self.cells, self.n_periods, label, self.reconstructed)


def _index(value) -> int:
    """``value`` as an int, through ``operator.index``; a Python or numpy
    bool, which is no count or index, raises TypeError too."""
    np = sys.modules.get("numpy")  # a value is a numpy bool only once numpy is loaded
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        raise TypeError
    return operator.index(value)


def _grid(cells: bytes, n_periods: int, label: str, reconstructed: bool) -> DesignGrid:
    """The grid of ``cells``, codes 0-3 row by row, ``n_periods`` to a row,
    taken as they are: for cells that come from a grid or passed its
    checks."""
    grid = DesignGrid.__new__(DesignGrid)
    grid.__dict__.update(cells=cells, n_periods=n_periods, label=label,
                         reconstructed=reconstructed)
    return grid


def validate_design(grid: DesignGrid) -> list[TransitionViolation]:
    """Disallowed between-period transitions, in row-major order.

    A treatment, once started, never stops: a transition is disallowed
    when a bit set in one period is clear in the next.  Whether the
    entries are errors or warnings is the caller's policy.
    """
    cells, t = grid.cells, grid.n_periods
    # read as one big-endian int, byte p of ``value >> 8`` is cell p - 1; the
    # mask keeps the two code bits of every cell but a cluster's first
    value = int.from_bytes(cells, "big")
    mask = int.from_bytes((b"\0" + b"\3" * (t - 1)) * grid.n_clusters, "big")
    stopped = (value >> 8) & ~value & mask
    if not stopped:
        return []
    flags = stopped.to_bytes(len(cells), "big")
    return [TransitionViolation(cluster_index=p // t, period_index=p % t,
                                before=cells[p - 1], after=cells[p])
            for p, flag in enumerate(flags) if flag]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_standard_swd(
    sequences: int,
    clusters_per_sequence: int,
    treatment: int = 1,
    label: str = "",
) -> DesignGrid:
    """Classic one-treatment stepped wedge layout.

    Sequence s (1-based) stays in control through period s and receives
    ``treatment`` (cell code 1, 2 or 3) from period s+1 on, over
    T = sequences + 1 periods, so every cluster is treated in the final
    period.  Both counts must be ints of at least 1; a bool is no count.
    """
    try:
        sequences = _index(sequences)
    except TypeError:
        raise DesignError(f"sequences must be an int, got {sequences!r}") from None
    try:
        clusters_per_sequence = _index(clusters_per_sequence)
    except TypeError:
        raise DesignError(
            f"clusters_per_sequence must be an int, got {clusters_per_sequence!r}") from None
    if sequences < 1:
        raise DesignError("need at least one sequence")
    if clusters_per_sequence < 1:
        raise DesignError("need at least one cluster per sequence")
    if treatment == 0:
        raise DesignError("treatment condition cannot be CONTROL")
    rows = [[0] * start + [treatment] * (sequences + 1 - start)
            for start in range(1, sequences + 1) for _ in range(clusters_per_sequence)]
    return DesignGrid(rows, label=label)


def concurrent_design(grid_a: DesignGrid, grid_b: DesignGrid, label: str = "") -> DesignGrid:
    """Stack two single-treatment designs into one concurrent trial.

    The inputs must span the same periods and use disjoint treatments:
    one grid only {control, treatment 1}, the other only {control,
    treatment 2}.
    """
    if grid_a.n_periods != grid_b.n_periods:
        raise DesignError(
            f"period mismatch: {grid_a.n_periods} vs {grid_b.n_periods}"
        )
    used_a = {c for c, n in grid_a.condition_counts().items() if n} - {0}
    used_b = {c for c, n in grid_b.condition_counts().items() if n} - {0}
    valid = (used_a <= {1} and used_b <= {2}) or (used_a <= {2} and used_b <= {1})
    if not valid:
        raise DesignError(
            "concurrent stacking needs disjoint single-treatment grids "
            f"(got {sorted(_CONDITION_NAMES[c] for c in used_a)} and "
            f"{sorted(_CONDITION_NAMES[c] for c in used_b)})"
        )
    if not label:
        label = "+".join(p for p in (grid_a.label, grid_b.label) if p)
    return _grid(grid_a.cells + grid_b.cells, grid_a.n_periods, label, False)


# ---------------------------------------------------------------------------
# Design catalog
# ---------------------------------------------------------------------------

# Each published layout: its rows of cell codes, a digit per period, and whether it
# was rebuilt from published summary counts rather than copied cell-for-cell.
_CATALOG = {
    "fig1": ("0111 0111 0011 0011 0001 0001", False),
    "fig2a-trt1": ("0111 0111 0011 0011 0001 0001", False),
    "fig2a-trt2": ("0222 0222 0022 0022 0002 0002", False),
    "fig2b": ("0111 0111 0011 0011 0001 0001 0222 0222 0022 0022 0002 0002", False),
    # fig2b less one cluster from the last sequence of each wedge
    "fig2c": ("0111 0111 0011 0011 0001 0222 0222 0022 0022 0002", True),
    # late factorial: fig2b with every cluster combined in the final period
    "fig5a": ("0113 0113 0013 0013 0003 0003 0223 0223 0023 0023 0003 0003", False),
    # two clusters combined from period 3, the rest from period 4: 6 cells per treatment, 12 both
    "fig5b": ("0033 0033 0113 0113 0113 0223 0223 0223 0003 0003", True),
    # each cluster makes one transition, from control into one condition
    "fig8-design1": ("01111 00111 02222 00222 03333 00333 00033 00003", True),
    # three clusters via each treatment to combined, two take one treatment late
    "fig8-design2": ("01333 01113 00113 00233 02233 00223 00001 00022", True),
    # single-treatment wedges that all end combined, two combined cells before the end
    "fig8-design3": ("01113 00113 00113 02223 00223 00223 00033 00033", True),
    # like design 3 with earlier combined starts; two clusters never combined
    "fig8-design4": ("01333 00113 00013 00111 02333 00223 00023 00222", True),
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


@cache
def catalog_design(design_id: str) -> DesignGrid:
    """Fetch a published example design by id (see :func:`catalog_ids`).

    Each design is built once per process and the same grid is returned on
    every call.  A grid is read-only, and every caller shares its
    ``forms``, the closed form's coefficients, computed once; a derived grid
    comes from :meth:`DesignGrid.relabel`, :meth:`~DesignGrid.swap_treatments`
    or :meth:`~DesignGrid.permute_clusters`.
    """
    try:
        rows, reconstructed = _CATALOG[design_id]
    except KeyError:
        raise UnknownDesignError(design_id) from None
    return DesignGrid([list(map(int, row)) for row in rows.split()], design_id, reconstructed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_HEADER_MAGIC = "# swedge-design v1"


def serialize_design(grid: DesignGrid, fmt: str = "csv") -> str:
    """Render a grid as design-file text (CSV by default, or JSON).

    The CSV header is one line read back with its end stripped, so a label
    with a line break or trailing whitespace is a :class:`DesignError`;
    the JSON form carries any label.
    """
    if fmt == "json":
        import json

        payload: dict = {"label": grid.label, "cells": grid.to_codes()}
        if grid.reconstructed:
            payload["reconstructed"] = True
        return json.dumps(payload) + "\n"
    if fmt != "csv":
        raise DesignError(f"unknown design format {fmt!r}")
    lines = []
    if grid.label or grid.reconstructed:
        header = _HEADER_MAGIC
        if grid.reconstructed:
            header += " reconstructed=true"
        if grid.label:
            if grid.label != grid.label.rstrip() or len(grid.label.splitlines()) > 1:
                raise DesignError(f"label {grid.label!r} has a line break or trailing "
                                  "whitespace, which a CSV header cannot carry; "
                                  "use the JSON form")
            header += f" label={grid.label}"
        lines.append(header)
    lines.extend(",".join(map(str, row)) for row in grid.to_codes())
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> tuple[str, bool]:
    rest = line[len(_HEADER_MAGIC):].strip()
    label, reconstructed = "", False
    if rest.startswith("reconstructed=true"):
        reconstructed = True
        rest = rest[len("reconstructed=true"):].strip()
    if rest.startswith("label="):
        label = rest[len("label="):]
    elif rest:
        raise DesignError(f"malformed design header: {line!r}")
    return label, reconstructed


def parse_design(text: str) -> DesignGrid:
    """Parse design-file content (CSV rows of codes, or the JSON form)."""
    stripped = text.strip()
    if not stripped:
        raise DesignError("empty design file")
    if stripped.startswith(("{", "[")):
        import json

        grid = _read_serialized_json(stripped)
        if grid is not None:
            return grid
        try:
            payload = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep for the parser
            raise DesignError(f"invalid design JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DesignError("design JSON must be an object with a 'cells' array")
        if not isinstance(payload.get("cells"), list):
            raise DesignError("design JSON must contain a 'cells' array")
        label = payload.get("label", "")
        reconstructed = payload.get("reconstructed", False)
        if not isinstance(label, str) or not isinstance(reconstructed, bool):
            raise DesignError("design JSON 'label' must be a string and 'reconstructed' a boolean")
        return DesignGrid(payload["cells"], label=label, reconstructed=reconstructed)
    lines = stripped.splitlines()
    head = 0  # the comment lines that open the file, its header among them
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    # the rows after those lines, a row per line, each with its "\n"
    body = ("\n".join(lines[head:]) + "\n").encode("ascii", "replace")
    read = _read_rows(body, b"", b",", b"\n")
    if read is not None:
        label, reconstructed, _ = _read_lines(lines[:head])
        return _grid(*read, label, reconstructed)
    label, reconstructed, rows = _read_lines(lines)
    codes = [_parse_row(lineno, line) for lineno, line in rows]
    return DesignGrid(codes, label=label, reconstructed=reconstructed)


# The translation of design-file bytes that makes every digit 0-3 a "0" and
# leaves every other byte, so a row of cells reads as its delimiters and
# "0"s; "?", which a non-ASCII character encodes to, is no digit.
_SKELETON = bytes.maketrans(b"123", b"000")


def _read_rows(body: bytes, opening: bytes, sep: bytes, closing: bytes):
    """``(cells, periods)`` of ``body`` when it is rows of one width, each
    exactly ``opening + d (sep d)* + closing`` for digits d 0-3 and at
    least 2 periods, read as one buffer; else None.
    """
    # the bytes of the first row; when ``body`` holds no ``closing``, periods < 2
    width = body.find(closing) + len(closing)
    periods, rest = divmod(width - len(opening) - len(closing) + len(sep), len(sep) + 1)
    if periods < 2 or rest or len(body) % width:
        return None
    row = opening + sep.join([b"0"] * periods) + closing
    if body.translate(_SKELETON) != row * (len(body) // width):
        return None
    return body.translate(_DIGITS, opening + sep + closing), periods


# The JSON text serialize_design writes, json.dumps with its default
# separators: the label, then the cells, then the flag only when it is set.
_JSON_LABEL = '{"label": "'
_JSON_CELLS = ', "cells": ['
_JSON_END = "]}"
_JSON_RECONSTRUCTED_END = '], "reconstructed": true}'


def _read_serialized_json(text: str) -> DesignGrid | None:
    """The grid of JSON ``text`` in the exact form :func:`serialize_design`
    writes, its cells read as one buffer by :func:`_read_rows`; else None,
    for the decoder to read ``text`` and name any error.  The label is
    decoded by the ``json`` module, escapes and all."""
    if not text.startswith(_JSON_LABEL):
        return None
    import json

    try:
        label, end = json.JSONDecoder().raw_decode(text, len(_JSON_LABEL) - 1)
    except json.JSONDecodeError:
        return None
    if not text.startswith(_JSON_CELLS, end):
        return None
    reconstructed = text.endswith(_JSON_RECONSTRUCTED_END)
    if not reconstructed and not text.endswith(_JSON_END):
        return None
    stop = len(text) - len(_JSON_RECONSTRUCTED_END if reconstructed else _JSON_END)
    # each row "[d, d, ...], ", the last one given its ", " too
    body = (text[end + len(_JSON_CELLS):stop] + ", ").encode("ascii", "replace")
    read = _read_rows(body, b"[", b", ", b"], ")
    return None if read is None else _grid(*read, label, reconstructed)


def _read_lines(lines: list[str]) -> tuple[str, bool, list[tuple[int, str]]]:
    """``(label, reconstructed, rows)`` of CSV design lines: the fields of
    the last design header, and the number and text of each line that is
    neither blank nor a comment."""
    label, reconstructed, rows = "", False, []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_HEADER_MAGIC):
                label, reconstructed = _parse_header(line)
            continue
        rows.append((lineno, line))
    return label, reconstructed, rows


def _parse_row(lineno: int, line: str) -> list[int]:
    cells = []
    for tok in line.split(","):
        tok = tok.strip()
        digits = tok[1:] if tok[:1] in ("+", "-") else tok
        if not (digits.isascii() and digits.isdigit()):  # int() reads '1_0' and '١' too
            raise DesignError(f"line {lineno}: bad cell value {tok!r}")
        cells.append(int(tok))
    return cells
