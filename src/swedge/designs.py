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
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property


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


@dataclass(frozen=True)
class TransitionViolation:
    """A disallowed transition entering (cluster_index, period_index),
    from cell code ``before`` to cell code ``after``."""

    cluster_index: int
    period_index: int
    before: int
    after: int

    def __str__(self) -> str:
        return (
            f"cluster {self.cluster_index + 1}, period {self.period_index + 1}: "
            f"{_CONDITION_NAMES[self.before]} -> {_CONDITION_NAMES[self.after]}"
        )


def _code_array(codes) -> tuple[bytes, int]:
    """The cells of an I x T grid of condition codes, row by row and one
    byte per cell, and T.

    Every cell must be an int 0-3; a bool is not a code.  A numpy array is
    judged by its dtype, a grid of int cells read as one byte per cell, and
    any other input cell by cell.  A bad cell is named by its Python value.
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
    cells = None
    if np is not None and isinstance(codes, np.ndarray):
        if codes.ndim == 2 and codes.dtype.kind in "iu" and ((codes >= 0) & (codes <= 3)).all():
            cells = codes.astype(np.int8).tobytes()
    elif all(issubclass(t, int) and t is not bool or np is not None and issubclass(t, np.integer)
             for t in set(map(type, itertools.chain.from_iterable(rows)))):
        try:  # one byte per cell
            cells = bytes(itertools.chain.from_iterable(rows))
        except ValueError:  # a cell outside 0-255
            pass
        if cells is not None and cells.translate(None, _CODES):
            cells = None
    if cells is None:
        cells = []
        for r, row in enumerate(rows):
            for cell in row:
                if np is not None and isinstance(cell, (np.generic, np.ndarray)):
                    cell = cell.tolist()
                if isinstance(cell, bool) or not isinstance(cell, int) or not 0 <= cell <= 3:
                    raise DesignError(f"row {r + 1}: unknown condition code {cell!r}")
                cells.append(cell)
        cells = bytes(cells)
    return cells, width


@dataclass(frozen=True, eq=False, init=False)
class DesignGrid:
    """Immutable I x T grid of cell codes (bit 0: treatment 1, bit 1: treatment 2).

    ``DesignGrid(codes, label="", reconstructed=False)`` copies ``codes``,
    rows of ints 0-3 or a 2-d integer array, into ``cells``: one byte per
    cell, row by row.  ``codes``, a read-only int8 array viewing those
    bytes, and ``forms``, computed from them on first use, are kept with
    the grid; a derived, copied or unpickled grid is a new grid with its
    own.  Equality compares ``label`` and the cells.  ``reconstructed``
    marks catalog grids whose exact layout was rebuilt from published
    summary counts rather than copied cell-for-cell; it is provenance
    metadata and excluded from equality.
    """

    cells: bytes
    n_periods: int
    label: str = ""
    reconstructed: bool = False

    def __init__(self, codes, label: str = "", reconstructed: bool = False) -> None:
        _fill(self, *_code_array(codes), label, reconstructed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DesignGrid):
            return NotImplemented
        return (self.label, self.n_periods, self.cells) == \
            (other.label, other.n_periods, other.cells)

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
        order = list(order)
        if sorted(order) != list(range(self.n_clusters)):
            raise DesignError("cluster permutation must reorder all rows exactly once")
        t = self.n_periods
        return _grid(b"".join([self.cells[k * t:k * t + t] for k in order]), t, self.label,
                     self.reconstructed)

    def relabel(self, label: str) -> "DesignGrid":
        return _grid(self.cells, self.n_periods, label, self.reconstructed)


def _fill(grid: DesignGrid, cells: bytes, n_periods: int, label: str,
          reconstructed: bool) -> None:
    for name, value in (("cells", cells), ("n_periods", n_periods), ("label", label),
                        ("reconstructed", reconstructed)):
        object.__setattr__(grid, name, value)


def _grid(cells: bytes, n_periods: int, label: str, reconstructed: bool) -> DesignGrid:
    """The grid of ``cells``, codes 0-3 row by row, ``n_periods`` to a row,
    taken as they are: for cells that come from a grid or passed its
    checks."""
    grid = DesignGrid.__new__(DesignGrid)
    _fill(grid, cells, n_periods, label, reconstructed)
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
    period.
    """
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

def _fig1() -> DesignGrid:
    return generate_standard_swd(3, 2, label="fig1")


def _fig2a_trt1() -> DesignGrid:
    return generate_standard_swd(3, 2, label="fig2a-trt1")


def _fig2a_trt2() -> DesignGrid:
    return generate_standard_swd(3, 2, treatment=2, label="fig2a-trt2")


def _fig2b() -> DesignGrid:
    return concurrent_design(_fig2a_trt1(), _fig2a_trt2(), label="fig2b")


def _fig2c() -> DesignGrid:
    # 10-cluster concurrent variant: one cluster dropped from the last
    # sequence of each treatment's wedge.  Rebuilt from summary counts.
    rows = [
        [0, 1, 1, 1],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
        [0, 2, 2, 2],
        [0, 2, 2, 2],
        [0, 0, 2, 2],
        [0, 0, 2, 2],
        [0, 0, 0, 2],
    ]
    return DesignGrid(rows, label="fig2c", reconstructed=True)


def _fig5a() -> DesignGrid:
    # Late factorial: the 12-cluster concurrent design with every cluster
    # switched to the combined condition in the final period.
    rows = [row[:-1] + [3] for row in _fig2b().to_codes()]
    return DesignGrid(rows, label="fig5a")


def _fig5b() -> DesignGrid:
    # Earlier factorial, 10 clusters: two clusters adopt the combined
    # condition straight from control in period 3, the rest in period 4
    # after a single-treatment phase.  Rebuilt from summary counts (6
    # cluster-periods per single treatment, 12 combined).
    rows = [
        [0, 0, 3, 3],
        [0, 0, 3, 3],
        [0, 1, 1, 3],
        [0, 1, 1, 3],
        [0, 1, 1, 3],
        [0, 2, 2, 3],
        [0, 2, 2, 3],
        [0, 2, 2, 3],
        [0, 0, 0, 3],
        [0, 0, 0, 3],
    ]
    return DesignGrid(rows, label="fig5b", reconstructed=True)


def _fig8_design1() -> DesignGrid:
    # Concurrent-style: each cluster makes a single transition from
    # control into one condition (including straight to combined).
    rows = [
        [0, 1, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 2, 2, 2, 2],
        [0, 0, 2, 2, 2],
        [0, 3, 3, 3, 3],
        [0, 0, 3, 3, 3],
        [0, 0, 0, 3, 3],
        [0, 0, 0, 0, 3],
    ]
    return DesignGrid(rows, label="fig8-design1", reconstructed=True)


def _fig8_design2() -> DesignGrid:
    # Three clusters run control -> treatment 1 -> combined, three run
    # control -> treatment 2 -> combined, two adopt a single treatment
    # late.  Close to symmetric, with treatment 2 sequenced slightly later.
    rows = [
        [0, 1, 3, 3, 3],
        [0, 1, 1, 1, 3],
        [0, 0, 1, 1, 3],
        [0, 0, 2, 3, 3],
        [0, 2, 2, 3, 3],
        [0, 0, 2, 2, 3],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 2, 2],
    ]
    return DesignGrid(rows, label="fig8-design2", reconstructed=True)


def _fig8_design3() -> DesignGrid:
    # Six clusters step into a single treatment classic-wedge style; every
    # cluster ends combined, with only two combined cells before the end.
    rows = [
        [0, 1, 1, 1, 3],
        [0, 0, 1, 1, 3],
        [0, 0, 1, 1, 3],
        [0, 2, 2, 2, 3],
        [0, 0, 2, 2, 3],
        [0, 0, 2, 2, 3],
        [0, 0, 0, 3, 3],
        [0, 0, 0, 3, 3],
    ]
    return DesignGrid(rows, label="fig8-design3", reconstructed=True)


def _fig8_design4() -> DesignGrid:
    # Like design 3 but with earlier combined starts and two clusters that
    # never reach the combined condition.
    rows = [
        [0, 1, 3, 3, 3],
        [0, 0, 1, 1, 3],
        [0, 0, 0, 1, 3],
        [0, 0, 1, 1, 1],
        [0, 2, 3, 3, 3],
        [0, 0, 2, 2, 3],
        [0, 0, 0, 2, 3],
        [0, 0, 2, 2, 2],
    ]
    return DesignGrid(rows, label="fig8-design4", reconstructed=True)


_CATALOG = {
    "fig1": _fig1,
    "fig2a-trt1": _fig2a_trt1,
    "fig2a-trt2": _fig2a_trt2,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig8-design1": _fig8_design1,
    "fig8-design2": _fig8_design2,
    "fig8-design3": _fig8_design3,
    "fig8-design4": _fig8_design4,
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
        builder = _CATALOG[design_id]
    except KeyError:
        raise UnknownDesignError(design_id) from None
    return builder()


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
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DesignError(f"invalid design JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DesignError("design JSON must be an object with a 'cells' array")
        if "cells" not in payload:
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
    # Rows each exactly [0-3](,[0-3])* of one width after those lines are
    # read as one buffer, a row of it per line and its "\n"; any other text
    # is read line by line and cell by cell.
    count = len(lines) - head
    width = len(lines[head]) + 1 if count else 0
    body = ("\n".join(lines[head:]) + "\n").encode("ascii", "replace")
    if width >= 4 and width % 2 == 0 and len(body) == count * width \
            and body[1::2] == (b"," * (width // 2 - 1) + b"\n") * count \
            and not body[::2].translate(None, b"0123"):
        label, reconstructed, _ = _read_lines(lines[:head])
        return _grid(body[::2].translate(_DIGITS), width // 2, label, reconstructed)
    label, reconstructed, rows = _read_lines(lines)
    codes = [_parse_row(lineno, line) for lineno, line in rows]
    return DesignGrid(codes, label=label, reconstructed=reconstructed)


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
        try:
            cells.append(int(tok))
        except ValueError:
            raise DesignError(f"line {lineno}: bad cell value {tok!r}") from None
    return cells
