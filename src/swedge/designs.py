"""Stepped wedge design grids with up to two treatments.

A design is an I x T array of cell codes.  Bit 0 of a code is the
treatment-1 indicator X and bit 1 the treatment-2 indicator W, so 0 is
control, 1 treatment 1, 2 treatment 2 and 3 both treatments at once (the
interaction XW).  The transition policy is one rule on those bits: a
treatment, once started, never stops.  This module covers grid
construction and validation, generators for standard and concurrent
layouts, a catalog of published example designs, and CSV/JSON
serialization.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np


class DesignError(ValueError):
    """Structurally malformed design (ragged rows, bad codes, too small)."""


class UnknownDesignError(KeyError):
    """Catalog lookup for an id that does not exist."""


# The names of the cell codes 0-3, as messages print them.
_CONDITION_NAMES = ("CONTROL", "TRT1", "TRT2", "BOTH")


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


def _code_array(codes) -> np.ndarray:
    """Read-only int8 copy of an I x T grid of condition codes.

    Every cell must be an int 0-3; a bool is not a code.  An array is
    judged by its dtype, a grid of int cells read as one byte per cell,
    and any other input cell by cell.  A bad cell is named by its Python
    value.
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
    if widths.pop() < 2:
        raise DesignError("design needs at least 2 periods")
    if isinstance(codes, np.ndarray):
        grid = np.array(codes)
        bad = grid.ndim != 2 or grid.dtype.kind not in "iu"
    else:
        types = set(map(type, itertools.chain.from_iterable(rows)))
        bad = not all(issubclass(t, (int, np.integer)) and t is not bool for t in types)
        if not bad:
            try:  # one byte per cell
                grid = np.frombuffer(bytes(itertools.chain.from_iterable(rows)), np.int8)
            except ValueError:  # a cell outside 0-255
                bad = True
    if bad or ((grid < 0) | (grid > 3)).any():
        cells = []
        for r, row in enumerate(rows):
            for cell in row:
                cell = cell.tolist() if isinstance(cell, (np.generic, np.ndarray)) else cell
                if isinstance(cell, bool) or not isinstance(cell, int) or not 0 <= cell <= 3:
                    raise DesignError(f"row {r + 1}: unknown condition code {cell!r}")
                cells.append(cell)
        grid = np.array(cells)
    grid = grid.astype(np.int8, copy=False).reshape(len(rows), -1)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class DesignGrid:
    """Immutable I x T grid of cell codes (bit 0: treatment 1, bit 1: treatment 2).

    ``codes`` is a read-only int8 array copied from the input, and
    ``sums`` and ``forms``, computed from it on first use, are kept with the
    grid; a derived, copied or unpickled grid is a new grid with its own.
    Equality compares ``label`` and ``codes``.  ``reconstructed`` marks catalog
    grids whose exact layout was rebuilt from published summary counts
    rather than copied cell-for-cell; it is provenance metadata and
    excluded from equality.
    """

    codes: np.ndarray
    label: str = ""
    reconstructed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _code_array(self.codes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DesignGrid):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.codes, other.codes)

    def __reduce__(self):  # copies and unpickled grids get a read-only array too
        return DesignGrid, (self.codes, self.label, self.reconstructed)

    @property
    def n_clusters(self) -> int:
        return self.codes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.codes.shape[1]

    def to_codes(self) -> list[list[int]]:
        return self.codes.tolist()

    def condition_counts(self) -> dict[int, int]:
        """Number of cells holding each code 0-3."""
        return dict(enumerate(np.bincount(self.codes.ravel(), minlength=4).tolist()))

    def indicators(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, W) 0/1 arrays of shape (I, T) for treatments 1 and 2."""
        return (self.codes & 1).astype(float), (self.codes >> 1).astype(float)

    @cached_property
    def sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(gram, cluster_gram, cols, totals)`` of the indicator
        stack (X, W, XW), which the closed form reads: the 3x3 Gram matrices
        of the cells and of the per-cluster totals, the (3, T) per-period
        totals and the grand totals, all integers held exactly as floats.
        The product of two different indicators is XW, so ``gram`` holds the
        totals of X and W on its diagonal and that of XW everywhere else.
        """
        x, w = self.indicators()
        stack = np.array([x, w, x * w])
        rows = stack.sum(axis=2)
        cols = stack.sum(axis=1)
        totals = cols.sum(axis=1)
        gram = np.full((3, 3), totals[2])
        gram[0, 0], gram[1, 1] = totals[0], totals[1]
        sums = gram, rows @ rows.T, cols, totals
        for array in sums:
            array.flags.writeable = False
        return sums

    @cached_property
    def forms(self) -> dict:
        """The closed form's exact coefficients for this grid, one entry per
        analysis, which :mod:`swedge.variance` computes from ``sums`` on
        first use; kept with the grid as ``sums`` is."""
        return {}

    def swap_treatments(self) -> "DesignGrid":
        """Relabel treatment 1 <-> treatment 2 everywhere."""
        swapped = ((self.codes & 1) << 1) | (self.codes >> 1)
        return DesignGrid(swapped, label=self.label, reconstructed=self.reconstructed)

    def permute_clusters(self, order: Sequence[int]) -> "DesignGrid":
        if sorted(order) != list(range(self.n_clusters)):
            raise DesignError("cluster permutation must reorder all rows exactly once")
        return DesignGrid(self.codes[list(order)], label=self.label,
                          reconstructed=self.reconstructed)

    def relabel(self, label: str) -> "DesignGrid":
        return DesignGrid(self.codes, label=label, reconstructed=self.reconstructed)


def validate_design(grid: DesignGrid) -> list[TransitionViolation]:
    """Disallowed between-period transitions, in row-major order.

    A treatment, once started, never stops: a transition is disallowed
    when a bit set in one period is clear in the next.  Whether the
    entries are errors or warnings is the caller's policy.
    """
    codes = grid.codes
    stopped = codes[:, :-1] & ~codes[:, 1:]
    return [
        TransitionViolation(cluster_index=int(i), period_index=int(j) + 1,
                            before=int(codes[i, j]), after=int(codes[i, j + 1]))
        for i, j in zip(*np.nonzero(stopped))
    ]


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
    starts = np.repeat(np.arange(1, sequences + 1), clusters_per_sequence)
    treated = np.arange(sequences + 1) >= starts[:, None]
    return DesignGrid(np.where(treated, treatment, 0), label=label)


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
    return DesignGrid(np.vstack([grid_a.codes, grid_b.codes]), label=label)


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
    codes = _fig2b().codes.copy()
    codes[:, -1] = 3
    return DesignGrid(codes, label="fig5a")


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
    every call.  A grid is read-only, and so is its ``sums``, which every
    caller shares; a derived grid comes from :meth:`DesignGrid.relabel`,
    :meth:`~DesignGrid.swap_treatments` or :meth:`~DesignGrid.permute_clusters`.
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
    label, reconstructed = "", False
    lines = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_HEADER_MAGIC):
                label, reconstructed = _parse_header(line)
            continue
        lines.append((lineno, line))
    # Lines each exactly [0-3](,[0-3])* of one width are read as one buffer,
    # a row of it per line and its "\n"; any other text is read cell by cell.
    width = len(lines[0][1]) + 1 if lines else 0
    body = "".join(line + "\n" for _, line in lines).encode("ascii", "replace")
    chars = np.frombuffer(body, np.uint8)
    if width >= 4 and width % 2 == 0 and chars.size == len(lines) * width:
        chars = chars.reshape(len(lines), width)
        codes = chars[:, ::2] - ord("0")  # wraps below "0" to a large code
        if (codes <= 3).all() and (chars[:, 1::2] == list(b"," * (width // 2 - 1) + b"\n")).all():
            return DesignGrid(codes, label=label, reconstructed=reconstructed)
    codes = [_parse_row(lineno, line) for lineno, line in lines]
    return DesignGrid(codes, label=label, reconstructed=reconstructed)


def _parse_row(lineno: int, line: str) -> list[int]:
    cells = []
    for tok in line.split(","):
        tok = tok.strip()
        try:
            cells.append(int(tok))
        except ValueError:
            raise DesignError(f"line {lineno}: bad cell value {tok!r}") from None
    return cells
