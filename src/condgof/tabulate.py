"""The response-bin grid and the L x J contingency table.

The unit interval is cut into L bins by a grid of thresholds; bin ell is
the half-open interval (t_{ell-1}, t_ell], with v = 0 assigned to bin 1.
tabulate_cells cross-classifies each row's 0-based response bin
(models.response_bins) against its 0-based covariate cell, which as_cells
checks, and gives the observed table O. A table is its counts plus its
grid; the margins derive from O, so its column sums are the partition cell
counts by construction. Tables and grids are immutable, so each margin is
computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyCellError, InvalidArgumentError, as_float_array, as_integer


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class UGrid:
    """Strictly increasing thresholds 0 = t_0 < t_1 < ... < t_L = 1."""

    thresholds: np.ndarray

    def __post_init__(self):
        t = as_float_array("thresholds", self.thresholds, copy=True)
        if t.ndim != 1 or t.shape[0] < 2:
            raise InvalidArgumentError("grid needs at least two thresholds")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise InvalidArgumentError("grid must start at 0 and end at 1")
        if not (np.diff(t) > 0).all():
            raise InvalidArgumentError("grid thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", _read_only(t))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UGrid):
            return NotImplemented
        return np.array_equal(self.thresholds, other.thresholds)

    @property
    def L(self) -> int:
        return self.thresholds.shape[0] - 1

    @cached_property
    def widths(self) -> np.ndarray:
        return _read_only(np.diff(self.thresholds))


def balanced_grid(L: int) -> UGrid:
    """Equal-width grid with thresholds ell / L."""
    L = as_integer("L", L, 1)
    return UGrid(np.arange(L + 1, dtype=np.float64) / L)


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Counts plus grid: observed counts O (L x J) binned on grid.

    O holds integers or whole-valued floats (3.0); ragged lists and
    fractional, NaN, infinite, boolean and string counts are rejected, as
    is a grid that is not a UGrid.

    The margins derive from O: column_counts N_j are its column sums, n its
    total, q_hat = N_j / n and expected = w_l N_j, for the grid's bin widths
    w_l. Each is computed once, on first read, and is read-only.
    """

    O: np.ndarray
    grid: UGrid

    def __post_init__(self):
        if not isinstance(self.grid, UGrid):
            raise InvalidArgumentError(f"grid must be a UGrid, got {type(self.grid).__name__}")
        try:
            O = np.asarray(self.O)
        except ValueError:  # a ragged nested list
            raise InvalidArgumentError("O must be a 2-d count matrix, got a ragged list") from None
        if O.dtype.kind not in "iuf":
            raise InvalidArgumentError(f"counts must be whole numbers, got {O.dtype} values")
        if O.dtype.kind == "f":
            whole = (np.abs(O) < 2.0**63) & (O == np.round(O))  # False at NaN and inf
            if not whole.all():
                raise InvalidArgumentError(f"counts must be whole numbers, got {O[~whole][0]}")
        O = np.array(O, dtype=np.int64, copy=True)
        if O.ndim != 2:
            raise InvalidArgumentError("O must be a 2-d count matrix")
        if (O < 0).any():
            raise InvalidArgumentError("counts must be nonnegative")
        if O.shape[0] != self.grid.L:
            raise InvalidArgumentError(
                f"O has {O.shape[0]} rows but the grid has {self.grid.L} bins"
            )
        object.__setattr__(self, "O", _read_only(O))

    @property
    def L(self) -> int:
        return self.grid.L

    @property
    def J(self) -> int:
        return self.O.shape[1]

    @property
    def widths(self) -> np.ndarray:
        return self.grid.widths

    @cached_property
    def column_counts(self) -> np.ndarray:
        return _read_only(self.O.sum(axis=0))

    @cached_property
    def n(self) -> int:
        return int(self.O.sum())

    @cached_property
    def q_hat(self) -> np.ndarray:
        return _read_only(self.column_counts / self.n)

    @cached_property
    def expected(self) -> np.ndarray:
        return _read_only(np.outer(self.widths, self.column_counts.astype(np.float64)))


def as_cells(cells, n: int, J: int, counts: np.ndarray | None = None) -> np.ndarray:
    """cells as int64: the one check of the covariate cell of each of n rows.

    cells must be a 1-d integer array of n values in [0, J); with counts, the
    column counts of a table binned with these cells, np.bincount(cells) must
    equal them. InvalidArgumentError otherwise. Rows permuted against the
    data keep the counts, so such cells cannot be detected.
    """
    try:
        arr = np.asarray(cells)
        ok = arr.dtype.kind in "iu" and arr.shape == (n,)
    except ValueError:  # a ragged nested list
        ok = False
    if not ok:
        raise InvalidArgumentError(f"cells must be a 1-d integer array of {n} values")
    lo, hi = arr.min(), arr.max()
    if lo < 0 or hi >= J:
        raise InvalidArgumentError(f"cells must lie in [0, {J}), got values from {lo} to {hi}")
    arr = arr.astype(np.int64, copy=False)
    if counts is not None and not np.array_equal(np.bincount(arr, minlength=J), counts):
        raise InvalidArgumentError("cells do not give the table's column counts")
    return arr


def tabulate_cells(bins: np.ndarray, cells: np.ndarray, grid: UGrid, J: int) -> ContingencyTable:
    """The table of rows with the given 0-based response bins and covariate cells."""
    return ContingencyTable(
        np.bincount(bins * J + cells, minlength=grid.L * J).reshape(grid.L, J), grid
    )


def require_positive_columns(table: ContingencyTable) -> None:
    """Raise EmptyCellError when any covariate cell holds no observations."""
    if (table.column_counts == 0).any():
        j = int(np.argmax(table.column_counts == 0))
        raise EmptyCellError(f"covariate cell {j + 1} has zero observations")
