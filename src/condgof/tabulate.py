"""The response-bin grid and the L x J contingency table.

The unit interval is cut into L bins by a grid of thresholds; bin ell is
the half-open interval (t_{ell-1}, t_ell], with v = 0 assigned to bin 1.
Cross-classifying the bin index of each response (models.bin_pivots) against
the covariate-partition cell of its row gives the observed table O, whose
column sums are the partition cell counts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError, InvalidArgumentError
from .models import bin_pivots
from .partition import Partition


@dataclass(frozen=True, eq=False)
class UGrid:
    """Strictly increasing thresholds 0 = t_0 < t_1 < ... < t_L = 1."""

    thresholds: np.ndarray

    def __post_init__(self):
        t = np.array(self.thresholds, dtype=np.float64, copy=True)
        if t.ndim != 1 or t.shape[0] < 2:
            raise InvalidArgumentError("grid needs at least two thresholds")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise InvalidArgumentError("grid must start at 0 and end at 1")
        if not (np.diff(t) > 0).all():
            raise InvalidArgumentError("grid thresholds must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "thresholds", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UGrid):
            return NotImplemented
        return np.array_equal(self.thresholds, other.thresholds)

    @property
    def L(self) -> int:
        return self.thresholds.shape[0] - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.thresholds)


def balanced_grid(L: int) -> UGrid:
    """Equal-width grid with thresholds ell / L."""
    if L < 1:
        raise InvalidArgumentError(f"L must be >= 1, got {L}")
    return UGrid(np.arange(L + 1, dtype=np.float64) / L)


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Observed counts O (L x J) plus the margins the statistics need."""

    O: np.ndarray
    column_counts: np.ndarray
    n: int
    widths: np.ndarray
    q_hat: np.ndarray

    def __post_init__(self):
        O = np.array(self.O, dtype=np.int64, copy=True)
        if O.ndim != 2:
            raise InvalidArgumentError("O must be a 2-d count matrix")
        if (O < 0).any():
            raise InvalidArgumentError("counts must be nonnegative")
        col = np.array(self.column_counts, dtype=np.int64, copy=True)
        widths = np.array(self.widths, dtype=np.float64, copy=True)
        if col.shape != (O.shape[1],) or widths.shape != (O.shape[0],):
            raise InvalidArgumentError("margin shapes do not match O")
        if not np.array_equal(O.sum(axis=0), col):
            raise InvalidArgumentError("column_counts must equal column sums of O")
        if int(O.sum()) != int(self.n):
            raise InvalidArgumentError("n must equal the total count")
        if (widths <= 0).any() or abs(widths.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("widths must be positive and sum to 1")
        q = np.array(self.q_hat, dtype=np.float64, copy=True)
        for arr in (O, col, widths, q):
            arr.flags.writeable = False
        object.__setattr__(self, "O", O)
        object.__setattr__(self, "column_counts", col)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "q_hat", q)

    @property
    def L(self) -> int:
        return self.O.shape[0]

    @property
    def J(self) -> int:
        return self.O.shape[1]


def cross_classify(v, x, grid: UGrid, partition: Partition) -> ContingencyTable:
    """Count observations per (response bin, covariate cell) pair; v lies in [0, 1]."""
    cells = partition.locate0(x)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidArgumentError("v must be 1-d")
    if np.isnan(v).any() or (v < 0.0).any() or (v > 1.0).any():
        raise InvalidArgumentError("transformed responses must lie in [0, 1]")
    if cells.shape[0] != v.shape[0]:
        raise InvalidArgumentError(
            f"v has {v.shape[0]} rows but x has {cells.shape[0]}"
        )
    return tabulate_cells(bin_pivots(v, grid.thresholds), cells, grid, partition.J)


def tabulate_cells(bins: np.ndarray, cells: np.ndarray, grid: UGrid, J: int) -> ContingencyTable:
    """The table of rows with the given 0-based response bins and covariate cells."""
    O = np.bincount(bins * J + cells, minlength=grid.L * J).reshape(grid.L, J)
    n = bins.shape[0]
    col = O.sum(axis=0)
    return ContingencyTable(
        O=O,
        column_counts=col,
        n=n,
        widths=grid.widths,
        q_hat=col / n,
    )


def require_positive_columns(table: ContingencyTable) -> None:
    """Raise EmptyCellError when any covariate cell holds no observations."""
    if (table.column_counts == 0).any():
        j = int(np.argmax(table.column_counts == 0))
        raise EmptyCellError(f"covariate cell {j + 1} has zero observations")
