"""Rectangular partitions of the covariate space.

A Partition is J axis-aligned half-open cells {x : lower < x <= upper}
(coordinatewise, infinities allowed), stored as two read-only float64 (J, k)
arrays of lower and upper bounds; row j of both is cell j. Four
constructions are provided, each producing cells that tile R^k exactly:

- gessaman_partition: recursive axis-by-axis equal-count splitting. Axis 0
  splits the sample into T slabs of near-equal size, axis 1 splits each slab,
  and so on, giving J = T^k statistically equivalent blocks whose counts
  differ by at most 1 when coordinate values are distinct.

- rtp_partition: a random tree. Starting from the whole space, repeatedly
  pick the terminal cell holding the most points (ties broken by creation
  order), draw a split axis uniformly from a multiset holding each axis r
  times, and split that cell into T equal-count children perpendicular to
  the drawn axis, consuming one multiset instance. After all k*r draws there
  are J = 1 + k*r*(T - 1) terminal cells, in creation order. The
  most-points selection rule keeps counts within max <= T*min + 1, and when
  k*r = (T^q - 1)/(T-1) every terminal sits at depth q and counts differ by
  at most 1.

- marginal_grid_partition: the product of per-axis equal-count slices.

- product_partition: the product of given per-axis edges (the law grid of
  the Monte Carlo engine is one).

The data-dependent rules share one cut rule, which finds each cut by rank
selection, not by sorting. Group sizes are ceil(m/T) for the first m mod T
groups and floor(m/T) for the rest. The groups are peeled off from the
left: a group's threshold is the value at its nominal size's rank among
the points left, found by one selection, and the group is every point left
at or below it, so a value equal to a threshold belongs to the left cell
and a run of duplicates at a cut stays left. If that exhausts the points
before T strictly increasing thresholds exist, the split is impossible and
InsufficientDataError is raised. A built partition depends only on the
covariate values, not on the order of the rows: a zero threshold is
written 0.0, whichever sign its points' zeros carry.

The data-dependent builders return (partition, cells), cells each row's int64
0-based cell taken from the build; like locate0 they follow lower < x <= upper,
so a value equal to a threshold is in the left cell.

A partition document holds cells (each only lower and upper), origin, seed,
T and r, and partition_from_dict rejects any other key; seed, T and r are
None or integers, checked like every integer argument by errors.as_integer.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import backend
from .errors import InsufficientDataError, InvalidArgumentError, UncoveredPointError
from .errors import as_float_array, as_integer

_INT_FLOORS = {"T": 2, "r": 1, "seed": 0}
_DOCUMENT_META = ("origin", "seed", "T", "r")  # document keys besides cells


@dataclass(frozen=True, eq=False)
class Partition:
    """J disjoint cells {x : lower[j] < x <= upper[j]}, in a fixed order.

    lower and upper are read-only float64 (J, k) arrays; seed, T and r are
    None or ints, checked by as_integer. The constructions in this module
    cover R^k; a partition read from a file need not, and locate0 raises
    UncoveredPointError for a point outside every cell.
    """

    lower: np.ndarray
    upper: np.ndarray
    origin: str = "fixed"  # "fixed" | "gessaman" | "rtp"
    seed: int | None = None
    T: int | None = None
    r: int | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __post_init__(self):
        if self.origin not in ("fixed", "gessaman", "rtp"):
            raise InvalidArgumentError(f"unknown partition origin {self.origin!r}")
        for name, least in _INT_FLOORS.items():
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_integer(name, getattr(self, name), least))
        lo = as_float_array("lower", self.lower, copy=True)
        up = as_float_array("upper", self.upper, copy=True)
        if lo.ndim != 2 or lo.shape != up.shape:
            raise InvalidArgumentError("cell bounds must be two (J, k) arrays of equal shape")
        if lo.shape[0] == 0:
            raise InvalidArgumentError("partition must contain at least one cell")
        if np.isnan(lo).any() or np.isnan(up).any():
            raise InvalidArgumentError("cell bounds must not be NaN")
        if not (lo < up).all():
            raise InvalidArgumentError("cell requires lower < upper in every coordinate")
        lo.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def J(self) -> int:
        return self.lower.shape[0]

    @property
    def k(self) -> int:
        return self.lower.shape[1]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower, self.upper

    def locate0(self, x) -> np.ndarray:
        """0-based cell index per row of x; raises if any row is uncovered."""
        pts = as_float_array("points", x)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.k:
            raise InvalidArgumentError(
                f"points have dimension {pts.shape[1]}, partition has {self.k}"
            )
        idx = backend.locate_cells(pts, self.lower, self.upper)
        if (idx < 0).any():
            bad = int(np.argmax(idx < 0))
            raise UncoveredPointError(f"point at row {bad} lies in no cell")
        return idx


def _builder_input(x, **ints) -> np.ndarray:
    """x as a finite (n, k) float array, after checking the integer arguments."""
    pts = as_float_array("covariates", x)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("covariates contain non-finite values")
    for name, value in ints.items():
        as_integer(name, value, _INT_FLOORS[name])
    return pts


def _cut(rows, col: np.ndarray, T: int) -> tuple[list, list[float]]:
    """Split rows into T groups by their values col[rows]: (groups, thresholds).

    Groups are peeled off from the left one at a time. A group of nominal
    size s (ceil-first) ends at the value top of rank s among the rows left,
    found by one selection; the rows equal to top stay left with it, so the
    group is every row left with a value <= top, and top is its threshold.
    The rows are split by comparing values, not by an argpartition order:
    numpy's scalar introselect leaves values equal to top on both sides of
    it. Each group keeps the order its rows have in rows.
    """
    m = rows.shape[0]
    if m < T:
        raise InsufficientDataError(f"cannot split {m} points into {T} nonempty groups")
    base, extra = divmod(m, T)
    groups, cuts = [], []
    for g in range(T - 1):
        v = col.take(rows)
        # a nominal size past the rows left selects their largest value, and the check raises
        s = min(base + (g < extra), v.shape[0])
        top = np.partition(v, s - 1)[s - 1]
        left = v <= top
        group = rows.compress(left)
        if group.shape[0] == v.shape[0]:
            raise InsufficientDataError(
                f"duplicate coordinate values leave fewer than {T} distinct groups"
            )
        groups.append(group)
        rows = rows.compress(~left)
        # + 0.0 turns a -0.0 threshold into 0.0, so no tie order shows in the output
        cuts.append(float(top) + 0.0)
    return groups + [rows], cuts


def _split_node(rows, lo, up, cols: np.ndarray, axis: int, T: int) -> list:
    """Split the cell (rows, lo, up) along axis into T (rows, lower, upper) children.

    cols is the points in column-major order, (k, n): cols[axis] is one
    contiguous coordinate.
    """
    groups, cuts = _cut(rows, cols[axis], T)
    edges = [lo[axis], *cuts, up[axis]]
    out = []
    for g, child in enumerate(groups):
        nlo = lo.copy()
        nup = up.copy()
        nlo[axis] = edges[g]
        nup[axis] = edges[g + 1]
        out.append((child, nlo, nup))
    return out


def _whole_space(n: int, k: int) -> tuple:
    return np.arange(n), np.full(k, -np.inf), np.full(k, np.inf)


def _boxes_partition(boxes: list, n: int, **meta) -> tuple[Partition, np.ndarray]:
    cells = np.empty(n, dtype=np.int64)
    for j, (rows, _lo, _up) in enumerate(boxes):
        cells[rows] = j
    part = Partition(np.array([b[1] for b in boxes]), np.array([b[2] for b in boxes]), **meta)
    return part, cells


def gessaman_partition(x, T: int) -> tuple[Partition, np.ndarray]:
    """Recursive equal-count partition into J = T^k cells.

    Needs at least T^k observations. With distinct coordinate values the
    terminal counts differ by at most 1. Returns (partition, each row's cell).
    """
    pts = _builder_input(x, T=T)
    T = int(T)  # numpy integers would wrap around in T**k
    n, k = pts.shape
    if n < T**k:
        raise InsufficientDataError(f"need at least T^k = {T**k} points, got {n}")
    cols = np.ascontiguousarray(pts.T)
    slabs = [_whole_space(n, k)]
    for d in range(k):
        slabs = [child for slab in slabs for child in _split_node(*slab, cols, d, T)]
    return _boxes_partition(slabs, n, origin="gessaman", T=T)


def product_partition(edges: list[list[float]]) -> Partition:
    """Product of the per-axis slices (edges[d][i], edges[d][i + 1]].

    Every axis has the same number T of slices; cells are ordered with the
    last axis varying fastest.
    """
    lower = list(itertools.product(*(e[:-1] for e in edges)))
    upper = list(itertools.product(*(e[1:] for e in edges)))
    return Partition(np.array(lower), np.array(upper), origin="fixed", T=len(edges[0]) - 1)


def marginal_grid_partition(x, T: int) -> tuple[Partition, np.ndarray]:
    """Product partition from per-axis marginal equal-count edges.

    Each axis is cut independently at its own equal-count thresholds, by
    the cut rule of the recursive splits, giving J = T^k cells. Unlike
    gessaman_partition the cuts of one axis do not condition on the others,
    so this is the natural "grid" rule for raw data with an unknown
    covariate law. Returns (partition, each row's cell).
    """
    pts = _builder_input(x, T=T)
    n = pts.shape[0]
    if n < T:
        raise InsufficientDataError(f"need at least T = {T} points, got {n}")
    edges_per_axis = []
    cells = np.zeros(n, dtype=np.int64)
    every = np.arange(n)
    for col in pts.T:
        groups, cuts = _cut(every, col, T)
        edges_per_axis.append([-np.inf] + cuts + [np.inf])
        # group i is slice i, (cuts[i-1], cuts[i]]; the last axis varies fastest, as in
        # product_partition
        cells *= T
        for i, rows in enumerate(groups):
            cells[rows] += i
    return product_partition(edges_per_axis), cells


def _equal_depth_counts(k: int, r: int, T: int) -> list[int]:
    """Axis multiplicities summing to the smallest (T^q - 1)/(T - 1) >= k*r."""
    total = 1  # (T^q - 1)/(T - 1) at q = 1; the next q has T * total + 1
    while total < k * r:
        total = T * total + 1
    base, extra = divmod(total, k)
    return [base + 1] * extra + [base] * (k - extra)


def rtp_partition(
    x, T: int, r: int, seed: int, equal_depth: bool = False
) -> tuple[Partition, np.ndarray]:
    """Random tree partition into J = 1 + k*r*(T - 1) cells.

    Reproducible: the split axes are the only random choices and come from a
    Philox-seeded generator, so equal (x, T, r, seed) give equal output.
    With equal_depth=True the axis multiset is reshaped so the total number
    of splits is the smallest (T^q - 1)/(T - 1) >= k*r, which forces all
    terminals to the same depth. Returns (partition, cells): the partition's
    cells in creation order, and the int64 0-based cell of each row of x.
    """
    pts = _builder_input(x, T=T, r=r, seed=seed)
    T, r = int(T), int(r)  # numpy integers would wrap around in J
    n, k = pts.shape
    counts = _equal_depth_counts(k, r, T) if equal_depth else [r] * k
    J = 1 + sum(counts) * (T - 1)
    if n < J:  # before the axis multiset exists, so an absurd r allocates nothing
        raise InsufficientDataError(f"need n >= J = {J} points, got {n}")

    pool = np.repeat(np.arange(k), counts).tolist()  # the axis multiset, sorted
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cols = np.ascontiguousarray(pts.T)
    terminals = [_whole_space(n, k)]  # (rows, lower, upper) in creation order
    sizes = [n]  # point count of each terminal
    while pool:
        # most points first; ties go to the earliest-created terminal
        i = sizes.index(max(sizes))
        axis = pool.pop(int(rng.integers(len(pool))))
        children = _split_node(*terminals.pop(i), cols, axis, T)
        sizes.pop(i)
        terminals.extend(children)
        sizes.extend(child[0].shape[0] for child in children)
    return _boxes_partition(terminals, n, origin="rtp", seed=seed, T=T, r=r)


def _bound_to_json(v: float):
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return float(v)


def _bound_from_json(v, j: int) -> float:
    """A finite JSON number (not a bool), or exactly "inf" or "-inf"."""
    if v == "inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    # Python compares ints and floats exactly, so this also bars huge ints and NaN
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise InvalidArgumentError(
        f'cell {j} bounds must be finite numbers, "inf" or "-inf", got {v!r}'
    )


def partition_to_dict(p: Partition) -> dict:
    """JSON-ready document; bit-exact round trip through partition_from_dict."""
    return {
        "cells": [
            {
                "lower": [_bound_to_json(v) for v in lo],
                "upper": [_bound_to_json(v) for v in up],
            }
            for lo, up in zip(p.lower, p.upper)
        ],
        **{key: getattr(p, key) for key in _DOCUMENT_META},
    }


def _require_disjoint(part: Partition) -> None:
    """Raise if two cells share interior points; shared faces are allowed."""
    lo, up = part.lower, part.upper
    for a in range(part.J - 1):
        # (lo_a, up_a] and (lo_b, up_b] meet iff max(lo) < min(up) on every axis
        meet = (np.maximum(lo[a], lo[a + 1 :]) < np.minimum(up[a], up[a + 1 :])).all(axis=1)
        if meet.any():
            b = a + 1 + int(np.argmax(meet))
            raise InvalidArgumentError(f"partition cells {a} and {b} overlap")


def partition_from_dict(doc: dict) -> Partition:
    """Partition from its dict form; the cells must be pairwise disjoint."""
    try:
        if not isinstance(doc, dict):
            raise InvalidArgumentError("the document must be a JSON object")
        unknown = [key for key in doc if key != "cells" and key not in _DOCUMENT_META]
        if unknown:
            raise InvalidArgumentError(f"unknown keys {unknown}")
        lower, upper = [], []
        for j, cell in enumerate(doc["cells"]):
            if not isinstance(cell, dict) or cell.keys() != {"lower", "upper"}:
                raise InvalidArgumentError(f"cell {j} must hold exactly lower and upper")
            lower.append([_bound_from_json(v, j) for v in cell["lower"]])
            upper.append([_bound_from_json(v, j) for v in cell["upper"]])
        part = Partition(
            np.array(lower),
            np.array(upper),
            **{key: doc[key] for key in _DOCUMENT_META if key in doc},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed partition document: {exc}") from exc
    _require_disjoint(part)
    return part

