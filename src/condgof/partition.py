"""Data-dependent rectangular partitions of the covariate space.

Two constructions are provided, both producing axis-aligned half-open cells
(lower < x <= upper coordinatewise) that tile R^k exactly:

- gessaman_partition: recursive axis-by-axis equal-count splitting. Axis 0
  splits the sample into T slabs of near-equal size, axis 1 splits each slab,
  and so on, giving J = T^k statistically equivalent blocks whose counts
  differ by at most 1 when coordinate values are distinct.

- rtp_partition: a random tree. Starting from the whole space, repeatedly
  pick the terminal node holding the most points (ties broken by creation
  order), draw a split axis uniformly from a multiset holding each axis r
  times, and split that node into T equal-count children perpendicular to
  the drawn axis, consuming one multiset instance. After all k*r draws the
  tree has J = 1 + k*r*(T - 1) terminal cells. The most-points selection
  rule keeps counts within max <= T*min + 1, and when k*r = (T^q - 1)/(T-1)
  every terminal sits at depth q and counts differ by at most 1.

Both use the same split primitive: group sizes are ceil(m/T) for the first
m mod T groups and floor(m/T) for the rest, ties in coordinate values are
broken by original row order, and each threshold is placed at the value of
the last point of its left group, so a value equal to a threshold belongs
to the left cell. Duplicate values straddling a nominal cut are pushed left
as a block; if that exhausts the points before T strictly increasing
thresholds exist, the split is impossible and InsufficientDataError is
raised.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import InsufficientDataError, InvalidArgumentError, UncoveredPointError


@dataclass(frozen=True, eq=False)
class Cell:
    """Axis-aligned rectangle {x : lower < x <= upper}, infinities allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )

    def __post_init__(self):
        lo = np.array(self.lower, dtype=np.float64, copy=True)
        up = np.array(self.upper, dtype=np.float64, copy=True)
        if lo.ndim != 1 or lo.shape != up.shape:
            raise InvalidArgumentError("cell bounds must be 1-d arrays of equal length")
        if not (lo < up).all():
            raise InvalidArgumentError("cell requires lower < upper in every coordinate")
        if np.isnan(lo).any() or np.isnan(up).any():
            raise InvalidArgumentError("cell bounds must not be NaN")
        lo.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def k(self) -> int:
        return self.lower.shape[0]

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(((p > self.lower) & (p <= self.upper)).all())


@dataclass(eq=False)
class Partition:
    """An ordered list of disjoint cells covering R^k."""

    cells: list[Cell]
    origin: str  # "fixed" | "gessaman" | "rtp"
    seed: int | None = None
    T: int | None = None
    r: int | None = None
    _lows: np.ndarray | None = field(default=None, repr=False)
    _ups: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.cells == other.cells
            and self.origin == other.origin
            and self.seed == other.seed
            and self.T == other.T
            and self.r == other.r
        )

    def __post_init__(self):
        if self.origin not in ("fixed", "gessaman", "rtp"):
            raise InvalidArgumentError(f"unknown partition origin {self.origin!r}")
        if not self.cells:
            raise InvalidArgumentError("partition must contain at least one cell")
        k = self.cells[0].k
        if any(c.k != k for c in self.cells):
            raise InvalidArgumentError("all cells must share the same dimension")

    @property
    def J(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return self.cells[0].k

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self._lows is None:
            self._lows = np.vstack([c.lower for c in self.cells])
            self._ups = np.vstack([c.upper for c in self.cells])
        return self._lows, self._ups

    def locate0(self, x) -> np.ndarray:
        """0-based cell index per row of x; raises if any row is uncovered."""
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.k:
            raise InvalidArgumentError(
                f"points have dimension {pts.shape[1]}, partition has {self.k}"
            )
        lo, up = self.bounds()
        idx = backend.locate_cells(pts, lo, up)
        if (idx < 0).any():
            bad = int(np.argmax(idx < 0))
            raise UncoveredPointError(f"point at row {bad} lies in no cell")
        return idx


def locate_cell(partition: Partition, point) -> int:
    """1-based index of the cell containing a single point."""
    return int(partition.locate0(np.atleast_2d(np.asarray(point, dtype=np.float64)))[0]) + 1


def cell_counts(partition: Partition, x) -> np.ndarray:
    """Number of rows of x in each cell, ordered like partition.cells."""
    return np.bincount(partition.locate0(x), minlength=partition.J)


def _split_cuts(sorted_vals: np.ndarray, T: int) -> list[int]:
    """End positions (exclusive) of the first T-1 groups in sorted order.

    Group sizes follow the ceil-first rule; a cut landing inside a run of
    duplicates advances to the end of the run so the full run stays left.
    """
    m = sorted_vals.shape[0]
    if m < T:
        raise InsufficientDataError(f"cannot split {m} points into {T} nonempty groups")
    base, extra = divmod(m, T)
    sizes = [base + 1] * extra + [base] * (T - extra)
    cuts = []
    pos = 0
    for g in range(T - 1):
        pos += sizes[g]
        if cuts:
            pos = max(pos, cuts[-1] + 1)
        while pos < m and sorted_vals[pos] == sorted_vals[pos - 1]:
            pos += 1
        if pos >= m:
            raise InsufficientDataError(
                f"duplicate coordinate values leave fewer than {T} distinct groups"
            )
        cuts.append(pos)
    return cuts


def _split_node(idx: np.ndarray, coord: np.ndarray, lo_d: float, up_d: float, T: int):
    """Split the rows `idx` along one axis into T (indices, lower, upper) parts."""
    order = np.argsort(coord, kind="stable")  # stable: ties keep row order
    sorted_vals = coord[order]
    cuts = _split_cuts(sorted_vals, T)
    edges = [lo_d] + [float(sorted_vals[c - 1]) for c in cuts] + [up_d]
    if any(edges[i] >= edges[i + 1] for i in range(T)):
        raise InsufficientDataError(
            "split thresholds are not strictly inside the cell bounds"
        )
    out = []
    start = 0
    for g in range(T):
        stop = cuts[g] if g < T - 1 else idx.shape[0]
        out.append((idx[order[start:stop]], edges[g], edges[g + 1]))
        start = stop
    return out


def gessaman_partition(x, T: int) -> Partition:
    """Recursive equal-count partition into J = T^k cells.

    Needs at least T^k observations. With distinct coordinate values the
    terminal counts differ by at most 1.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("covariates contain non-finite values")
    n, k = pts.shape
    if T < 2:
        raise InvalidArgumentError(f"T must be >= 2, got {T}")
    if n < T**k:
        raise InsufficientDataError(f"need at least T^k = {T**k} points, got {n}")

    ninf = np.full(k, -np.inf)
    pinf = np.full(k, np.inf)
    slabs = [(np.arange(n), ninf, pinf)]
    for d in range(k):
        nxt = []
        for idx, lo, up in slabs:
            for sub, e_lo, e_hi in _split_node(idx, pts[idx, d], lo[d], up[d], T):
                nlo = lo.copy()
                nup = up.copy()
                nlo[d] = e_lo
                nup[d] = e_hi
                nxt.append((sub, nlo, nup))
        slabs = nxt
    cells = [Cell(lo, up) for _, lo, up in slabs]
    return Partition(cells, origin="gessaman", T=T)


def product_partition(edges: list[list[float]]) -> Partition:
    """Product of the per-axis slices (edges[d][i], edges[d][i + 1]].

    Every axis has the same number T of slices; cells are ordered with the
    last axis varying fastest.
    """
    slices = [list(zip(e[:-1], e[1:])) for e in edges]
    cells = [
        Cell(np.array([lo for lo, _ in box]), np.array([up for _, up in box]))
        for box in itertools.product(*slices)
    ]
    return Partition(cells, origin="fixed", T=len(slices[0]))


def marginal_grid_partition(x, T: int) -> Partition:
    """Product partition from per-axis marginal equal-count edges.

    Each axis is cut independently at its own equal-count thresholds (same
    ceil-first and last-point-left conventions as the recursive splits),
    giving J = T^k cells. Unlike gessaman_partition the cuts of one axis do
    not condition on the others, so this is the natural "grid" rule for raw
    data with an unknown covariate law.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("covariates contain non-finite values")
    n, k = pts.shape
    if T < 2:
        raise InvalidArgumentError(f"T must be >= 2, got {T}")
    if n < T:
        raise InsufficientDataError(f"need at least T = {T} points, got {n}")
    edges_per_axis = []
    for d in range(k):
        vals = np.sort(pts[:, d], kind="stable")
        cuts = _split_cuts(vals, T)
        edges_per_axis.append([-np.inf] + [float(vals[c - 1]) for c in cuts] + [np.inf])
    return product_partition(edges_per_axis)


class AxisMultiset:
    """Multiset over axes 0..k-1, each initially with multiplicity r."""

    def __init__(self, k: int, r: int):
        if k < 1 or r < 1:
            raise InvalidArgumentError("k and r must be >= 1")
        self.counts = np.full(k, r, dtype=np.int64)

    @classmethod
    def from_counts(cls, counts) -> "AxisMultiset":
        ms = cls.__new__(cls)
        ms.counts = np.asarray(counts, dtype=np.int64).copy()
        if (ms.counts < 0).any() or ms.counts.sum() < 1:
            raise InvalidArgumentError("multiset counts must be nonnegative, nonempty")
        return ms

    def __len__(self) -> int:
        return int(self.counts.sum())

    def draw(self, rng: np.random.Generator) -> int:
        """Multiplicity-weighted uniform draw of an axis (not yet removed)."""
        total = int(self.counts.sum())
        if total == 0:
            raise InvalidArgumentError("cannot draw from an empty multiset")
        u = int(rng.integers(total))
        return int(np.searchsorted(np.cumsum(self.counts), u, side="right"))

    def remove(self, axis: int) -> None:
        if self.counts[axis] <= 0:
            raise InvalidArgumentError(f"axis {axis} has no remaining instances")
        self.counts[axis] -= 1


@dataclass(eq=False)
class RtpNode:
    """Tree node: terminal with a cell, or split into T children."""

    cell: Cell
    creation_index: int
    point_idx: np.ndarray
    split_axis: int | None = None
    thresholds: np.ndarray | None = None
    children: list["RtpNode"] | None = None

    @property
    def terminal(self) -> bool:
        return self.children is None

    @property
    def count(self) -> int:
        return self.point_idx.shape[0]


@dataclass(eq=False)
class RtpTree:
    root: RtpNode
    k: int
    T: int
    r: int
    seed: int

    def terminal_nodes(self) -> list[RtpNode]:
        """Terminal nodes in creation order."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.terminal:
                out.append(node)
            else:
                stack.extend(node.children)
        out.sort(key=lambda nd: nd.creation_index)
        return out

    def split_axis_counts(self) -> np.ndarray:
        """How many times each axis was used for a split."""
        counts = np.zeros(self.k, dtype=np.int64)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.terminal:
                counts[node.split_axis] += 1
                stack.extend(node.children)
        return counts


def _equal_depth_counts(k: int, r: int, T: int) -> np.ndarray:
    """Axis multiplicities summing to the smallest (T^q - 1)/(T - 1) >= k*r."""
    target = k * r
    total = 1
    q = 1
    while total < target:
        q += 1
        total = (T**q - 1) // (T - 1)
    base, extra = divmod(total, k)
    counts = np.full(k, base, dtype=np.int64)
    counts[:extra] += 1
    return counts


def rtp_partition(
    x, T: int, r: int, seed: int, equal_depth: bool = False
) -> tuple[Partition, RtpTree]:
    """Random tree partition into J = 1 + k*r*(T - 1) cells.

    Reproducible: the split axes are the only random choices and come from a
    Philox-seeded generator, so equal (x, T, r, seed) give equal output.
    With equal_depth=True the axis multiset is reshaped so the total number
    of splits is the smallest (T^q - 1)/(T - 1) >= k*r, which forces all
    terminals to the same depth.
    """
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("covariates contain non-finite values")
    n, k = pts.shape
    if T < 2:
        raise InvalidArgumentError(f"T must be >= 2, got {T}")
    if r < 1:
        raise InvalidArgumentError(f"r must be >= 1, got {r}")

    if equal_depth:
        multiset = AxisMultiset.from_counts(_equal_depth_counts(k, r, T))
    else:
        multiset = AxisMultiset(k, r)
    n_splits = len(multiset)
    J = 1 + n_splits * (T - 1)
    if n < J:
        raise InsufficientDataError(f"need n >= J = {J} points, got {n}")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    root = RtpNode(
        cell=Cell(np.full(k, -np.inf), np.full(k, np.inf)),
        creation_index=0,
        point_idx=np.arange(n),
    )
    terminals = [root]
    next_index = 1
    while len(multiset) > 0:
        # most points first; ties go to the earliest-created node
        node = terminals[0]
        for cand in terminals[1:]:
            if cand.count > node.count:
                node = cand
        axis = multiset.draw(rng)
        multiset.remove(axis)
        parts = _split_node(
            node.point_idx,
            pts[node.point_idx, axis],
            float(node.cell.lower[axis]),
            float(node.cell.upper[axis]),
            T,
        )
        children = []
        thresholds = []
        for sub, e_lo, e_hi in parts:
            nlo = node.cell.lower.copy()
            nup = node.cell.upper.copy()
            nlo[axis] = e_lo
            nup[axis] = e_hi
            children.append(
                RtpNode(cell=Cell(nlo, nup), creation_index=next_index, point_idx=sub)
            )
            next_index += 1
            if e_hi != node.cell.upper[axis]:
                thresholds.append(e_hi)
        node.split_axis = axis
        node.thresholds = np.asarray(thresholds)
        node.children = children
        terminals.remove(node)
        terminals.extend(children)
        terminals.sort(key=lambda nd: nd.creation_index)

    tree = RtpTree(root=root, k=k, T=T, r=r, seed=int(seed))
    cells = [nd.cell for nd in tree.terminal_nodes()]
    part = Partition(cells, origin="rtp", seed=int(seed), T=T, r=r)
    return part, tree


def _bound_to_json(v: float):
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return float(v)


def _bound_from_json(v) -> float:
    if v == "inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    return float(v)


def partition_to_dict(p: Partition) -> dict:
    """JSON-ready document; bit-exact round trip through partition_from_dict."""
    return {
        "cells": [
            {
                "lower": [_bound_to_json(v) for v in c.lower],
                "upper": [_bound_to_json(v) for v in c.upper],
            }
            for c in p.cells
        ],
        "origin": p.origin,
        "seed": None if p.seed is None else int(p.seed),
        "T": None if p.T is None else int(p.T),
        "r": None if p.r is None else int(p.r),
    }


def _require_disjoint(part: Partition) -> None:
    """Raise if two cells share interior points; shared faces are allowed."""
    lo, up = part.bounds()
    for a in range(part.J - 1):
        # (lo_a, up_a] and (lo_b, up_b] meet iff max(lo) < min(up) on every axis
        meet = (np.maximum(lo[a], lo[a + 1 :]) < np.minimum(up[a], up[a + 1 :])).all(axis=1)
        if meet.any():
            b = a + 1 + int(np.argmax(meet))
            raise InvalidArgumentError(f"partition cells {a} and {b} overlap")


def partition_from_dict(doc: dict) -> Partition:
    """Partition from its dict form; the cells must be pairwise disjoint."""
    try:
        cells = [
            Cell(
                np.array([_bound_from_json(v) for v in c["lower"]]),
                np.array([_bound_from_json(v) for v in c["upper"]]),
            )
            for c in doc["cells"]
        ]
        origin = doc.get("origin", "fixed")
        seed = doc.get("seed")
        T = doc.get("T")
        r = doc.get("r")
        part = Partition(
            cells,
            origin=origin,
            seed=None if seed is None else int(seed),
            T=None if T is None else int(T),
            r=None if r is None else int(r),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed partition document: {exc}") from exc
    _require_disjoint(part)
    return part


def partition_to_json(p: Partition) -> str:
    return json.dumps(partition_to_dict(p), indent=2)


def partition_from_json(text: str) -> Partition:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"invalid partition JSON: {exc}") from exc
    return partition_from_dict(doc)
