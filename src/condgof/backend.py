"""Numerical kernels: special functions and cell location.

Built partitions hand over each row's cell, so locate_cells serves only a
partition file, the Monte Carlo law grid and direct Partition.locate0
callers such as estimate.min_chisq_estimate. It cuts each axis at the
distinct finite cell bounds, paints each box's range of slots into a
table, and reads each point's cell at its slot: O(n·k·log J) once the
table is built. A partition whose table would hold more than _TABLE_CAP
entries falls back to the O(n·J·k) box scan _locate_scan, which is also
the table's test oracle. A point with a NaN or -inf coordinate lies in no
cell. The normal special functions come from the standard library.

- normal_cdf: the standard library's math.erfc, mapped over an array
  element by element; normal_cdf states its measured accuracy.
- std_normal_quantile: statistics.NormalDist().inv_cdf (Wichura's AS241),
  within 3.6 ulp of mpmath at every interior threshold of balanced_grid(L)
  for L <= 64 and at i/T for T <= 8.
- _chisq_sf_scalar: regularized upper incomplete gamma Q(df/2, x/2) via a
  lower-tail power series for small x and, for the upper tail, Cephes'
  igamc continued fraction evaluated by its three-term recurrence, with
  numerator and denominator rescaled together against overflow; chisq_sf
  states its measured accuracy.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import InvalidArgumentError

_MACHEP = 1.1102230246251565e-16
_SQRT2 = math.sqrt(2.0)


def _chisq_sf_scalar(x: float, df: float) -> float:
    if x <= 0.0:
        return 1.0
    a = 0.5 * df
    x2 = 0.5 * x
    lf = a * math.log(x2) - x2 - math.lgamma(a)
    if x < df + 1.0:
        # lower-tail power series, complemented
        fac = math.exp(lf)
        r = a
        c = 1.0
        s = 1.0
        # the terms needed grow like sqrt(df) near the median x = df
        for _ in range(3000 + int(40.0 * math.sqrt(df))):
            r += 1.0
            c *= x2 / r
            s += c
            if c <= s * _MACHEP:
                break
        return 1.0 - fac * s / a
    # upper-tail continued fraction
    if lf < -745.0:
        return 0.0
    fac = math.exp(lf)
    big = 4.503599627370496e15
    biginv = 2.220446049250313e-16
    y = 1.0 - a
    z = x2 + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x2
    pkm1 = x2 + 1.0
    qkm1 = z * x2
    ans = pkm1 / qkm1
    for _ in range(3000):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > big:
            pkm2 *= biginv
            pkm1 *= biginv
            qkm2 *= biginv
            qkm1 *= biginv
        if t <= _MACHEP:
            break
    return ans * fac


_erfc_ufunc = np.frompyfunc(math.erfc, 1, 1)  # object-dtype results


def normal_cdf(z):
    """Standard normal CDF over a 1-d array, 0.5 * math.erfc(-z / sqrt(2)) element by element.

    -inf maps to 0, +inf to 1 and NaN to NaN. Measured against mpmath:
    absolute error below 2e-16 on [-40, 40], and relative error within
    70 ulp on [-6, 6]. math.erfc itself is within 4 ulp on [-6, 27]; the
    rest is the rounding of -z / sqrt(2), which the lower tail magnifies
    about z^2-fold.
    """
    u = -np.ascontiguousarray(z, dtype=np.float64) / _SQRT2
    return 0.5 * _erfc_ufunc(u).astype(np.float64)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF at a level strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError(f"quantile level must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def chisq_sf(x: float, df) -> float:
    """Chi-square survival function P(X > x) with df degrees of freedom.

    Regularized upper incomplete gamma Q(df/2, x/2): a power series below
    x = df + 1 and a continued fraction above. Absolute error, measured
    against mpmath at x = df + z * sqrt(2 df) for z in [-6, 10] over about
    120 values of df per range: below 2e-14 for df <= 100, 5e-13 for
    df <= 10^3, 7e-12 for df <= 10^4, 6e-11 for df <= 10^5 and 7e-10 for
    df <= 10^6. The error comes from rounding in the log prefactor and grows
    with df; no bound is stated above 10^6.
    """
    df = float(df)
    x = float(x)
    if not 1.0 <= df < math.inf or df != math.floor(df):
        raise InvalidArgumentError(f"df must be a positive integer, got {df}")
    if math.isnan(x):
        raise InvalidArgumentError("x must not be NaN")
    if x < 0.0:
        raise InvalidArgumentError(f"x must be nonnegative, got {x}")
    if x == math.inf:
        return 0.0
    return _chisq_sf_scalar(x, df)


# Most entries of locate_cells' int32 slot table (16 MB); larger partitions are scanned.
_TABLE_CAP = 1 << 22


def locate_cells(points: np.ndarray, lows: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """Index (0-based) of the first cell containing each point, -1 if none.

    Membership is lower < x <= upper in every coordinate, so a point inside
    several cells gets the first, and a NaN or -inf coordinate lies in no
    cell while +inf lies in a cell whose upper bound is +inf. Bounds must
    not be NaN.

    Axis d is cut at the sorted distinct finite bounds e_d; a coordinate's
    slot is searchsorted(e_d, x, side="left"), so slot s is (e_{s-1}, e_s],
    the cell convention. Boxes paint their slot ranges into a table of
    shape prod(|e_d| + 1), last cell first so the first cell wins, and each
    point reads the entry at its mixed-radix slot index. Points with a NaN
    or -inf coordinate, which searchsorted would place in an end slot, are
    masked to -1. Above _TABLE_CAP table entries the points are scanned
    against every box instead (_locate_scan); both give the same indices.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    lo = np.ascontiguousarray(lows, dtype=np.float64)
    up = np.ascontiguousarray(ups, dtype=np.float64)
    edges = []
    for d in range(lo.shape[1]):
        e = np.sort(np.concatenate((lo[:, d], up[:, d])))
        e = e[np.isfinite(e)]
        # distinct values by sorting; np.unique's hash table raised peak RSS by ~0.6 MB
        edges.append(e[np.diff(e, prepend=-np.inf) > 0])
    shape = tuple(e.size + 1 for e in edges)
    if math.prod(shape) > _TABLE_CAP:
        return _locate_scan(pts, lo, up)
    first = [np.searchsorted(e, lo[:, d], side="right").tolist() for d, e in enumerate(edges)]
    stop = [(np.searchsorted(e, up[:, d], side="left") + 1).tolist() for d, e in enumerate(edges)]
    table = np.full(shape, -1, dtype=np.int32)
    for j in range(lo.shape[0] - 1, -1, -1):
        table[tuple(slice(f[j], s[j]) for f, s in zip(first, stop))] = j
    flat = np.zeros(pts.shape[0], dtype=np.intp)
    for d, e in enumerate(edges):
        flat *= e.size + 1
        flat += np.searchsorted(e, pts[:, d], side="left")
    out = table.reshape(-1).take(flat).astype(np.int64)
    out[~(pts > -np.inf).all(axis=1)] = -1
    return out


def _locate_scan(pts: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """locate_cells by testing every point against every box, in row chunks."""
    n = pts.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    step = 1 << 16
    for start in range(0, n, step):
        chunk = pts[start : start + step]
        inside = np.all(
            (chunk[:, None, :] > lo[None, :, :]) & (chunk[:, None, :] <= up[None, :, :]),
            axis=2,
        )
        out[start : start + step] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return out
