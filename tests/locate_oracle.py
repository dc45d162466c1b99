"""Reference implementation of backend.locate_cells.

This is the original box scan: test every point against every cell, in row
chunks, O(n·J·k). condgof locates through per-axis cell bitsets instead;
the tests compare the two index for index.
"""

import numpy as np


def locate_scan(pts, lo, up):
    """Index of the first cell {lo < x <= up} containing each point, -1 if none."""
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
