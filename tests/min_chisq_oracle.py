"""List-based reference implementation of the min-chi-square estimator.

The simplex keeps its vertices in a Python list of arrays, and the objective
bins the responses through response_bins (which validates theta, checks k
and builds the design) on every call. condgof keeps the simplex in one array
and binds the pivot to the data once; the tests require the two to return
the same theta to the last bit.
"""

import numpy as np

from condgof.errors import CondgofError, InvalidStartError
from condgof.estimate import _from_internal, _to_internal
from condgof.models import response_bins
from condgof.stats import _pearson


def nelder_mead(f, x0, max_iter, xatol=1e-6, fatol=1e-9):
    """Minimal deterministic Nelder-Mead; returns the best vertex seen."""
    n = x0.shape[0]
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    simplex = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] = v[i] + (0.05 if v[i] == 0.0 else 0.05 * abs(v[i]) + 0.01)
        simplex.append(v)
    fvals = [f(v) for v in simplex]
    for _ in range(max_iter):
        order = np.argsort(fvals, kind="stable")
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = max(np.abs(simplex[i] - simplex[0]).max() for i in range(1, n + 1))
        if spread <= xatol and abs(fvals[-1] - fvals[0]) <= fatol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = f(simplex[i])
    best = int(np.argmin(fvals))
    return simplex[best], fvals[best]


def min_chisq_estimate(model, data, grid, partition, init, config):
    """Theta minimizing the table's Pearson statistic, as condgof.min_chisq_estimate."""
    theta0 = model.validate_theta(init)
    log_idx = model.log_scale_indices()
    cells = partition.locate0(data.x)
    edges = model.pivot_edges(grid.thresholds)
    L, J = grid.L, partition.J
    E = np.outer(grid.widths, np.bincount(cells, minlength=J).astype(np.float64))
    if not E.all():
        raise InvalidStartError("objective at init is not finite: a covariate cell is empty")

    def objective(phi):
        try:
            theta = model.validate_theta(_from_internal(phi, log_idx))
            bins = response_bins(model, theta, data, edges)
        except (CondgofError, FloatingPointError):
            return np.inf
        return _pearson(np.bincount(bins * J + cells, minlength=L * J).reshape(L, J), E)

    phi0 = _to_internal(theta0, log_idx)
    f0 = objective(phi0)
    if not np.isfinite(f0):
        raise InvalidStartError("objective at init is not finite")

    best_phi, best_f = phi0, f0
    iters = max(config.max_iterations, 50 * theta0.shape[0])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    starts = [phi0]
    for _ in range(config.restarts):
        starts.append(phi0 + rng.normal(0.0, 0.1, size=phi0.shape) * (1.0 + np.abs(phi0)))
    for s in starts:
        cand_phi, cand_f = nelder_mead(objective, s, max_iter=iters)
        if cand_f < best_f:
            best_phi, best_f = cand_phi, cand_f
    return _from_internal(best_phi, log_idx)
