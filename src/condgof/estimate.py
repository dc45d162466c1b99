"""Parameter estimators feeding the tests.

Three routes with different downstream calibration:

- mle_gaussian_linear: closed form for the Gaussian linear family (least
  squares slopes, sigma = sqrt(RSS / n), the likelihood normalization).
- mle_numeric: Fisher scoring for any family exposing a score. The step
  solves the model's expected information against the gradient, or the
  BHHH outer product of the scores when the family has no closed-form
  information, and halves until the likelihood rises (doubling or halving
  on while that pays when the information misjudges the curvature). Scale
  parameters move on the log scale so positivity never needs an explicit
  constraint. The log-likelihood sequence is nondecreasing by construction;
  exhausting the iteration budget before the gradient tolerance is met
  raises ConvergenceFailureError carrying the last iterate.
- min_chisq_estimate: minimizes the Pearson statistic of the cross-
  classified table over theta with a deterministic Nelder-Mead simplex plus
  seeded restarts. The objective is piecewise constant in theta (counts only
  change when a transformed response crosses a bin edge), so the returned
  point is guaranteed not to be worse than the starting point: the best
  evaluation ever seen, including the start itself, wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CondgofError,
    ConvergenceFailureError,
    DegenerateFitError,
    InvalidArgumentError,
    InvalidParameterError,
    InvalidStartError,
    ModelEvaluationError,
    SingularDesignError,
    whole_fields,
)
from .models import (
    _SIGMA_MIN,
    ConditionalModel,
    Dataset,
    _check_k,
    bin_pivots,
    log_likelihood,
)
from .partition import Partition
from .stats import _pearson
from .tabulate import UGrid


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    tolerance: float = 1e-8
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        whole_fields(self, max_iterations=0, restarts=0, seed=0)
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidArgumentError(f"tolerance must be finite and > 0, got {self.tolerance!r}")


def mle_gaussian_linear(data: Dataset) -> np.ndarray:
    """Closed-form MLE (beta0..betak, sigma) for the Gaussian linear family."""
    n, k = data.n, data.k
    if n < k + 2:
        raise InvalidArgumentError(
            f"need at least k + 2 = {k + 2} observations, got {n}"
        )
    design = np.hstack([np.ones((n, 1)), data.x])
    # lstsq's rank uses matrix_rank's default cutoff, eps * max(n, k + 1) * sigma_max
    beta, _res, rank, _sv = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < k + 1:
        raise SingularDesignError("design matrix is rank deficient")
    resid = data.y - design @ beta
    sigma = float(np.sqrt(resid @ resid / n))
    if sigma < _SIGMA_MIN:
        raise DegenerateFitError(
            f"residual scale {sigma:.3e} collapsed below {_SIGMA_MIN}", beta=beta
        )
    return np.concatenate([beta, [sigma]])


def _to_internal(theta: np.ndarray, log_idx: tuple[int, ...]) -> np.ndarray:
    phi = theta.copy()
    for i in log_idx:
        phi[i] = np.log(theta[i])
    return phi


def _from_internal(phi: np.ndarray, log_idx: tuple[int, ...]) -> np.ndarray:
    theta = phi.copy()
    for i in log_idx:
        theta[i] = np.exp(phi[i])
    return theta


def mle_numeric(
    model: ConditionalModel,
    data: Dataset,
    init,
    config: OptimizerConfig = OptimizerConfig(),
) -> np.ndarray:
    """Maximum likelihood by Fisher scoring.

    Each iteration steps along info^-1 g in the internal parametrization,
    where g is the gradient of the average log likelihood and info is
    model.expected_information, or the BHHH outer product S'S/n of the
    score rows S that g averages when the family has none; both carry the
    log-scale Jacobian. The step starts at 1 and halves until the likelihood
    rises, so the likelihood path is nondecreasing. When the rise is under
    a quarter of the linear promise t g'info^-1 g the step keeps halving,
    and when it is over three quarters the step doubles, each while the
    likelihood keeps rising; near the optimum neither happens. Stops when
    the gradient's infinity norm drops to config.tolerance, which does not
    scale with n; config.max_iterations bounds the number of steps. Raises
    InvalidStartError when the likelihood at init is not finite,
    ConvergenceFailureError (carrying the last iterate) when the budget runs
    out or no halved step raises the likelihood. The one exception is a full
    step whose promised rise g'info^-1 g is within 16 ulp of the average log
    likelihood: no step can show a rise there, so theta is returned as the
    optimum.
    """
    theta = model.validate_theta(init)
    log_idx = model.log_scale_indices()

    def objective(th: np.ndarray) -> float:
        return log_likelihood(model, th, data) / data.n

    def gradient(th: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, S, jac): internal gradient, score rows and d theta / d phi."""
        s = model.score(data.y, data.x, th)
        g = s.mean(axis=0)
        if not np.isfinite(g).all():
            raise ModelEvaluationError("score produced non-finite values")
        jac = np.ones_like(th)
        jac[list(log_idx)] = th[list(log_idx)]
        return g * jac, s, jac

    def trial(phi_t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(average log likelihood or -inf, phi, theta) at a candidate point."""
        # a step too long for the family overflows; a shorter one recovers
        with np.errstate(over="ignore", invalid="ignore"):
            th = _from_internal(phi_t, log_idx)
            try:
                value = objective(th)
            except (InvalidParameterError, ModelEvaluationError):
                value = -np.inf
        return (value if np.isfinite(value) else -np.inf), phi_t, th

    ll = objective(theta)
    if not np.isfinite(ll):
        raise InvalidStartError(f"log likelihood at init is {ll}")

    phi = _to_internal(theta, log_idx)
    for _ in range(config.max_iterations):
        g, s, jac = gradient(theta)
        if np.abs(g).max() <= config.tolerance:
            return theta
        info = model.expected_information(data.x, theta)
        if info is None:
            info = s.T @ s / data.n  # BHHH
        if not np.isfinite(info).all():
            raise ModelEvaluationError("information produced non-finite values")
        # least squares: a singular information still gives an ascent direction
        d = np.linalg.lstsq(info * np.outer(jac, jac), g, rcond=None)[0]
        t, best = 1.0, trial(phi + d)
        while not best[0] > ll:
            t *= 0.5
            if t <= 1e-18:
                if g @ d <= 16 * np.finfo(float).eps * max(1.0, abs(ll)):
                    return theta  # no step can rise above the rounding of ll
                raise ConvergenceFailureError(
                    "no uphill step found; gradient may be inconsistent with the likelihood",
                    theta=theta,
                )
            best = trial(phi + t * d)
        # Far from the optimum the information can misjudge the curvature
        # many times over. A rise under a quarter of what the slope promises
        # marks an overshoot, one over three quarters a step too short:
        # halve or double the step while the likelihood keeps rising.
        rise, promise = best[0] - ll, t * (g @ d)
        if not 0.25 * promise <= rise <= 0.75 * promise:
            factor = 0.5 if rise < 0.25 * promise else 2.0
            while (cand := trial(phi + factor * t * d))[0] > best[0]:
                t, best = factor * t, cand
        ll, phi, theta = best
    g = gradient(theta)[0]
    if np.abs(g).max() <= config.tolerance:
        return theta
    raise ConvergenceFailureError(
        f"gradient norm {np.abs(g).max():.3e} above tolerance after "
        f"{config.max_iterations} iterations",
        theta=theta,
    )


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float = 1e-6, fatol: float = 1e-9):
    """Minimal deterministic Nelder-Mead; returns the best vertex seen."""
    n = x0.shape[0]
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    simplex = np.tile(x0, (n + 1, 1))
    axes = np.arange(n)
    simplex[axes + 1, axes] += np.where(x0 == 0.0, 0.05, 0.05 * np.abs(x0) + 0.01)
    fvals = np.array([f(v) for v in simplex])
    for _ in range(max_iter):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        spread = np.abs(simplex[1:] - simplex[0]).max()
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
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                fvals[1:] = [f(v) for v in simplex[1:]]
    best = int(np.argmin(fvals))
    return simplex[best], fvals[best]


def min_chisq_estimate(
    model: ConditionalModel,
    data: Dataset,
    grid: UGrid,
    partition: Partition,
    init,
    config: OptimizerConfig = OptimizerConfig(),
) -> np.ndarray:
    """Parameter value minimizing the Pearson statistic of the table.

    Derivative-free simplex from init plus config.restarts seeded restarts;
    never returns a point with a larger objective than init. The cells, the
    expected counts and model.pivot_map(y, x) are fixed before the simplex:
    data with the wrong k or a partition that does not cover it raises
    InvalidArgumentError, an empty cell InvalidStartError. A theta that
    validate_theta refuses, a NaN pivot, any other package error and
    FloatingPointError score +inf; anything else propagates.
    """
    theta0 = model.validate_theta(init)
    log_idx = model.log_scale_indices()
    _check_k(model, data)
    pivot = model.pivot_map(data.y, data.x)
    cells = partition.locate0(data.x)
    edges = model.pivot_edges(grid.thresholds)
    L, J = grid.L, partition.J
    E = np.outer(grid.widths, np.bincount(cells, minlength=J).astype(np.float64))
    if not E.all():
        raise InvalidStartError("objective at init is not finite: a covariate cell is empty")

    def objective(phi: np.ndarray) -> float:
        try:
            bins = bin_pivots(pivot(model.validate_theta(_from_internal(phi, log_idx))), edges)
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
        cand_phi, cand_f = _nelder_mead(objective, s, max_iter=iters)
        if cand_f < best_f:
            best_phi, best_f = cand_phi, cand_f
    return _from_internal(best_phi, log_idx)

