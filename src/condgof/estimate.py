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
- min_chisq_estimate: one Gauss-Newton step of the grouped problem from the
  raw MLE, built from the raw-MLE Wald's moments (stats._score_moments and
  _grouped_terms). Pearson is piecewise constant in theta (counts only
  change when a transformed response crosses a bin edge), so the step is
  re-binned and kept only when its table fits better than the start's: the
  returned point is never worse than the starting point.
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
    _design,
    bin_pivots,
    log_likelihood,
)
from .partition import Partition
from .stats import _grouped_terms, _score_moments
from .tabulate import ContingencyTable, UGrid, as_cells, require_positive_columns, tabulate_cells


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget of mle_numeric: max_iterations steps, stopping at gradient tolerance.

    restarts and seed are validated but not read by any estimator;
    min_chisq_estimate accepts a config and reads none of it.
    """

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
    design = _design(data.x)
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

    The log density must be smooth in theta. Near a kink, such as the
    optimum of a Laplace-error location, the score never falls to the
    tolerance, and the fit ends in ConvergenceFailureError.
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


def min_chisq_estimate(
    model: ConditionalModel,
    data: Dataset,
    grid: UGrid,
    partition: Partition,
    init,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    cells=None,
) -> np.ndarray:
    """One Gauss-Newton step of the grouped (minimum chi-square) problem from init.

    Pearson is n d' G d with p0, d(theta) = vec(O(theta) / n) - p0 and
    A = G C from stats._grouped_terms, C being the raw-MLE Wald's per-cell
    score means (stats._score_moments). Linearizing d around init gives the
    step (C'A)+ A'd; the minimum-norm solve takes no step along a direction
    the bins do not see, so at L = 1 it is zero. The step is returned only
    when its re-binned d'Gd is below init's by a relative 1e-12 (a tie up to
    rounding keeps init); init is also returned when validate_theta refuses
    the step or its table cannot be formed. So the result is never worse
    than init. config is accepted for compatibility and not read. cells,
    each row's 0-based cell of partition, is checked by tabulate.as_cells;
    without it partition.locate0 locates the rows. Both tables bin through
    one bound model.pivot_map. Wrong k, bad cells or a partition that does
    not cover the data raise InvalidArgumentError, an empty covariate cell
    EmptyCellError, a table at init that fails with a package error (such as
    a NaN pivot) or FloatingPointError InvalidStartError, non-finite moments
    SingularInformationError. Anything else propagates.
    """
    theta = model.validate_theta(init)
    _check_k(model, data)
    cells = partition.locate0(data.x) if cells is None else as_cells(cells, data.n, partition.J)
    edges = model.pivot_edges(grid.thresholds)

    def table_at(th: np.ndarray) -> ContingencyTable:  # th already validated
        return tabulate_cells(bin_pivots(pivot(th), edges), cells, grid, partition.J)

    try:
        pivot = model.pivot_map(data.y, data.x)
        table = table_at(theta)
    except (CondgofError, FloatingPointError) as exc:
        raise InvalidStartError("objective at init is not finite") from exc
    require_positive_columns(table)
    C, _ = _score_moments(model, theta, data, grid, cells, partition.J)
    p0, d, A, CtA = _grouped_terms(table, C)
    step = np.linalg.lstsq(CtA, A.T @ d, rcond=None)[0]
    try:
        cand = model.validate_theta(theta + step)
        d_cand = table_at(cand).O.ravel() / table.n - p0  # init's cells, so init's p0
    except (CondgofError, FloatingPointError):
        return theta
    return cand if d_cand @ (d_cand / p0) < (1.0 - 1e-12) * (d @ (d / p0)) else theta
