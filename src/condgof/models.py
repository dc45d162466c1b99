"""Conditional response models, their pivots and the response bins.

A model family fixes, for every parameter vector theta and covariate row x,
a continuous conditional CDF of the response. Applying the fitted CDF to
each observed response yields v_i = F(y_i | x_i, theta); when theta is the
truth these transformed values are uniform on [0, 1] and independent of the
covariates, which is the fact the downstream contingency tests exploit.

Families implement param_dim, validate_theta and vectorized cdf / log_density /
score over whole datasets. They may add pivot_map / pivot_edges (a theta-free-law
increasing map of v bound to fixed data, and the bin thresholds under it;
response_bins is the one binning rule), log_scale_indices, and closed-form Wald
moments expected_information and bin_score_means, the latter giving factors
G (L x p) and h (n x p). Custom families subclass ConditionalModel; the built-in
ones cover a Gaussian linear regression and an exponential regression.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import backend
from .errors import (
    InvalidArgumentError,
    InvalidParameterError,
    ModelEvaluationError,
    as_float_array,
    as_integer,
)

_LOG_2PI = 1.8378770664093453
_SIGMA_MIN = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Immutable response vector y (n,) and covariate matrix x (n, k)."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = as_float_array("y", self.y, copy=True)
        x = as_float_array("x", self.x, copy=True)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or x.ndim != 2:
            raise InvalidArgumentError("y must be 1-d and x 2-d")
        if y.shape[0] != x.shape[0]:
            raise InvalidArgumentError(
                f"y has {y.shape[0]} rows but x has {x.shape[0]}"
            )
        if y.shape[0] == 0:
            raise InvalidArgumentError("dataset must contain at least one row")
        if x.shape[1] == 0:
            raise InvalidArgumentError("x must have at least one column")
        if not np.isfinite(y).all():
            raise InvalidArgumentError("y contains non-finite values")
        if not np.isfinite(x).all():
            raise InvalidArgumentError("x contains non-finite values")
        y.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


class ConditionalModel(ABC):
    """Contract for a parametric conditional distribution family.

    All methods are vectorized: y is (n,), x is (n, k), and score returns
    (n, p) where p = param_dim. validate_theta raises InvalidParameterError
    on shape or constraint violations; cdf output always lies in [0, 1].
    Responses must satisfy y >= support_lower (default: unbounded).
    """

    name: str = "custom"
    support_lower: float = -np.inf

    def __init__(self, k: int):
        self.k = as_integer("k", k, 1)

    @property
    @abstractmethod
    def param_dim(self) -> int: ...

    @abstractmethod
    def validate_theta(self, theta: np.ndarray) -> np.ndarray:
        """Return theta as a float64 array, raising on violations."""

    @abstractmethod
    def cdf(self, y: np.ndarray, x: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def log_density(self, y: np.ndarray, x: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def score(self, y: np.ndarray, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Gradient of log_density with respect to theta, row per observation."""

    def log_scale_indices(self) -> tuple[int, ...]:
        """Positions of positivity-constrained scale parameters in theta.

        Optimizers move these on the log scale so the constraint stays
        implicit. Default: none.
        """
        return ()

    def expected_information(self, x: np.ndarray, theta) -> np.ndarray | None:
        """Average Fisher information (1/n) sum_i E[s s' | X = x_i], or None.

        Families with a closed form should override; the Wald construction
        at the estimated parameter prefers it over the noisier outer product
        of observed scores. Default: not available.
        """
        return None

    def pivot_map(self, y: np.ndarray, x: np.ndarray):
        """theta -> an increasing map of F(y | x, theta) with a theta-free law, for
        fixed data and a validated theta. Default: the CDF."""
        return partial(self.cdf, y, x)

    def pivot_edges(self, thresholds: np.ndarray) -> np.ndarray:
        """The pivot law's quantiles at the bin thresholds. Default: the thresholds."""
        return np.asarray(thresholds, dtype=np.float64)

    def bin_score_means(self, x: np.ndarray, thresholds: np.ndarray, theta):
        """E[1{F(Y|X) in bin l} * score | X = x_i] in factored form (G, h), or None.

        thresholds is the response-bin edge vector 0 = t_0 < ... < t_L = 1.
        The mean is G[l, m] * h[i, m] with G (L, p) and h (n, p); each column
        of G sums to 0 (the conditional score mean). Default: not available.
        """
        return None

    def _check_theta_base(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=np.float64).ravel()
        if th.shape[0] != self.param_dim:
            raise InvalidParameterError(
                f"{self.name}: expected {self.param_dim} parameters, got {th.shape[0]}"
            )
        if not np.isfinite(th).all():
            raise InvalidParameterError(f"{self.name}: theta contains non-finite values")
        return th


def _design(x: np.ndarray) -> np.ndarray:
    d = np.empty((x.shape[0], x.shape[1] + 1))
    d[:, 0] = 1.0
    d[:, 1:] = x
    return d


class GaussianLinearModel(ConditionalModel):
    """y | x ~ Normal(beta0 + beta . x, sigma^2).

    theta = (beta0, beta1, ..., betak, sigma), p = k + 2, sigma >= 1e-12.
    """

    name = "gaussian_linear"

    @property
    def param_dim(self) -> int:
        return self.k + 2

    def log_scale_indices(self) -> tuple[int, ...]:
        return (self.k + 1,)

    def validate_theta(self, theta) -> np.ndarray:
        th = self._check_theta_base(theta)
        if th[-1] < _SIGMA_MIN:
            raise InvalidParameterError(
                f"gaussian_linear: sigma must be >= {_SIGMA_MIN}, got {th[-1]}"
            )
        return th

    @staticmethod
    def _pivot_of(d, y, th) -> np.ndarray:
        """Standardized residual (y - mu(x)) / sigma, standard normal; overflow is not warned."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (y - d @ th[:-1]) / th[-1]

    def pivot_map(self, y, x):
        return partial(self._pivot_of, _design(x), y)

    def pivot_edges(self, thresholds) -> np.ndarray:
        inner = [backend.std_normal_quantile(t) for t in np.asarray(thresholds)[1:-1]]
        return np.array([-np.inf] + inner + [np.inf])

    def cdf(self, y, x, theta) -> np.ndarray:
        return backend.normal_cdf(self._pivot_of(_design(x), y, self.validate_theta(theta)))

    def log_density(self, y, x, theta) -> np.ndarray:
        th = self.validate_theta(theta)
        z = self._pivot_of(_design(x), y, th)
        return -0.5 * _LOG_2PI - np.log(th[-1]) - 0.5 * z * z

    def score(self, y, x, theta) -> np.ndarray:
        th = self.validate_theta(theta)
        sigma = th[-1]
        d = _design(x)
        z = self._pivot_of(d, y, th)
        s = np.empty((y.shape[0], self.param_dim))
        s[:, : self.k + 1] = d * (z / sigma)[:, None]
        s[:, self.k + 1] = (z * z - 1.0) / sigma
        return s

    def expected_information(self, x, theta) -> np.ndarray:
        th = self.validate_theta(theta)
        sigma = th[-1]
        d = _design(x)
        info = np.zeros((self.param_dim, self.param_dim))
        info[: self.k + 1, : self.k + 1] = d.T @ d / (x.shape[0] * sigma * sigma)
        info[self.k + 1, self.k + 1] = 2.0 / (sigma * sigma)
        return info

    def bin_score_means(self, x, thresholds, theta):
        sigma = self.validate_theta(theta)[-1]
        z = self.pivot_edges(thresholds)
        # int_a^b z phi(z) dz = phi(a) - phi(b); int_a^b (z^2-1) phi(z) dz
        # = a phi(a) - b phi(b); both vanish at infinite edges.
        ph = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
        zph = np.where(np.isfinite(z), z, 0.0) * ph
        g_loc = (ph[:-1] - ph[1:]) / sigma  # multiplies each design column
        g_scale = (zph[:-1] - zph[1:]) / sigma
        G = np.repeat(np.column_stack([g_loc, g_scale]), [self.k + 1, 1], axis=1)
        h = np.empty((x.shape[0], self.k + 2))  # [1, x, 1]
        h[:, [0, -1]] = 1.0
        h[:, 1:-1] = x
        return G, h


class ExponentialRegressionModel(ConditionalModel):
    """y | x ~ Exponential(rate = exp(beta0 + beta . x)), y >= 0.

    theta = (beta0, beta1, ..., betak), p = k + 1; all finite theta valid.
    """

    name = "exponential_regression"
    support_lower = 0.0

    @property
    def param_dim(self) -> int:
        return self.k + 1

    def validate_theta(self, theta) -> np.ndarray:
        return self._check_theta_base(theta)

    @staticmethod
    def _pivot_of(d, y, th) -> np.ndarray:
        """rate * y, standard exponential for y >= 0; an overflowed rate gives the limit."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(d @ th) * y

    def pivot_map(self, y, x):
        return partial(self._pivot_of, _design(x), y)

    def pivot_edges(self, thresholds) -> np.ndarray:
        t = np.asarray(thresholds, dtype=np.float64)
        return np.concatenate([[0.0], -np.log1p(-t[1:-1]), [np.inf]])

    def cdf(self, y, x, theta) -> np.ndarray:
        u = self._pivot_of(_design(x), y, self.validate_theta(theta))
        return np.where(y < 0.0, 0.0, -np.expm1(-u))

    def log_density(self, y, x, theta) -> np.ndarray:
        th = self.validate_theta(theta)
        eta = _design(x) @ th
        out = eta - np.exp(eta) * y
        return np.where(y < 0.0, -np.inf, out)

    def score(self, y, x, theta) -> np.ndarray:
        d = _design(x)
        w = np.where(y < 0.0, 0.0, 1.0 - self._pivot_of(d, y, self.validate_theta(theta)))
        return d * w[:, None]

    def expected_information(self, x, theta) -> np.ndarray:
        self.validate_theta(theta)
        d = _design(x)
        # E[(1 - rate*Y)^2 | X] = Var(rate*Y) = 1 for every x
        return d.T @ d / x.shape[0]

    def bin_score_means(self, x, thresholds, theta):
        self.validate_theta(theta)
        u = self.pivot_edges(thresholds)
        # int (1-u) e^-u du = u e^-u, which is 0 at both u = 0 and u = inf
        ue = np.where(np.isfinite(u), u, 0.0) * np.exp(-u)
        g = ue[1:] - ue[:-1]  # multiplies each design column
        return np.repeat(g[:, None], self.param_dim, axis=1), _design(x)


def _check_k(model: ConditionalModel, data: Dataset) -> None:
    if data.k != model.k:
        raise InvalidArgumentError(f"model expects k={model.k} covariates, data has k={data.k}")


def rosenblatt(model: ConditionalModel, theta, data: Dataset) -> np.ndarray:
    """Transformed responses v_i = F(y_i | x_i, theta), each in [0, 1]."""
    _check_k(model, data)
    v = np.asarray(model.cdf(data.y, data.x, theta), dtype=np.float64)
    if not np.isfinite(v).all():
        raise ModelEvaluationError("model cdf produced non-finite values")
    # guard against approximation round-off spilling outside [0, 1]
    return np.clip(v, 0.0, 1.0)


def bin_pivots(u, edges: np.ndarray) -> np.ndarray:
    """0-based bin of each pivot u: l with edges[l] < u <= edges[l + 1], end bins unbounded.

    Counts the inner edges below u: searchsorted(edges[1:-1], u, side="left") exactly.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.isnan(u).any():
        raise ModelEvaluationError("model pivot produced NaN values")
    out = np.zeros(u.shape, dtype=np.intp)
    for e in edges[1:-1].tolist():
        out += u > e
    return out


def response_bins(model: ConditionalModel, theta, data: Dataset, edges: np.ndarray) -> np.ndarray:
    """0-based response bin of each row, edges being model.pivot_edges(thresholds)."""
    _check_k(model, data)
    return bin_pivots(model.pivot_map(data.y, data.x)(model.validate_theta(theta)), edges)


def log_likelihood(model: ConditionalModel, theta, data: Dataset) -> float:
    """Sum of log densities; -inf is allowed, +inf/NaN is an error."""
    ld = model.log_density(data.y, data.x, theta)
    if np.isnan(ld).any() or np.isposinf(ld).any():
        raise ModelEvaluationError("log density produced NaN or +inf")
    return float(ld.sum())


MODEL_FAMILIES = {
    GaussianLinearModel.name: GaussianLinearModel,
    ExponentialRegressionModel.name: ExponentialRegressionModel,
}


def resolve_model(name: str, k: int) -> ConditionalModel:
    """Instantiate a built-in family by name for k covariates."""
    try:
        cls = MODEL_FAMILIES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown model family {name!r}; known: {sorted(MODEL_FAMILIES)}"
        ) from None
    return cls(k)
