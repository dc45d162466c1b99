"""Chi-square statistics on the contingency table and their p-values.

Expected counts under the null are E_{lj} = N_j * w_l: column totals spread
over response bins proportionally to the bin widths, since the transformed
response is uniform and independent of the covariates exactly when the
conditional model is correct. On those expectations the module computes the
classical trinity (Pearson, likelihood ratio, score/Lagrange multiplier,
the latter coinciding with Pearson here), the Neyman version, and two Wald
quadratic forms. The null Wald form n d' S+ d equals Pearson by algebra and
is returned as Pearson. The raw-MLE Wald form is Pearson plus a p x p
correction: its covariance S_base - C I^{-1} C' is inverted on its range by
Woodbury around the diagonal generalized inverse diag(1/p0) of S_base, so
no LJ x LJ matrix is built.

A run is named by plain strings, each list spelled once here: the
statistic (STATISTICS), how theta was obtained (ESTIMATORS) and the df
convention (DF_CONVENTIONS). policy_df is the one df rule: the conditional
convention J*(L-1), motivated by the columns being independent multinomials
given the covariate cell counts, or the unconditional JL - 1, less the
model's p parameters unless theta is known. Estimating p parameters from the
raw data leaves Pearson and the likelihood ratio with a distribution pinned
only between chi-square laws with that df and p more, so under raw_mle
run_test reports a df interval and a p-value interval; "wald" there is the
form built at the raw-data MLE, which repairs its own covariance and gets a
point df equal to the numerical rank of that covariance, whatever p is.
Elsewhere "wald" is the null form and reports as "wald_null".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import (
    CovarianceConstructionError,
    EmptyCellError,
    InvalidArgumentError,
    InvalidDfError,
    SingularInformationError,
    as_integer,
)
from .models import ConditionalModel, Dataset, response_bins
from .tabulate import ContingencyTable, require_positive_columns

_RANK_RTOL = 1e-10
_NEG_RTOL = 1e-8


STATISTICS = ("pearson", "lr", "lm", "neyman", "wald")
ESTIMATORS = ("known", "raw_mle", "min_chisq")
DF_CONVENTIONS = ("conditional", "unconditional")


def require_name(what: str, name, names: tuple[str, ...]) -> None:
    """InvalidArgumentError unless name is one of names."""
    if name not in names:
        raise InvalidArgumentError(f"unknown {what} {name!r}; known: {', '.join(names)}")


def policy_df(estimator: str, df_convention: str, L: int, J: int, p: int) -> int:
    """J(L-1) (conditional) or JL-1 (unconditional), less p unless theta is known."""
    require_name("estimator", estimator, ESTIMATORS)
    require_name("df convention", df_convention, DF_CONVENTIONS)
    base = J * (L - 1) if df_convention == "conditional" else J * L - 1
    return base if estimator == "known" else base - p


def _expected(table: ContingencyTable) -> np.ndarray:
    require_positive_columns(table)
    return np.outer(table.widths, table.column_counts.astype(np.float64))


def _pearson(O: np.ndarray, E: np.ndarray) -> float:
    """Sum of (O - E)^2 / E; with the arguments swapped, Neyman's sum."""
    diff = O - E
    return float((diff * diff / E).sum())


def pearson_stat(table: ContingencyTable) -> float:
    """Sum of (O - E)^2 / E."""
    return _pearson(table.O, _expected(table))


def lm_stat(table: ContingencyTable) -> float:
    """Score statistic; for this testing problem it equals Pearson exactly."""
    return pearson_stat(table)


def lr_stat(table: ContingencyTable) -> float:
    """Likelihood ratio 2 * sum O * log(O / E), with 0 log 0 = 0."""
    E = _expected(table)
    O = table.O.astype(np.float64)
    pos = O > 0
    total = 2.0 * float((O[pos] * np.log(O[pos] / E[pos])).sum())
    return total


def has_zero_cells(table: ContingencyTable) -> bool:
    return bool((table.O == 0).any())


def neyman_stat(table: ContingencyTable) -> float:
    """Sum of (O - E)^2 / O; every observed count must be positive."""
    if has_zero_cells(table):
        raise EmptyCellError("neyman statistic requires every observed count > 0")
    return _pearson(_expected(table), table.O)


def _cell_sums(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, p) sums of the rows of values (n, p) grouped by index."""
    return np.stack([np.bincount(index, weights=c, minlength=size) for c in values.T], axis=1)


def _score_moments(model, theta, data, grid, cells, J):
    """(C, info): per-cell score means (LJ x p, row-major) and the information.

    Closed forms replace the raw moment estimates when the model supplies
    both. Each column of C is made to sum to zero over the response bins.
    """
    L, p, n = grid.L, model.param_dim, data.n
    info = model.expected_information(data.x, theta)
    factors = model.bin_score_means(data.x, grid.thresholds, theta)
    if info is not None and factors is not None:
        G, h = factors
        if not (np.isfinite(info).all() and np.isfinite(G).all() and np.isfinite(h).all()):
            raise SingularInformationError(
                "model moment evaluation produced non-finite values"
            )
        C = (G[:, None, :] * _cell_sums(cells, h, J)[None, :, :]).reshape(L * J, p) / n
    else:
        scores = model.score(data.y, data.x, theta)
        if not np.isfinite(scores).all():
            raise SingularInformationError("score evaluation produced non-finite values")
        info = scores.T @ scores / n
        bins = response_bins(model, theta, data, model.pivot_edges(grid.thresholds))
        C = _cell_sums(bins * J + cells, scores, L * J) / n
    # The population version of C has zero column sums (scores have
    # conditional mean zero given the covariates), but the sample version
    # does not, and that residue lands outside the support of S_base.
    # Reallocate each column's score sum across response bins by the null
    # weights so C shares the exact zero-sum structure of d. For the
    # closed-form C the sums already telescope to zero and this is a no-op.
    C3 = C.reshape(L, J, p)
    C3 -= grid.widths[:, None, None] * C3.sum(axis=0)[None, :, :]
    return C, 0.5 * (info + info.T)


def _wald_form(table: ContingencyTable, C: np.ndarray, info: np.ndarray):
    """(n d' Sigma+ d, rank Sigma) for Sigma = S_base - C info^{-1} C'.

    d = vec(O/n) - p0 with p0_{lj} = w_l * qhat_j, both row-major like C.
    G = diag(1/p0) is a generalized inverse of S_base, and d and the columns
    of C lie in its range, so by Woodbury the form is Pearson plus n b' M+ b
    with A = G C, M = info - C' A and b = A' d. Directions V0 with
    eigenvalue of M at most _RANK_RTOL * max eig(info) are null directions
    (column-centred A V0) of Sigma; d first loses its Euclidean component
    along them, which keeps the Moore-Penrose value. Sigma is PSD exactly
    when M is, so an eigenvalue of M below -_NEG_RTOL * max eig(info)
    raises CovarianceConstructionError.
    """
    w_info = np.linalg.eigvalsh(info)
    imax = float(w_info[-1])
    if imax <= 0.0 or w_info[0] <= _RANK_RTOL * imax:
        raise SingularInformationError(
            "estimated information matrix is numerically singular"
        )
    p0 = np.outer(table.widths, table.q_hat).ravel()
    d = table.O.ravel() / table.n - p0
    A = C / p0[:, None]
    M = info - C.T @ A
    mu, V = np.linalg.eigh(0.5 * (M + M.T))
    if mu[0] < -_NEG_RTOL * imax:
        raise CovarianceConstructionError(
            f"covariance correction has eigenvalue {mu[0]:.3e} below "
            f"-{_NEG_RTOL:g} * {imax:.3e}"
        )
    keep = mu > _RANK_RTOL * imax
    rank = table.J * (table.L - 1) - int((~keep).sum())
    if keep.all():
        base = pearson_stat(table)
    else:
        N = (A @ V[:, ~keep]).reshape(table.L, table.J, -1)
        N = (N - N.mean(axis=0)).reshape(table.L * table.J, -1)
        d = d - N @ np.linalg.lstsq(N, d, rcond=None)[0]
        base = table.n * float(d @ (d / p0))
    c = V[:, keep].T @ (A.T @ d)
    return base + table.n * float(c @ (c / mu[keep])), rank


def wald_raw_mle(
    table: ContingencyTable,
    model: ConditionalModel,
    theta_hat: np.ndarray,
    data: Dataset,
    cells: np.ndarray,
) -> tuple[float, int]:
    """Wald statistic at the raw-data MLE with its score-adjusted covariance.

    The covariance of the cell discrepancies shrinks when cells move with
    the estimated parameter: Sigma = S_base - C I^{-1} C', where S_base is
    block-diagonal by covariate cell with blocks qhat_j (diag(w) - w w'), C
    holds per-cell score means and I the estimated information. The response
    bins are those of table.grid, and cells holds the 0-based covariate cell
    of each row of data, as the table was binned. The statistic is
    n d' Sigma+ d, computed as Pearson plus a p x p correction (_wald_form).
    Returns the statistic and the rank of Sigma, J(L-1) less the number of
    numerically zero eigenvalues of M = I - C' diag(1/p0) C; that rank is
    the degrees of freedom of the limiting chi-square law and does not grow
    back with the number of estimated parameters.

    When the model supplies closed forms for both ingredients (expected
    information and per-bin conditional score means), those replace the raw
    moment estimates. The empirical versions carry enough noise at moderate
    n to visibly inflate the statistic: the subtracted term C I^{-1} C' is
    quadratic in C, so estimation error in C biases it upward, and the
    outer-product information adds fourth-moment noise on top.
    """
    require_positive_columns(table)
    theta = model.validate_theta(theta_hat)
    C, info = _score_moments(model, theta, data, table.grid, cells, table.J)
    return _wald_form(table, C, info)


@dataclass
class TestReport:
    """One statistic with its degrees of freedom and p-value (or intervals).

    kind is the statistic's name, with "wald" resolved to "wald_raw_mle" or
    "wald_null"; estimator is one of ESTIMATORS.
    """

    kind: str
    value: float
    estimator: str
    df: int | None = None
    df_interval: tuple[int, int] | None = None
    p_value: float | None = None
    p_interval: tuple[float, float] | None = None
    warnings: list[str] = field(default_factory=list)

    def rejects(self, level: float) -> bool:
        """Decision at a level; interval-valued p rejects only when p_hi < level."""
        if self.p_value is not None:
            return self.p_value < level
        return self.p_interval[1] < level


@dataclass
class WaldInputs:
    """Extra inputs wald_raw_mle needs beyond the table, which carries the grid."""

    model: ConditionalModel
    theta_hat: np.ndarray
    data: Dataset
    cells: np.ndarray  # 0-based covariate cell per row of data


def _point_report(kind, value, estimator, df, warnings) -> TestReport:
    if df < 1:
        if value <= 1e-12:
            # degenerate but well-defined case: statistic is identically 0
            return TestReport(
                kind=kind,
                value=value,
                estimator=estimator,
                df=0,
                p_value=1.0,
                warnings=warnings + ["degenerate grid: 0 degrees of freedom, p forced to 1"],
            )
        raise InvalidDfError(f"df must be >= 1 for a p-value, got {df}")
    return TestReport(
        kind=kind,
        value=value,
        estimator=estimator,
        df=df,
        p_value=backend.chisq_sf(value, df),
        warnings=warnings,
    )


def run_test(
    stat: str,
    table: ContingencyTable,
    estimator: str = "known",
    p: int = 0,
    df_convention: str = "conditional",
    wald_inputs: WaldInputs | None = None,
) -> TestReport:
    """Compute one statistic of STATISTICS and calibrate it.

    p is the model's parameter count and df = policy_df(estimator,
    df_convention, L, J, p). known and min_chisq give every statistic the
    point df; raw_mle gives pearson/lr the df interval [df, df + p] with the
    matching p-value interval, wald its raw-MLE form (from wald_inputs) with
    a point df equal to its covariance rank, and lm/neyman the point df with
    a warning. Under known and min_chisq, wald is the null form, Pearson.
    """
    require_name("statistic", stat, STATISTICS)
    p = as_integer("p", p, 0)
    df = policy_df(estimator, df_convention, table.L, table.J, p)
    warnings: list[str] = []

    if stat == "wald" and estimator == "raw_mle":
        if wald_inputs is None:
            raise InvalidArgumentError("the raw-MLE wald statistic requires wald_inputs")
        w = wald_inputs
        value, rank = wald_raw_mle(table, w.model, w.theta_hat, w.data, w.cells)
        return _point_report("wald_raw_mle", value, estimator, rank, warnings)

    kind = "wald_null" if stat == "wald" else stat
    if stat == "lr":
        value = lr_stat(table)
        if has_zero_cells(table):
            warnings.append("zero observed cells contribute 0 to the likelihood ratio")
    elif stat == "neyman":
        value = neyman_stat(table)
    else:
        value = pearson_stat(table)  # LM and the null Wald n d' S+ d equal it exactly

    if estimator == "raw_mle" and stat in ("pearson", "lr"):
        df_hi = df + p
        if value <= 1e-12 and df_hi < 1:
            return _point_report(kind, value, estimator, df_hi, warnings)
        if df < 1:
            raise InvalidDfError(
                f"lower df endpoint must be >= 1, got {df} (base {df_hi}, p {p})"
            )
        return TestReport(
            kind=kind,
            value=value,
            estimator=estimator,
            df_interval=(df, df_hi),
            p_interval=(backend.chisq_sf(value, df), backend.chisq_sf(value, df_hi)),
            warnings=warnings,
        )
    if estimator == "raw_mle":
        warnings.append(
            "raw_mle calibration bracket applies; point df uses the adjusted policy value"
        )
    return _point_report(kind, value, estimator, df, warnings)
