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

A run is named by plain strings, each list spelled once here: the statistic
(STATISTICS) and how theta was obtained (ESTIMATORS). check_request is the
one rule for what a run may ask for; run_pipeline, a simulation config and
`condgof test` all refuse a request through it. policy_df is the one df
rule: J*(L-1), since the columns are independent multinomials given the
covariate cell counts, less the model's p parameters unless theta is known.
There is one calibration rule too: a statistic is referred to chi-square
laws with df from df to df_hi, and a point df is the bracket with
df == df_hi. Estimating p parameters from the raw data pins a statistic of
the table only between df and df + p, so under raw_mle every statistic but
"wald" gets a df interval and a p-value interval. Under raw_mle "wald" is
the form built at the raw-data MLE: it repairs its own covariance and its
bracket is the point at the numerical rank of that covariance, whatever p
is. Elsewhere "wald" is the null form and reports as "wald_null", and every
bracket is the point policy_df.
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
    InvalidParameterError,
    SingularInformationError,
    as_float_array,
    as_integer,
)
from .models import ConditionalModel, Dataset, response_bins
from .tabulate import ContingencyTable, as_cells, require_positive_columns

_RANK_RTOL = 1e-10
_NEG_RTOL = 1e-8


STATISTICS = ("pearson", "lr", "lm", "neyman", "wald")
ESTIMATORS = ("known", "raw_mle", "min_chisq")


def require_name(what: str, name, names: tuple[str, ...]) -> None:
    """InvalidArgumentError unless name is one of names."""
    if name not in names:
        raise InvalidArgumentError(f"unknown {what} {name!r}; known: {', '.join(names)}")


def check_request(model: ConditionalModel, estimator: str, stats, theta=None) -> np.ndarray | None:
    """theta as float64 (None unless estimator is "known") if a run may ask for this.

    The one rule for what a run asks for, shared by run_pipeline, SimConfig
    and `condgof test`: estimator is one of ESTIMATORS, stats a list or tuple
    naming at least one of STATISTICS, each once, and theta is given exactly
    under "known", as an array of numbers that model.validate_theta accepts.
    Anything else raises one InvalidArgumentError line.
    """
    require_name("estimator", estimator, ESTIMATORS)
    if not isinstance(stats, (list, tuple)) or not stats:
        raise InvalidArgumentError(f"stats must be a list of at least one statistic, got {stats!r}")
    for name in stats:
        require_name("statistic", name, STATISTICS)
    if len(set(stats)) != len(stats):
        raise InvalidArgumentError(f"stats must name each statistic once, got {stats}")
    if estimator != "known" and theta is not None:
        raise InvalidArgumentError(f"theta is used only by estimator 'known', not {estimator!r}")
    if estimator == "known" and theta is None:
        raise InvalidArgumentError("estimator 'known' requires theta")
    if theta is None:
        return None
    try:
        return model.validate_theta(as_float_array("theta", theta))
    except InvalidParameterError as exc:
        raise InvalidArgumentError(f"invalid theta: {exc}") from exc


def policy_df(estimator: str, L: int, J: int, p: int) -> int:
    """J(L-1), less p unless theta is known."""
    require_name("estimator", estimator, ESTIMATORS)
    base = J * (L - 1)
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
    """Likelihood ratio 2 * sum O * log(O / E), with 0 log 0 = 0.

    The sum is nonnegative (Gibbs' inequality); a rounding residue below 0 reads 0.0.
    """
    E = _expected(table)
    O = table.O.astype(np.float64)
    pos = O > 0
    total = 2.0 * float((O[pos] * np.log(O[pos] / E[pos])).sum())
    return total if total > 0.0 else 0.0


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
    The raw-MLE Wald uses both; the min-chi-square step in
    estimate.min_chisq_estimate uses C. Non-finite moments raise
    SingularInformationError.
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


def _grouped_terms(table: ContingencyTable, C: np.ndarray):
    """(p0, d, A, C'A): p0 = vec(w_l qhat_j), d = vec(O/n) - p0, A = diag(1/p0) C."""
    p0 = np.outer(table.widths, table.q_hat).ravel()
    d = table.O.ravel() / table.n - p0
    A = C / p0[:, None]
    return p0, d, A, C.T @ A


def _wald_form(table: ContingencyTable, C: np.ndarray, info: np.ndarray):
    """(n d' Sigma+ d, rank Sigma) for Sigma = S_base - C info^{-1} C'.

    With p0, d and A = G C from _grouped_terms: G = diag(1/p0) is a
    generalized inverse of S_base, and d and the columns of C lie in its
    range, so by Woodbury the form is Pearson plus n b' M+ b with
    M = info - C' A and b = A' d. Directions V0 with
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
    p0, d, A, CtA = _grouped_terms(table, C)
    M = info - CtA
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
    of each row of data, as the table was binned: as_cells refuses cells of
    the wrong length, dtype or range, or whose counts are not the table's
    column counts, but cannot detect a permutation that keeps the counts.
    The statistic is
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
    cells = as_cells(cells, data.n, table.J, table.column_counts)
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


def _report(kind, value, estimator, df, df_hi, warnings) -> TestReport:
    """value on the df bracket [df, df_hi], a point df when df == df_hi; df >= 1 unless degenerate."""
    rep = TestReport(kind=kind, value=value, estimator=estimator, warnings=warnings)
    if df_hi < 1 and value <= 1e-12:
        # degenerate but well-defined case: statistic is identically 0
        rep.df, rep.p_value = 0, 1.0
        warnings.append("degenerate grid: 0 degrees of freedom, p forced to 1")
    elif df < 1:
        raise InvalidDfError(
            f"df must be >= 1 for a p-value, got {df}"
            if df == df_hi
            else f"lower df endpoint must be >= 1, got {df} (base {df_hi}, p {df_hi - df})"
        )
    elif df == df_hi:
        rep.df, rep.p_value = df, backend.chisq_sf(value, df)
    else:
        rep.df_interval = (df, df_hi)
        rep.p_interval = (backend.chisq_sf(value, df), backend.chisq_sf(value, df_hi))
    return rep


def run_test(
    stat: str,
    table: ContingencyTable,
    estimator: str = "known",
    p: int = 0,
    wald_inputs: WaldInputs | None = None,
) -> TestReport:
    """Compute one statistic of STATISTICS and calibrate it on a df bracket.

    p is the model's parameter count and df = policy_df(estimator, L, J, p).
    The bracket is [df, df + p] under raw_mle and the point [df, df]
    otherwise; the raw-MLE wald (from wald_inputs) has the point at its
    covariance rank instead. A point reports df and p_value, a wider
    bracket df_interval and p_interval. Under known and min_chisq, wald is
    the null form, Pearson.
    """
    require_name("statistic", stat, STATISTICS)
    p = as_integer("p", p, 0)
    df = policy_df(estimator, table.L, table.J, p)
    df_hi = df + p if estimator == "raw_mle" else df
    kind = "wald_null" if stat == "wald" else stat
    warnings: list[str] = []
    if stat == "wald" and estimator == "raw_mle":
        if wald_inputs is None:
            raise InvalidArgumentError("the raw-MLE wald statistic requires wald_inputs")
        w = wald_inputs
        kind = "wald_raw_mle"
        value, df = wald_raw_mle(table, w.model, w.theta_hat, w.data, w.cells)
        df_hi = df
    elif stat == "lr":
        value = lr_stat(table)
        if has_zero_cells(table):
            warnings.append("zero observed cells contribute 0 to the likelihood ratio")
    elif stat == "neyman":
        value = neyman_stat(table)
    else:
        value = pearson_stat(table)  # LM and the null Wald n d' S+ d equal it exactly
    return _report(kind, value, estimator, df, df_hi, warnings)
