"""Monte Carlo engine for size, power, and df calibration studies.

Reproducibility contract: replication i of an experiment with master seed s
derives all of its randomness from SeedSequence(entropy=s, spawn_key=(i,)):
its child 0 seeds the Philox counter-based generator of the data, and its
child 1 the partition builder. The estimators draw nothing. Replications
therefore neither share state nor depend on execution order, and
run_replication(cfg, i) is a pure function of (cfg, i).

Aggregation is order-independent: outcomes are sorted by replication index
before any reduction, so feeding them in any order yields the same result.
Failed replications are recorded with a reason string, never resampled; an
experiment with more than 5% failures raises ExperimentInvalidError.

Documents are the dataclasses' own fields. A config holds fields of SimConfig
only, its dgp and partition those of DgpSpec and PartitionRule; an absent field
takes its default, so dataclasses.asdict of a config reads back through
config_from_dict. SimResult.to_dict is dataclasses.asdict with each failure
written as an object with keys rep_index and reason.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import (
    CondgofError,
    ExperimentInvalidError,
    InsufficientDataError,
    InvalidArgumentError,
    OutOfSupportError,
    as_float_array,
    as_integer,
    whole_fields,
)
from .estimate import OptimizerConfig, mle_gaussian_linear, mle_numeric, min_chisq_estimate
from .models import ConditionalModel, Dataset, GaussianLinearModel, _check_k, _design
from .models import resolve_model, response_bins
from .partition import Partition, gessaman_partition, product_partition, rtp_partition
from .stats import TestReport, WaldInputs, check_request, policy_df, run_test
from .tabulate import ContingencyTable, as_cells, balanced_grid, tabulate_cells

# family -> number of true parameters beyond k
DGP_FAMILIES = {
    "gaussian_linear": 2,
    "gaussian_heteroskedastic": 2,
    "exponential_regression": 1,
}
COVARIATE_LAWS = ("uniform", "normal")


@dataclass(frozen=True)
class DgpSpec:
    """Data generating process for one experiment."""

    family: str
    true_params: tuple[float, ...]
    covariate_law: str
    n: int
    k: int

    def __post_init__(self):
        if self.family not in DGP_FAMILIES:
            raise InvalidArgumentError(
                f"unknown dgp family {self.family!r}; known: {tuple(DGP_FAMILIES)}"
            )
        if self.covariate_law not in COVARIATE_LAWS:
            raise InvalidArgumentError(
                f"unknown covariate law {self.covariate_law!r}; known: {COVARIATE_LAWS}"
            )
        whole_fields(self, n=1, k=1)
        params = as_float_array("true_params", self.true_params)
        if params.ndim != 1 or not np.isfinite(params).all():
            raise InvalidArgumentError(f"true_params must be finite numbers, got {self.true_params}")
        object.__setattr__(self, "true_params", tuple(params.tolist()))
        want = self.k + DGP_FAMILIES[self.family]
        if len(self.true_params) != want:
            raise InvalidArgumentError(
                f"{self.family} with k={self.k} needs {want} true parameters, "
                f"got {len(self.true_params)}"
            )


@dataclass(frozen=True)
class PartitionRule:
    """How the covariate space is cut: fixed grid, gessaman, or rtp."""

    kind: str  # "grid" | "gessaman" | "rtp"
    T: int = 2
    r: int = 1

    def __post_init__(self):
        if self.kind not in ("grid", "gessaman", "rtp"):
            raise InvalidArgumentError(f"unknown partition rule {self.kind!r}")
        whole_fields(self, T=2, r=1)

    def cell_count(self, k: int) -> int:
        if self.kind == "rtp":
            return 1 + k * self.r * (self.T - 1)
        return self.T**k


@dataclass(frozen=True)
class SimConfig:
    dgp: DgpSpec
    model: str
    estimator: str  # one of stats.ESTIMATORS
    L: int
    partition: PartitionRule
    stats: tuple[str, ...] = ("pearson",)
    levels: tuple[float, ...] = (0.05,)
    replications: int = 100
    master_seed: int = 0
    theta: tuple[float, ...] | None = None

    def __post_init__(self):
        whole_fields(self, L=1, replications=1, master_seed=0)
        model = resolve_model(self.model, self.dgp.k)
        theta = check_request(model, self.estimator, self.stats, self.theta)
        if not isinstance(self.levels, (list, tuple)) or not self.levels or not all(
            isinstance(lv, numbers.Real) and not isinstance(lv, bool) and 0.0 < lv < 1.0
            for lv in self.levels
        ):
            raise InvalidArgumentError(
                f"levels must be a list of at least one number in (0, 1), got {self.levels!r}"
            )
        if len(set(self.levels)) != len(self.levels):
            raise InvalidArgumentError(f"levels must name each level once, got {self.levels}")
        object.__setattr__(self, "stats", tuple(self.stats))
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        object.__setattr__(self, "theta", None if theta is None else tuple(theta.tolist()))


def law_grid_partition(law: str, k: int, T: int) -> Partition:
    """Fixed product partition with T equal-probability slices per axis.

    Edges come from the covariate law's quantiles, not from data, so the
    cells are deterministic and every cell has population mass T^-k > 0.
    """
    if law == "uniform":
        inner = [-1.0 + 2.0 * i / T for i in range(1, T)]
    elif law == "normal":
        inner = [backend.std_normal_quantile(i / T) for i in range(1, T)]
    else:
        raise InvalidArgumentError(f"unknown covariate law {law!r}")
    edges = [-np.inf] + inner + [np.inf]
    return product_partition([edges] * k)


def simulate_dataset(dgp: DgpSpec, rng: np.random.Generator) -> Dataset:
    """Draw one dataset from the data generating process."""
    n, k = dgp.n, dgp.k
    if dgp.covariate_law == "uniform":
        x = rng.uniform(-1.0, 1.0, size=(n, k))
    else:
        x = rng.standard_normal((n, k))
    theta = np.asarray(dgp.true_params)
    design = _design(x)
    if dgp.family == "gaussian_linear":
        mu = design @ theta[:-1]
        y = mu + theta[-1] * rng.standard_normal(n)
    elif dgp.family == "gaussian_heteroskedastic":
        mu = design @ theta[:-1]
        scale = theta[-1] * (1.0 + np.abs(x[:, 0]))
        y = mu + scale * rng.standard_normal(n)
    else:  # exponential_regression
        rate = np.exp(design @ theta)
        y = rng.exponential(1.0, size=n) / rate
    return Dataset(y=y, x=x)


@dataclass
class RepOutcome:
    """Everything one replication produced, or its failure reason."""

    rep_index: int
    reports: dict[str, TestReport] = field(default_factory=dict)
    error: str | None = None


def _rep_streams(master_seed: int, rep_index: int):
    root = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep_index,))
    data_ss, part_ss = root.spawn(2)
    data_rng = np.random.Generator(np.random.Philox(data_ss))
    return data_rng, int(part_ss.generate_state(1, dtype=np.uint64)[0])


def _build_partition(cfg: SimConfig, x: np.ndarray, part_seed: int) -> tuple:
    rule = cfg.partition
    if rule.kind == "grid":  # not built from x, so x is located in it
        part = law_grid_partition(cfg.dgp.covariate_law, cfg.dgp.k, rule.T)
        return part, part.locate0(x)
    if rule.kind == "gessaman":
        return gessaman_partition(x, rule.T)
    return rtp_partition(x, rule.T, rule.r, part_seed)


def run_pipeline(
    model: ConditionalModel,
    data: Dataset,
    partition: Partition,
    cells: np.ndarray,
    L: int,
    estimator: str,
    stats: tuple[str, ...] | list[str],
    *,
    theta=None,
) -> tuple[np.ndarray, ContingencyTable, dict[str, TestReport]]:
    """Estimate, bin, tabulate and test one dataset: the library's entry point.

    The one implementation behind the library, `condgof test` and
    run_replication. cells is each row's 0-based cell of partition, a 1-d
    integer array of data.n values in [0, partition.J): the cells a builder
    (gessaman_partition, rtp_partition, marginal_grid_partition) returns, or
    partition.locate0(data.x) for a partition not built from the data. The
    table and the raw-MLE Wald share it. estimator is one of ESTIMATORS.
    "known" takes theta as given and requires it. "raw_mle" (least squares
    for GaussianLinearModel itself, not a subclass; otherwise mle_numeric
    from zero, or 1 for a log-scale parameter) and "min_chisq" (the raw MLE
    refined by min_chisq_estimate's one step) refuse a theta. A request
    stats.check_request refuses, a model for another k than data.k and bad
    cells raise InvalidArgumentError, L > n InsufficientDataError and a
    response below the model's support OutOfSupportError, all before
    anything is estimated. Returns (theta, table, reports by statistic
    name).
    """
    theta = check_request(model, estimator, stats, theta)
    _check_k(model, data)
    cells = as_cells(cells, data.n, partition.J)
    if as_integer("L", L, 1) > data.n:  # before the grid, so an absurd L allocates nothing
        raise InsufficientDataError(f"need n >= L = {L} points, got {data.n}")
    grid = balanced_grid(L)
    below = np.flatnonzero(data.y < model.support_lower)
    if below.size:
        raise OutOfSupportError(
            f"response at row {below[0]} is {float(data.y[below[0]])}, "
            f"outside the support y >= {model.support_lower} of {model.name}"
        )
    if estimator != "known":
        if type(model) is GaussianLinearModel:  # a subclass may change the law
            theta = mle_gaussian_linear(data)
        else:
            init = np.zeros(model.param_dim)
            init[list(model.log_scale_indices())] = 1.0  # zero on the log scale
            theta = mle_numeric(
                model, data, init, OptimizerConfig(max_iterations=500, tolerance=1e-6)
            )
    if estimator == "min_chisq":
        theta = min_chisq_estimate(model, data, grid, partition, theta)

    bins = response_bins(model, theta, data, model.pivot_edges(grid.thresholds))
    table = tabulate_cells(bins, cells, grid, partition.J)

    wald_in = WaldInputs(model=model, theta_hat=theta, data=data, cells=cells)
    reports = {name: run_test(name, table, estimator, model.param_dim, wald_in) for name in stats}
    return theta, table, reports


def run_replication(cfg: SimConfig, rep_index: int) -> RepOutcome:
    """One full pipeline pass; pure function of (cfg, rep_index)."""
    outcome = RepOutcome(rep_index=rep_index)
    try:
        data_rng, part_seed = _rep_streams(cfg.master_seed, rep_index)
        data = simulate_dataset(cfg.dgp, data_rng)
        model = resolve_model(cfg.model, cfg.dgp.k)
        partition, cells = _build_partition(cfg, data.x, part_seed)
        _theta, _table, outcome.reports = run_pipeline(
            model, data, partition, cells, cfg.L, cfg.estimator, cfg.stats, theta=cfg.theta
        )
    except CondgofError as exc:
        outcome.reports = {}
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


@dataclass
class StatLevelResult:
    stat: str
    level: float
    rejections: int
    rate: float
    mc_se: float


@dataclass
class StatSummary:
    stat: str
    mean: float
    variance: float | None  # None below 2 successful replications
    ks_uniform: float | None
    mean_df: float | None


@dataclass
class SimResult:
    config: SimConfig
    replications: int
    failed: int
    results: list[StatLevelResult]
    summaries: list[StatSummary]
    failures: list[tuple[int, str]]

    def rate(self, stat: str, level: float) -> float:
        for row in self.results:
            if row.stat == stat and row.level == level:
                return row.rate
        raise InvalidArgumentError(f"no result for stat={stat!r} level={level}")

    def summary(self, stat: str) -> StatSummary:
        for s in self.summaries:
            if s.stat == stat:
                return s
        raise InvalidArgumentError(f"no summary for stat={stat!r}")

    def to_dict(self) -> dict:
        """The JSON-ready document: the fields in order, each failure as an object."""
        failures = [{"rep_index": i, "reason": msg} for i, msg in self.failures]
        return dict(dataclasses.asdict(self), failures=failures)


def ks_uniform_distance(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the uniform law on [0, 1]."""
    u = np.sort(np.asarray(values, dtype=np.float64))
    n = u.shape[0]
    if n == 0:
        raise InvalidArgumentError("need at least one value")
    hi = np.arange(1, n + 1) / n - u
    lo = u - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def aggregate(cfg: SimConfig, outcomes: list[RepOutcome]) -> SimResult:
    """Reduce replication outcomes; invariant to the order they arrive in."""
    ordered = sorted(outcomes, key=lambda o: o.rep_index)
    failures = [(o.rep_index, o.error) for o in ordered if o.error is not None]
    good = [o for o in ordered if o.error is None]
    R = len(ordered)
    if R == 0:
        raise InvalidArgumentError("no outcomes to aggregate")
    if len(failures) > 0.05 * R:
        raise ExperimentInvalidError(
            f"{len(failures)} of {R} replications failed (> 5%)"
        )
    n_eff = len(good)  # >= 1: an experiment with every replication failed is invalid
    results: list[StatLevelResult] = []
    summaries: list[StatSummary] = []
    for name in cfg.stats:
        reports = [o.reports[name] for o in good]
        values = np.array([rep.value for rep in reports])
        point_ps = [rep.p_value for rep in reports if rep.p_value is not None]
        ks = None
        if len(point_ps) == n_eff:
            ks = ks_uniform_distance(np.array(point_ps))
        dfs = [rep.df for rep in reports if rep.df is not None]
        mean_df = float(np.mean(dfs)) if len(dfs) == n_eff else None
        summaries.append(
            StatSummary(
                stat=name,
                mean=float(values.mean()),
                variance=float(values.var(ddof=1)) if n_eff > 1 else None,
                ks_uniform=ks,
                mean_df=mean_df,
            )
        )
        for level in cfg.levels:
            rej = sum(1 for rep in reports if rep.rejects(level))
            rate = rej / n_eff
            se = math.sqrt(rate * (1.0 - rate) / n_eff)
            results.append(
                StatLevelResult(
                    stat=name, level=level, rejections=rej, rate=rate, mc_se=se
                )
            )
    return SimResult(
        config=cfg,
        replications=R,
        failed=len(failures),
        results=results,
        summaries=summaries,
        failures=failures,
    )


def run_experiment(cfg: SimConfig) -> SimResult:
    """Run all replications sequentially and aggregate."""
    outcomes = [run_replication(cfg, i) for i in range(cfg.replications)]
    return aggregate(cfg, outcomes)


def calibrate_df(cfg: SimConfig) -> dict:
    """Null-distribution diagnostic: statistic means against policy_df.

    Runs the experiment and reports, per statistic, the Monte Carlo mean and
    its standard error (None below two successful replications) next to
    policy_df for the configured estimator, plus the mean reported point df
    when the statistic carries one (the raw-MLE Wald's covariance rank).
    """
    res = run_experiment(cfg)
    p = resolve_model(cfg.model, cfg.dgp.k).param_dim
    J = cfg.partition.cell_count(cfg.dgp.k)
    out = {}
    for name in cfg.stats:
        summ = res.summary(name)
        n_eff = res.replications - res.failed
        se = None if summ.variance is None else math.sqrt(summ.variance / n_eff)
        out[name] = {
            "mean": summ.mean,
            "se": se,
            "df": policy_df(cfg.estimator, cfg.L, J, p),
            "mean_reported_df": summ.mean_df,
            "replications": n_eff,
        }
    return out


def _from_fields(cls, doc, section: str, problems: list[str]):
    """cls from doc, or None after noting each problem of this section and those below.

    A field whose type is a dataclass is read the same way from its sub-document.
    """
    if not isinstance(doc, dict):
        problems.append(f"{section} (must be a JSON object)")
        return None
    noted = len(problems)
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = [key for key in doc if key not in names]
    missing = [f.name for f in fields if f.name not in doc and f.default is dataclasses.MISSING]
    for what, names in (("unknown", unknown), ("missing required", missing)):
        if names:
            problems.append(f"{section} ({what} fields {', '.join(map(repr, names))})")
    types = typing.get_type_hints(cls)
    values = {key: value for key, value in doc.items() if key not in unknown}
    for name, value in values.items():
        if dataclasses.is_dataclass(types[name]):
            values[name] = _from_fields(types[name], value, name, problems)
    if len(problems) > noted:
        return None
    try:
        return cls(**values)
    except (CondgofError, TypeError, ValueError) as exc:
        problems.append(f"{section} ({exc})")
        return None


def config_from_dict(doc: dict) -> SimConfig:
    """Parse a simulation config document, naming every offending field on one line."""
    problems: list[str] = []
    cfg = _from_fields(SimConfig, doc, "config", problems)
    if problems:
        raise InvalidArgumentError("invalid simulation config fields: " + "; ".join(problems))
    return cfg
