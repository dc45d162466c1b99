"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a single pass/fail
line per guarantee.  Each test prints a one-line diagnostic with the
measured numbers so a failing run shows how far off it was.

The Monte Carlo experiments are seeded and deterministic, so the rates
asserted here are exact reruns, not fresh draws: a failure means the code
changed, not that the dice came up wrong.
"""

import json

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from condgof import (
    ContingencyTable,
    DgpSpec,
    PartitionRule,
    SimConfig,
    aggregate,
    balanced_grid,
    calibrate_df,
    chisq_sf,
    gessaman_partition,
    lm_stat,
    pearson_stat,
    resolve_model,
    rosenblatt,
    rtp_partition,
    run_experiment,
    run_replication,
    simulate_dataset,
)
from condgof.cli import main
from condgof.mc import ks_uniform_distance

from wald_oracle import null_form

TRUE = (0.5, 1.0, -0.7, 1.0)
NULL_DGP = DgpSpec(
    family="gaussian_linear", true_params=TRUE, covariate_law="uniform", n=500, k=2
)
# 99% binomial band around .05 at R = 2000
BAND = (0.037, 0.063)
R = 2000


def cell_counts(part, x):
    """Rows of x in each cell of part, located by locate0."""
    return np.bincount(part.locate0(x), minlength=part.J)


def _size_config(partition, estimator="known", master_seed=2024):
    return SimConfig(
        dgp=NULL_DGP,
        model="gaussian_linear",
        estimator=estimator,
        theta=TRUE if estimator == "known" else None,
        L=4,
        partition=partition,
        stats=("pearson", "lr", "wald"),
        levels=(0.05,),
        replications=R,
        master_seed=master_seed,
    )


@pytest.fixture(scope="module")
def size_rtp():
    return run_experiment(_size_config(PartitionRule(kind="rtp", T=2, r=2)))


@pytest.fixture(scope="module")
def size_grid():
    return run_experiment(_size_config(PartitionRule(kind="grid", T=2)))


@pytest.fixture(scope="module")
def raw_mle_outcomes():
    cfg = _size_config(
        PartitionRule(kind="rtp", T=2, r=2), estimator="raw_mle", master_seed=314
    )
    return cfg, [run_replication(cfg, i) for i in range(cfg.replications)]


def test_01_pearson_equals_lm_and_null_wald():
    """Pearson == LM exactly and == the dense null-covariance Wald form numerically."""
    rng = np.random.Generator(np.random.Philox(99))
    worst_lm = worst_wald = 0.0
    for _ in range(1000):
        L = int(rng.integers(2, 7))
        J = int(rng.integers(2, 7))
        O = rng.integers(1, 60, size=(L, J))
        t = ContingencyTable(O=O, grid=balanced_grid(L))
        x2 = pearson_stat(t)
        worst_lm = max(worst_lm, abs(x2 - lm_stat(t)))
        worst_wald = max(worst_wald, abs(x2 - null_form(t)[0]))
    print(f"[01] |pearson-lm| max {worst_lm:.2e}, |pearson-wald| max {worst_wald:.2e}")
    assert worst_lm <= 1e-12
    assert worst_wald <= 1e-8


def test_02_partition_count_guarantees():
    """Cell-count balance for gessaman and the tree rule's count invariants."""
    # gessaman: near-equal counts on distinct coordinates
    for seed in range(200):
        rng = np.random.Generator(np.random.Philox(7000 + seed))
        k = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        n = int(rng.integers(T**k * 2, T**k * 12))
        x = rng.normal(size=(n, k))
        c = cell_counts(gessaman_partition(x, T)[0], x)
        assert c.max() - c.min() <= 1

    # tree rule: exact terminal count for every (k, T, r)
    for seed in range(200):
        rng = np.random.Generator(np.random.Philox(8000 + seed))
        k = int(rng.integers(1, 4))
        T = int(rng.integers(2, 4))
        r = int(rng.integers(1, 4))
        J = 1 + k * r * (T - 1)
        x = rng.normal(size=(int(rng.integers(2 * J, 12 * J)), k))
        part, _ = rtp_partition(x, T, r, seed=seed)
        assert part.J == J

    # binary splits: max count <= 2 * min + 1 (splitting the largest cell
    # in halves cannot leave a cell more than one past double the smallest)
    worst_ratio_gap = -10**9
    for seed in range(200):
        rng = np.random.Generator(np.random.Philox(9000 + seed))
        k = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        J = 1 + k * r
        x = rng.normal(size=(int(rng.integers(J, 12 * J)), k))
        part, _ = rtp_partition(x, 2, r, seed=seed)
        c = cell_counts(part, x)
        worst_ratio_gap = max(worst_ratio_gap, int(c.max() - (2 * c.min() + 1)))
        assert c.max() <= 2 * c.min() + 1

    # full trees (split budget (T^q - 1)/(T - 1)) come out near-uniform
    for seed in range(40):
        rng = np.random.Generator(np.random.Philox(9500 + seed))
        x = rng.normal(size=(400, 7))
        part, _ = rtp_partition(x, 2, 1, seed=seed, equal_depth=True)
        c = cell_counts(part, x)
        assert part.J == 8 and c.max() - c.min() <= 1
    for seed in range(40):
        rng = np.random.Generator(np.random.Philox(9700 + seed))
        x = rng.normal(size=(450, 2))
        part, _ = rtp_partition(x, 3, 2, seed=seed, equal_depth=True)
        c = cell_counts(part, x)
        assert part.J == 9 and c.max() - c.min() <= 1
    print(f"[02] all count invariants hold; worst binary slack {worst_ratio_gap}")


def test_03_chisq_tail_probability_accuracy():
    """Survival function agrees with adaptive quadrature of the density."""

    def quad_sf(x, df):
        val, _ = integrate.quad(lambda t: chi2.pdf(t, df), x, np.inf, limit=200)
        return val

    xs = [0.1, 0.5, 1.0, 2.0, 3.8415, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0]
    worst = 0.0
    for df in range(1, 31):
        for x in xs:
            worst = max(worst, abs(chisq_sf(float(x), df) - quad_sf(x, df)))
    spot = chisq_sf(3.8415, 1)
    print(f"[03] worst |sf - quadrature| {worst:.2e}; Q(3.8415, 1) = {spot:.6f}")
    assert worst <= 1e-8
    assert abs(spot - 0.0500) <= 1e-4


def test_04_size_known_theta_rtp(size_rtp):
    """Null rejection rates at known theta sit in the 99% binomial band."""
    rates = {s: size_rtp.rate(s, 0.05) for s in ("pearson", "lr", "wald")}
    print(f"[04] rtp size: {rates} band {BAND}, failed {size_rtp.failed}")
    assert size_rtp.failed == 0
    for stat, rate in rates.items():
        assert BAND[0] <= rate <= BAND[1], f"{stat} rate {rate} outside {BAND}"


def test_05_grid_vs_rtp_size_agreement(size_rtp, size_grid):
    """Data-driven cells do not shift the null size relative to a fixed grid."""
    diffs = {}
    for stat in ("pearson", "lr", "wald"):
        g = size_grid.rate(stat, 0.05)
        assert BAND[0] <= g <= BAND[1], f"grid {stat} rate {g} outside {BAND}"
        row_r = next(r for r in size_rtp.results if r.stat == stat)
        row_g = next(r for r in size_grid.results if r.stat == stat)
        pooled = 3.0 * float(np.hypot(row_r.mc_se, row_g.mc_se))
        diffs[stat] = (abs(row_r.rate - row_g.rate), pooled)
        assert diffs[stat][0] <= pooled
    print(f"[05] |rtp - grid| vs 3*pooled se: {diffs}")


def test_06_raw_mle_wald_size_and_df(raw_mle_outcomes):
    """Wald at the raw-data MLE: size in band, mean matches its reported df."""
    cfg, outcomes = raw_mle_outcomes
    res = aggregate(cfg, outcomes)
    rate = res.rate("wald", 0.05)
    cal = calibrate_df(cfg)["wald"]
    gap = abs(cal["mean"] - cal["mean_reported_df"])
    print(
        f"[06] wald rate {rate}; mean {cal['mean']:.4f} vs reported df "
        f"{cal['mean_reported_df']} (3se = {3 * cal['se']:.4f}), failed {res.failed}"
    )
    assert res.failed == 0
    assert 0.030 <= rate <= 0.070
    assert gap <= 3.0 * cal["se"]


def test_07_pearson_df_bracket_under_estimation(raw_mle_outcomes):
    """Pearson at the raw-data MLE lands between its two reference chi-squares.

    Rejecting with the upper p (the fewer-df book) must be anti-conservative
    enough to clear the band floor; rejecting with the lower p (full df) must
    stay under the band ceiling.
    """
    _, outcomes = raw_mle_outcomes
    reports = [o.reports["pearson"] for o in outcomes if o.error is None]
    assert len(reports) == R
    p_lo_rate = float(np.mean([rep.p_interval[0] < 0.05 for rep in reports]))
    p_hi_rate = float(np.mean([rep.p_interval[1] < 0.05 for rep in reports]))
    print(f"[07] pearson p_hi rule {p_hi_rate}, p_lo rule {p_lo_rate}, band {BAND}")
    assert p_hi_rate <= BAND[1]
    assert p_lo_rate >= BAND[0]


def test_08_power_heteroskedastic_alternative():
    """The test notices scale that drifts with x1 when the model assumes it flat."""
    alt = DgpSpec(
        family="gaussian_heteroskedastic",
        true_params=TRUE,
        covariate_law="uniform",
        n=500,
        k=2,
    )
    common = dict(
        model="gaussian_linear",
        estimator="raw_mle",
        L=6,
        partition=PartitionRule(kind="gessaman", T=3),
        stats=("pearson",),
        levels=(0.05,),
        replications=800,
        master_seed=99,
    )
    power = run_experiment(SimConfig(dgp=alt, **common)).rate("pearson", 0.05)
    size = run_experiment(SimConfig(dgp=NULL_DGP, **common)).rate("pearson", 0.05)
    print(f"[08] power {power} vs null size {size}")
    assert power >= 0.20
    assert power > size


def test_09_cli_reports_byte_identical(tmp_path):
    """Same seed, same inputs: the CLI writes the same bytes twice."""
    rng = np.random.Generator(np.random.Philox(321))
    n = 300
    x1 = rng.uniform(-1, 1, n)
    x2 = rng.uniform(-1, 1, n)
    y = 0.5 + 1.0 * x1 - 0.7 * x2 + rng.standard_normal(n)
    csv = tmp_path / "data.csv"
    csv.write_text(
        "y,x1,x2\n"
        + "\n".join(f"{y[i]:.17g},{x1[i]:.17g},{x2[i]:.17g}" for i in range(n))
        + "\n"
    )
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    args = ["test", "--data", str(csv), "--y", "y", "--x", "x1,x2",
            "--model", "gaussian_linear", "--seed", "11"]
    assert main(args + ["--out", str(t1)]) == 0
    assert main(args + ["--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()

    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "dgp": {
                    "family": "gaussian_linear",
                    "true_params": list(TRUE),
                    "covariate_law": "uniform",
                    "n": 200,
                    "k": 2,
                },
                "model": "gaussian_linear",
                "estimator": "known",
                "theta": list(TRUE),
                "L": 4,
                "partition": {"kind": "rtp", "T": 2, "r": 2},
                "stats": ["pearson", "wald"],
                "levels": [0.05],
                "replications": 25,
                "master_seed": 5,
            }
        )
    )
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(s1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    print(f"[09] test report {t1.stat().st_size} B and simulate report "
          f"{s1.stat().st_size} B reproduced byte for byte")


def test_10_rosenblatt_uniformity_ks():
    """Transformed responses pass a 1%-level KS uniformity check under the truth."""
    dgp = DgpSpec(
        family="gaussian_linear",
        true_params=TRUE,
        covariate_law="uniform",
        n=10_000,
        k=2,
    )
    model = resolve_model("gaussian_linear", k=2)
    threshold = 1.63 / np.sqrt(10_000.0)
    passed = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        data = simulate_dataset(dgp, rng)
        d = ks_uniform_distance(rosenblatt(model, np.asarray(TRUE), data))
        worst = max(worst, d)
        passed += d < threshold
    print(f"[10] {passed}/100 below {threshold:.5f} (worst {worst:.5f})")
    assert passed >= 99


HIGH_DIM_DGP = DgpSpec(
    family="gaussian_linear",
    true_params=(0.5,) + (0.3,) * 10 + (1.0,),
    covariate_law="uniform",
    n=2000,
    k=10,
)


def _high_dim_config(estimator, stats, master_seed):
    """rtp T = 2, r = 2 at k = 10: J = 21 cells, J(L - 1) = 84 table df."""
    return SimConfig(
        dgp=HIGH_DIM_DGP,
        model="gaussian_linear",
        estimator=estimator,
        theta=HIGH_DIM_DGP.true_params if estimator == "known" else None,
        L=5,
        partition=PartitionRule(kind="rtp", T=2, r=2),
        stats=stats,
        levels=(0.05,),
        replications=R,
        master_seed=master_seed,
    )


def test_11_size_known_theta_high_dimension():
    """Known-theta Pearson keeps its size with ten covariates.

    LR is run and printed but not gated: with about 95 rows per cell its
    mean is J(L - 1) times Williams' factor 1 + (L + 1)/(6 n_j), about
    1.0105, and this design rejects 0.0675 at 5%, above BAND.
    """
    res = run_experiment(_high_dim_config("known", ("pearson", "lr"), 1011))
    rates = {s: res.rate(s, 0.05) for s in ("pearson", "lr")}
    print(f"[11] k = 10 size: {rates} band {BAND}, failed {res.failed}")
    assert res.failed == 0
    assert BAND[0] <= rates["pearson"] <= BAND[1], f"pearson rate outside {BAND}"


def test_12_raw_mle_wald_high_dimension():
    """Raw-MLE Wald with ten covariates: size in band, df J(L - 1) whatever p is."""
    res = run_experiment(_high_dim_config("raw_mle", ("wald",), 1012))
    rate = res.rate("wald", 0.05)
    summ = res.summary("wald")
    se = float(np.sqrt(summ.variance / (res.replications - res.failed)))
    print(
        f"[12] k = 10 wald rate {rate}; mean {summ.mean:.4f} vs reported df "
        f"{summ.mean_df} (3se = {3 * se:.4f}), failed {res.failed}"
    )
    assert res.failed == 0
    assert BAND[0] <= rate <= BAND[1], f"wald rate {rate} outside {BAND}"
    assert summ.mean_df == 84
    assert abs(summ.mean - summ.mean_df) <= 3.0 * se


EXP_DGP = DgpSpec(
    family="exponential_regression",
    true_params=(0.2, 0.3, 0.3),
    covariate_law="uniform",
    n=500,
    k=2,
)


def _exponential_config(estimator, stats, master_seed):
    """rtp T = 2, r = 2 at k = 2: J = 5 cells, J(L - 1) = 15 table df."""
    return SimConfig(
        dgp=EXP_DGP,
        model="exponential_regression",
        estimator=estimator,
        theta=EXP_DGP.true_params if estimator == "known" else None,
        L=4,
        partition=PartitionRule(kind="rtp", T=2, r=2),
        stats=stats,
        levels=(0.05,),
        replications=R,
        master_seed=master_seed,
    )


def test_13_exponential_family_size():
    """The second family keeps its size: known-theta Pearson and the raw-MLE Wald.

    The raw MLE here is Fisher scoring (mle_numeric), so no failed
    replication means it converged on every one; the Wald uses the family's
    closed-form information and score moments.
    """
    known = run_experiment(_exponential_config("known", ("pearson",), 1013))
    raw = run_experiment(_exponential_config("raw_mle", ("wald",), 1014))
    pearson_rate = known.rate("pearson", 0.05)
    wald_rate = raw.rate("wald", 0.05)
    summ = raw.summary("wald")
    se = float(np.sqrt(summ.variance / (raw.replications - raw.failed)))
    print(
        f"[13] exponential pearson rate {pearson_rate}, wald rate {wald_rate}; wald mean "
        f"{summ.mean:.4f} vs reported df {summ.mean_df} (3se = {3 * se:.4f}), "
        f"failed {known.failed} + {raw.failed}"
    )
    assert known.failed == 0 and raw.failed == 0
    assert BAND[0] <= pearson_rate <= BAND[1], f"pearson rate outside {BAND}"
    assert BAND[0] <= wald_rate <= BAND[1], f"wald rate outside {BAND}"
    assert summ.mean_df == 15
    assert abs(summ.mean - summ.mean_df) <= 3.0 * se


EXP_HIGH_DIM_DGP = DgpSpec(
    family="exponential_regression",
    true_params=(0.2,) + (0.3,) * 10,
    covariate_law="uniform",
    n=2000,
    k=10,
)


def test_13_exponential_family_size_high_dimension():
    """Test 13's gates on test 12's design: k = 10, n = 2000, rtp T = 2, r = 2, L = 5.

    Each replication builds a 21-cell rtp partition on ten covariates and
    runs Fisher scoring on eleven parameters; J(L - 1) = 84 table df.
    """

    def config(estimator, stats, master_seed):
        return SimConfig(
            dgp=EXP_HIGH_DIM_DGP,
            model="exponential_regression",
            estimator=estimator,
            theta=EXP_HIGH_DIM_DGP.true_params if estimator == "known" else None,
            L=5,
            partition=PartitionRule(kind="rtp", T=2, r=2),
            stats=stats,
            levels=(0.05,),
            replications=R,
            master_seed=master_seed,
        )

    known = run_experiment(config("known", ("pearson",), 1015))
    raw = run_experiment(config("raw_mle", ("wald",), 1016))
    pearson_rate = known.rate("pearson", 0.05)
    wald_rate = raw.rate("wald", 0.05)
    summ = raw.summary("wald")
    se = float(np.sqrt(summ.variance / (raw.replications - raw.failed)))
    print(
        f"[13] k = 10 exponential pearson rate {pearson_rate}, wald rate {wald_rate}; wald "
        f"mean {summ.mean:.4f} vs reported df {summ.mean_df} (3se = {3 * se:.4f}), "
        f"failed {known.failed} + {raw.failed}"
    )
    assert known.failed == 0 and raw.failed == 0
    assert BAND[0] <= pearson_rate <= BAND[1], f"pearson rate outside {BAND}"
    assert BAND[0] <= wald_rate <= BAND[1], f"wald rate outside {BAND}"
    assert summ.mean_df == 84
    assert abs(summ.mean - summ.mean_df) <= 3.0 * se


def test_14_min_chisq_size():
    """The grouped estimator's Pearson and LR keep their size at the point df J(L-1) - p.

    min_chisq_estimate takes one Gauss-Newton step from the raw MLE and keeps
    the start when the step's table fits worse. Each Pearson is then the
    smaller of two, which leans conservative, so the lower gate is 0.025
    rather than BAND[0]. The upper gate is BAND[1].
    """
    res = run_experiment(
        _size_config(PartitionRule(kind="rtp", T=2, r=2), "min_chisq", master_seed=1017)
    )
    pearson_rate, lr_rate = res.rate("pearson", 0.05), res.rate("lr", 0.05)
    summ = res.summary("pearson")
    print(
        f"[14] min_chisq pearson rate {pearson_rate}, lr rate {lr_rate}; pearson mean "
        f"{summ.mean:.4f} vs df {summ.mean_df}, failed {res.failed}"
    )
    assert res.failed == 0
    for name, rate in (("pearson", pearson_rate), ("lr", lr_rate)):
        assert 0.025 <= rate <= BAND[1], f"{name} rate {rate} outside [0.025, {BAND[1]}]"
        assert res.summary(name).mean_df == 11


def test_15_raw_mle_wald_more_parameters_than_df():
    """The Wald's law does not depend on p, even when p exceeds the table df.

    Gaussian k = 10 at n = 1000, rtp T = 2, r = 1 (J = 11 cells), L = 2:
    J(L - 1) = 11 table df against p = 12 parameters. The raw-MLE Wald keeps
    its size with point df 11, while raw-MLE Pearson has no calibration (its
    lower df is 11 - 12 < 1) and is refused on the same replications.
    """

    def config(stats):
        return SimConfig(
            dgp=DgpSpec(
                family="gaussian_linear",
                true_params=HIGH_DIM_DGP.true_params,
                covariate_law="uniform",
                n=1000,
                k=10,
            ),
            model="gaussian_linear",
            estimator="raw_mle",
            L=2,
            partition=PartitionRule(kind="rtp", T=2, r=1),
            stats=stats,
            levels=(0.05,),
            replications=R,
            master_seed=1018,
        )

    res = run_experiment(config(("wald",)))
    rate = res.rate("wald", 0.05)
    summ = res.summary("wald")
    se = float(np.sqrt(summ.variance / (res.replications - res.failed)))
    refused = [run_replication(config(("pearson",)), i).error for i in range(5)]
    print(
        f"[15] p = 12 > 11 df: wald rate {rate}; mean {summ.mean:.4f} vs reported df "
        f"{summ.mean_df} (3se = {3 * se:.4f}), failed {res.failed}; pearson: {refused[0]}"
    )
    assert res.failed == 0
    assert BAND[0] <= rate <= BAND[1], f"wald rate {rate} outside {BAND}"
    assert summ.mean_df == 11
    assert abs(summ.mean - summ.mean_df) <= 3.0 * se
    assert all(e is not None and e.startswith("InvalidDfError: lower df endpoint") for e in refused)
