"""Simulation engine: reproducibility, aggregation, and df diagnostics."""

import math

import numpy as np
import pytest
import scipy.stats

from condgof import (
    DgpSpec,
    ExperimentInvalidError,
    InvalidArgumentError,
    Partition,
    PartitionRule,
    RepOutcome,
    SimConfig,
    aggregate,
    backend,
    calibrate_df,
    config_from_dict,
    config_to_dict,
    ks_uniform_distance,
    law_grid_partition,
    run_experiment,
    run_replication,
    simulate_dataset,
)

NULL_DGP = DgpSpec(
    family="gaussian_linear",
    true_params=(0.5, 1.0, -0.7, 1.0),
    covariate_law="uniform",
    n=400,
    k=2,
)


def _known_cfg(**kw):
    base = dict(
        dgp=NULL_DGP,
        model="gaussian_linear",
        estimator="known",
        theta=(0.5, 1.0, -0.7, 1.0),
        L=4,
        partition=PartitionRule(kind="gessaman", T=2),
        stats=("pearson",),
        replications=40,
        master_seed=7,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_dgp_fields(self):
        with pytest.raises(InvalidArgumentError):
            DgpSpec(family="weibull", true_params=(1.0,), covariate_law="uniform", n=10, k=1)
        with pytest.raises(InvalidArgumentError):
            DgpSpec(family="gaussian_linear", true_params=(1.0,), covariate_law="beta", n=10, k=1)
        with pytest.raises(InvalidArgumentError):
            DgpSpec(family="gaussian_linear", true_params=(1.0,), covariate_law="uniform", n=0, k=1)

    def test_partition_rule_fields(self):
        with pytest.raises(InvalidArgumentError):
            PartitionRule(kind="voronoi")
        with pytest.raises(InvalidArgumentError):
            PartitionRule(kind="rtp", T=1)
        with pytest.raises(InvalidArgumentError):
            PartitionRule(kind="rtp", r=0)
        assert PartitionRule(kind="rtp", T=2, r=2).cell_count(2) == 5
        assert PartitionRule(kind="gessaman", T=3).cell_count(2) == 9

    def test_sim_config_fields(self):
        with pytest.raises(InvalidArgumentError):
            _known_cfg(levels=(0.0,))
        with pytest.raises(InvalidArgumentError):
            _known_cfg(levels=(1.0,))
        for levels in (0.05, "0.05", ("0.05",), (True,), (float("nan"),), ()):
            with pytest.raises(InvalidArgumentError, match="levels must be a list"):
                _known_cfg(levels=levels)
        with pytest.raises(InvalidArgumentError, match="levels must name each level once"):
            _known_cfg(levels=(0.05, 0.05))
        assert _known_cfg(levels=[0.1, np.float64(0.05)]).levels == (0.1, 0.05)
        with pytest.raises(InvalidArgumentError):
            _known_cfg(stats=())
        with pytest.raises(InvalidArgumentError):
            _known_cfg(stats=("hotelling",))
        with pytest.raises(InvalidArgumentError):
            _known_cfg(estimator="bayes")
        with pytest.raises(InvalidArgumentError):
            _known_cfg(replications=0)
        with pytest.raises(InvalidArgumentError):
            _known_cfg(L=0)
        with pytest.raises(InvalidArgumentError):
            _known_cfg(df_convention="fisher")
        with pytest.raises(InvalidArgumentError):
            _known_cfg(theta=None)  # known estimator needs theta
        with pytest.raises(InvalidArgumentError, match="unknown model family"):
            _known_cfg(model="weibull")
        with pytest.raises(InvalidArgumentError, match="needs 4 theta values"):
            _known_cfg(theta=(0.5, 1.0, 1.0))
        with pytest.raises(InvalidArgumentError, match="master_seed"):
            _known_cfg(master_seed=-1)
        for field, value in (("master_seed", 1.7), ("L", 4.5), ("replications", "40")):
            with pytest.raises(InvalidArgumentError, match=f"{field} must be an integer"):
                _known_cfg(**{field: value})
        with pytest.raises(InvalidArgumentError, match="theta must be finite"):
            _known_cfg(theta=(0.5, 1.0, float("nan"), 1.0))
        with pytest.raises(InvalidArgumentError, match="true_params must be finite"):
            DgpSpec(family="gaussian_linear", true_params=(0, 1, "nan"),
                    covariate_law="uniform", n=10, k=1)
        with pytest.raises(InvalidArgumentError, match="n must be an integer"):
            DgpSpec(family="gaussian_linear", true_params=(0, 1, 1),
                    covariate_law="uniform", n=10.5, k=1)
        with pytest.raises(InvalidArgumentError, match="T must be an integer"):
            PartitionRule(kind="rtp", T=2.5)
        # a float is not an integer, even a whole one; numpy integers are stored as int
        with pytest.raises(InvalidArgumentError, match="L must be an integer"):
            _known_cfg(L=4.0)
        cfg = _known_cfg(master_seed=np.uint64(7), L=np.int64(4))
        assert (cfg.master_seed, cfg.L) == (7, 4) and type(cfg.master_seed) is int


class TestSimulateDataset:
    def test_shapes_and_laws(self):
        rng = np.random.Generator(np.random.Philox(1))
        d = simulate_dataset(NULL_DGP, rng)
        assert d.n == 400 and d.k == 2
        assert np.abs(d.x).max() <= 1.0

    def test_normal_law_unbounded(self):
        dgp = DgpSpec(
            family="gaussian_linear",
            true_params=(0.0, 1.0, 1.0),
            covariate_law="normal",
            n=2000,
            k=1,
        )
        d = simulate_dataset(dgp, np.random.Generator(np.random.Philox(2)))
        assert np.abs(d.x).max() > 1.5

    def test_exponential_nonnegative(self):
        dgp = DgpSpec(
            family="exponential_regression",
            true_params=(0.5, -0.2),
            covariate_law="uniform",
            n=500,
            k=1,
        )
        d = simulate_dataset(dgp, np.random.Generator(np.random.Philox(3)))
        assert (d.y >= 0).all()

    def test_heteroskedastic_spread_grows_with_first_covariate(self):
        dgp = DgpSpec(
            family="gaussian_heteroskedastic",
            true_params=(0.0, 0.0, 0.0, 1.0),
            covariate_law="uniform",
            n=40000,
            k=2,
        )
        d = simulate_dataset(dgp, np.random.Generator(np.random.Philox(4)))
        inner = np.abs(d.x[:, 0]) < 0.3
        outer = np.abs(d.x[:, 0]) > 0.7
        assert d.y[outer].std() > 1.3 * d.y[inner].std()

    def test_param_count_checked(self):
        # checked when the spec is built, before any data is drawn
        for family, params in (
            ("gaussian_linear", (0.0, 1.0)),
            ("gaussian_heteroskedastic", (0.0, 1.0, 1.0, 1.0, 1.0)),
            ("exponential_regression", (0.0, 1.0, 1.0, 1.0)),
        ):
            with pytest.raises(InvalidArgumentError, match="true parameters"):
                DgpSpec(family=family, true_params=params, covariate_law="uniform", n=50, k=2)


class TestLawGridPartition:
    def test_uniform_edges(self):
        p = law_grid_partition("uniform", 1, 4)
        assert p.J == 4
        lo, up = p.bounds()
        np.testing.assert_allclose(sorted(up[:, 0])[:-1], [-0.5, 0.0, 0.5])

    def test_normal_edges_are_quantiles(self):
        p = law_grid_partition("normal", 1, 4)
        lo, up = p.bounds()
        cuts = sorted(u for u in up[:, 0] if np.isfinite(u))
        oracle = [scipy.stats.norm.ppf(q) for q in (0.25, 0.5, 0.75)]
        np.testing.assert_allclose(cuts, oracle, atol=1e-12)

    def test_covers_everything(self):
        p = law_grid_partition("normal", 2, 2)
        assert p.J == 4
        pts = np.array([[-50.0, 50.0], [50.0, -50.0], [0.0, 0.0], [1e6, 1e6]])
        assert set(p.locate0(pts)) <= set(range(4))

    def test_unknown_law(self):
        with pytest.raises(InvalidArgumentError):
            law_grid_partition("cauchy", 1, 2)


class TestReplicationReproducibility:
    def test_bit_identical(self):
        cfg = _known_cfg(stats=("pearson", "lr"))
        a = run_replication(cfg, 3)
        b = run_replication(cfg, 3)
        assert a.error is None and b.error is None
        for name in cfg.stats:
            assert a.reports[name].value == b.reports[name].value
            assert a.reports[name].p_value == b.reports[name].p_value

    def test_reps_differ(self):
        cfg = _known_cfg()
        vals = {run_replication(cfg, i).reports["pearson"].value for i in range(6)}
        assert len(vals) == 6

    def test_master_seed_matters(self):
        a = run_replication(_known_cfg(master_seed=1), 0)
        b = run_replication(_known_cfg(master_seed=2), 0)
        assert a.reports["pearson"].value != b.reports["pearson"].value

    def test_failure_recorded_not_raised(self):
        # gessaman needs T^k points per cell; n smaller than T^k must fail
        cfg = _known_cfg(
            dgp=DgpSpec(
                family="gaussian_linear",
                true_params=(0.5, 1.0, -0.7, 1.0),
                covariate_law="uniform",
                n=8,
                k=2,
            ),
            partition=PartitionRule(kind="gessaman", T=4),
        )
        out = run_replication(cfg, 0)
        assert out.error is not None and out.reports == {}
        assert "Error" in out.error


class TestSharedPipeline:
    @pytest.mark.parametrize("estimator, most", [("raw_mle", 1), ("min_chisq", 2)])
    def test_cells_located_once_per_dataset(self, monkeypatch, estimator, most):
        # min_chisq_estimate locates once more for its own objective
        calls = []
        locate0 = Partition.locate0

        def counting_locate0(self, x):
            calls.append(self)
            return locate0(self, x)

        monkeypatch.setattr(Partition, "locate0", counting_locate0)
        cfg = _known_cfg(
            estimator=estimator,
            theta=None,
            partition=PartitionRule(kind="rtp", T=2, r=2),
            stats=("pearson", "lr", "wald"),
        )
        out = run_replication(cfg, 0)
        assert out.error is None
        assert 1 <= len(calls) <= most


class TestAggregate:
    def _outcomes(self, cfg):
        return [run_replication(cfg, i) for i in range(cfg.replications)]

    def test_order_invariant(self):
        cfg = _known_cfg(replications=30, stats=("pearson", "lr"))
        outs = self._outcomes(cfg)
        base = aggregate(cfg, outs)
        rng = np.random.Generator(np.random.Philox(9))
        perm = [outs[i] for i in rng.permutation(len(outs))]
        again = aggregate(cfg, perm)
        assert base.to_dict() == again.to_dict()

    def test_failures_tolerated_below_threshold(self):
        cfg = _known_cfg(replications=42)
        outs = self._outcomes(_known_cfg(replications=40))
        outs.append(RepOutcome(rep_index=40, error="InsufficientDataError: x"))
        outs.append(RepOutcome(rep_index=41, error="InsufficientDataError: y"))
        res = aggregate(cfg, outs)
        assert res.failed == 2 and res.replications == 42
        assert res.failures == [(40, "InsufficientDataError: x"), (41, "InsufficientDataError: y")]
        # rates computed over the 40 good outcomes only
        row = res.results[0]
        assert row.rejections <= 40
        assert row.rate == row.rejections / 40

    def test_too_many_failures_invalidate(self):
        cfg = _known_cfg(replications=40)
        outs = self._outcomes(_known_cfg(replications=37))
        for i in (37, 38, 39):
            outs.append(RepOutcome(rep_index=i, error="boom"))
        with pytest.raises(ExperimentInvalidError):
            aggregate(cfg, outs)

    def test_single_replication(self):
        cfg = _known_cfg(replications=1)
        res = run_experiment(cfg)
        assert res.replications == 1 and res.failed == 0
        assert res.rate("pearson", 0.05) in (0.0, 1.0)
        assert math.isnan(res.summary("pearson").variance)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            aggregate(_known_cfg(), [])

    def test_interval_p_disables_ks_and_mean_df(self):
        cfg = SimConfig(
            dgp=NULL_DGP,
            model="gaussian_linear",
            estimator="raw_mle",
            L=4,
            partition=PartitionRule(kind="gessaman", T=2),
            stats=("pearson", "wald"),
            replications=25,
            master_seed=3,
        )
        res = run_experiment(cfg)
        assert res.summary("pearson").ks_uniform is None
        assert res.summary("pearson").mean_df is None
        # the raw-MLE wald carries a point df (its covariance rank) and p
        assert res.summary("wald").mean_df == pytest.approx(12.0)
        assert res.summary("wald").ks_uniform is not None

    def test_result_lookup_errors(self):
        res = run_experiment(_known_cfg(replications=5))
        with pytest.raises(InvalidArgumentError):
            res.rate("neyman", 0.05)
        with pytest.raises(InvalidArgumentError):
            res.summary("neyman")


class TestKsDistance:
    def test_hand_values(self):
        assert ks_uniform_distance(np.array([0.5])) == pytest.approx(0.5)
        assert ks_uniform_distance(np.array([0.25, 0.75])) == pytest.approx(0.25)
        assert ks_uniform_distance(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_input_order_irrelevant(self):
        rng = np.random.Generator(np.random.Philox(10))
        u = rng.uniform(0, 1, 200)
        assert ks_uniform_distance(u) == ks_uniform_distance(np.sort(u)[::-1])

    def test_matches_scipy(self):
        rng = np.random.Generator(np.random.Philox(11))
        u = rng.uniform(0, 1, 500)
        assert ks_uniform_distance(u) == pytest.approx(
            scipy.stats.kstest(u, "uniform").statistic, abs=1e-12
        )

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            ks_uniform_distance(np.array([]))


class TestCalibrateDf:
    def test_known_theta_mean_tracks_conditional_df(self):
        cfg = _known_cfg(replications=300, stats=("pearson", "lr"), master_seed=21)
        out = calibrate_df(cfg)
        for name in ("pearson", "lr"):
            row = out[name]
            assert row["df_conditional"] == 12
            assert row["df_unconditional"] == 15
            assert row["mean_reported_df"] == pytest.approx(12.0)
            assert abs(row["mean"] - 12.0) <= 3.0 * row["se"]

    def test_minimization_shrinks_the_statistic(self):
        common = dict(
            dgp=NULL_DGP,
            model="gaussian_linear",
            L=4,
            partition=PartitionRule(kind="gessaman", T=2),
            stats=("pearson",),
            replications=40,
            master_seed=11,
        )
        raw = calibrate_df(SimConfig(estimator="raw_mle", **common))
        grouped = calibrate_df(SimConfig(estimator="min_chisq", **common))
        assert grouped["pearson"]["df_conditional"] == 8
        assert grouped["pearson"]["mean"] < raw["pearson"]["mean"]


class TestSupport:
    @pytest.mark.parametrize("estimator", ["known", "raw_mle", "min_chisq"])
    def test_replication_with_negative_response_fails(self, estimator):
        # Gaussian responses fall below the exponential family's support y >= 0
        cfg = _known_cfg(model="exponential_regression", estimator=estimator,
                         theta=(0.0, 0.0, 0.0) if estimator == "known" else None)
        outcome = run_replication(cfg, 0)
        assert outcome.reports == {}
        assert outcome.error.startswith("OutOfSupportError: response at row ")


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = _known_cfg(
            stats=("pearson", "lr", "wald"),
            levels=(0.05, 0.1),
            partition=PartitionRule(kind="rtp", T=2, r=2),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_raw_mle_round_trip_without_theta(self):
        cfg = SimConfig(
            dgp=NULL_DGP,
            model="gaussian_linear",
            estimator="raw_mle",
            L=3,
            partition=PartitionRule(kind="grid", T=2),
            replications=10,
        )
        doc = config_to_dict(cfg)
        assert doc["theta"] is None
        assert config_from_dict(doc) == cfg

    def test_problems_listed_by_field(self):
        doc = config_to_dict(_known_cfg())
        doc["dgp"]["family"] = "weibull"
        doc["partition"]["kind"] = "voronoi"
        with pytest.raises(InvalidArgumentError) as exc:
            config_from_dict(doc)
        msg = str(exc.value)
        assert "dgp" in msg and "partition" in msg

    def test_unknown_and_missing_fields_named_section_by_section(self):
        doc = config_to_dict(_known_cfg())
        doc.update(level=[0.01], stat=["lr"], df_conventon="unconditional")
        doc["dgp"]["nn"] = 5
        del doc["dgp"]["k"]
        doc["partition"]["R"] = 2
        with pytest.raises(InvalidArgumentError) as exc:
            config_from_dict(doc)
        assert str(exc.value) == (
            "invalid simulation config fields: "
            "config (unknown fields 'level', 'stat', 'df_conventon'); "
            "dgp (unknown fields 'nn'); dgp (missing required fields 'k'); "
            "partition (unknown fields 'R')"
        )

    def test_absent_fields_take_dataclass_defaults(self):
        doc = {
            "dgp": config_to_dict(_known_cfg())["dgp"],
            "model": "gaussian_linear",
            "estimator": "raw_mle",
            "L": 4,
            "partition": {"kind": "rtp"},
        }
        cfg = config_from_dict(doc)
        assert cfg == SimConfig(
            dgp=NULL_DGP, model="gaussian_linear", estimator="raw_mle", L=4,
            partition=PartitionRule(kind="rtp"),
        )
        assert (cfg.replications, cfg.partition.T, cfg.theta) == (100, 2, None)

    def test_bad_top_level(self):
        with pytest.raises(InvalidArgumentError):
            config_from_dict([1, 2, 3])
        with pytest.raises(InvalidArgumentError) as exc:
            config_from_dict({"dgp": "nope"})
        assert "dgp" in str(exc.value)
