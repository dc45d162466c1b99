"""Simulation engine: reproducibility, aggregation, and df diagnostics."""

import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats

from condgof import (
    Dataset,
    DgpSpec,
    ExperimentInvalidError,
    InvalidArgumentError,
    Partition,
    PartitionRule,
    RepOutcome,
    SimConfig,
    aggregate,
    balanced_grid,
    calibrate_df,
    config_from_dict,
    gessaman_partition,
    law_grid_partition,
    mc,
    min_chisq_estimate,
    resolve_model,
    run_experiment,
    run_pipeline,
    run_replication,
    run_test,
    simulate_dataset,
)
from condgof.estimate import mle_gaussian_linear
from condgof.mc import _build_partition, _rep_streams, ks_uniform_distance
from condgof.models import ConditionalModel, GaussianLinearModel, response_bins
from condgof.tabulate import tabulate_cells

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
        for estimator in ("raw_mle", "min_chisq"):
            message = f"^theta is used only by estimator 'known', not '{estimator}'$"
            with pytest.raises(InvalidArgumentError, match=message):
                _known_cfg(estimator=estimator)
        with pytest.raises(InvalidArgumentError):
            _known_cfg(theta=None)  # known estimator needs theta
        with pytest.raises(InvalidArgumentError, match="unknown model family"):
            _known_cfg(model="weibull")
        with pytest.raises(InvalidArgumentError, match="expected 4 parameters, got 3"):
            _known_cfg(theta=(0.5, 1.0, 1.0))
        with pytest.raises(InvalidArgumentError, match="master_seed"):
            _known_cfg(master_seed=-1)
        for field, value in (("master_seed", 1.7), ("L", 4.5), ("replications", "40")):
            with pytest.raises(InvalidArgumentError, match=f"{field} must be an integer"):
                _known_cfg(**{field: value})
        with pytest.raises(InvalidArgumentError, match="theta contains non-finite values"):
            _known_cfg(theta=(0.5, 1.0, float("nan"), 1.0))
        for sigma in (-1.0, 0.0):  # a theta outside the family's constraint
            with pytest.raises(InvalidArgumentError, match="invalid theta: .*sigma must be >="):
                _known_cfg(theta=(0.5, 1.0, -0.7, sigma))
        with pytest.raises(InvalidArgumentError, match="true_params must be finite"):
            DgpSpec(family="gaussian_linear", true_params=(0, 1, float("nan")),
                    covariate_law="uniform", n=10, k=1)
        for bad in (("0", "1", "1"), 1.0, ((0, 1, 1),)):  # strings, a scalar, a 2-d list
            with pytest.raises(InvalidArgumentError, match="^true_params must be [^\n]*$"):
                DgpSpec(family="gaussian_linear", true_params=bad,
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


class TestStreamContract:
    """Replication i of master seed s draws from children 0 (data) and 1
    (partition) of SeedSequence(entropy=s, spawn_key=(i,)), as mc.py states."""

    @pytest.mark.parametrize(
        "master_seed, rep_index", [(0, 0), (7, 3), (2024, 1999), (2**64 - 1, 5), (10**30, 12)]
    )
    def test_children_0_and_1(self, master_seed, rep_index):
        data_rng, part_seed = _rep_streams(master_seed, rep_index)
        child = [
            np.random.SeedSequence(entropy=master_seed, spawn_key=(rep_index, c)) for c in (0, 1)
        ]
        want = np.random.Generator(np.random.Philox(child[0])).random(8)
        assert np.array_equal(data_rng.random(8), want)
        assert part_seed == int(child[1].generate_state(1, dtype=np.uint64)[0])

    @pytest.mark.parametrize(
        "estimator, partition",
        [("raw_mle", PartitionRule(kind="rtp", T=2, r=2)), ("known", PartitionRule(kind="rtp"))],
    )
    def test_documents_match_a_three_stream_split(self, monkeypatch, estimator, partition):
        # the layout that also split off an estimator stream: children 0 and 1
        # are the same seeds, so a document that draws nothing else is unchanged
        cfg = _known_cfg(
            estimator=estimator,
            theta=None if estimator == "raw_mle" else (0.5, 1.0, -0.7, 1.0),
            partition=partition,
            stats=("pearson", "lr", "wald"),
            replications=12,
            master_seed=90210,
        )
        doc = json.dumps(run_experiment(cfg).to_dict())

        def three_streams(master_seed, rep_index):
            root = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep_index,))
            data_ss, part_ss, _est_ss = root.spawn(3)
            part_seed = int(part_ss.generate_state(1, dtype=np.uint64)[0])
            return np.random.Generator(np.random.Philox(data_ss)), part_seed

        monkeypatch.setattr(mc, "_rep_streams", three_streams)
        assert json.dumps(run_experiment(cfg).to_dict()) == doc


class TestSharedPipeline:
    @pytest.mark.parametrize(
        "kind, estimator, located",
        [("rtp", "raw_mle", 0), ("gessaman", "raw_mle", 0), ("rtp", "min_chisq", 0),
         ("grid", "raw_mle", 1)],
    )
    def test_built_partitions_are_not_located(self, monkeypatch, kind, estimator, located):
        # a build hands over its own cells, which run_pipeline passes on to
        # min_chisq_estimate's step; the law grid, not built from the data, is
        # located once
        calls = []
        locate0 = Partition.locate0

        def counting_locate0(self, x):
            calls.append(self)
            return locate0(self, x)

        monkeypatch.setattr(Partition, "locate0", counting_locate0)
        cfg = _known_cfg(
            estimator=estimator,
            theta=None,
            partition=PartitionRule(kind=kind, T=2, r=2),
            stats=("pearson", "lr", "wald"),
        )
        out = run_replication(cfg, 0)
        assert out.error is None
        assert len(calls) == located

    def test_high_dimensional_tree_is_not_located(self, monkeypatch):
        # k = 6, T = 3, r = 10: the build hands over the 121 cells of its 2000
        # rows, so the replication never locates them
        def no_locate(self, x):
            raise AssertionError("the points were located")

        monkeypatch.setattr(Partition, "locate0", no_locate)
        dgp = DgpSpec(
            family="gaussian_linear",
            true_params=(0.5, 1.0, -0.7, 0.3, 0.2, -0.1, 0.4, 1.0),
            covariate_law="uniform",
            n=2000,
            k=6,
        )
        cfg = _known_cfg(
            dgp=dgp,
            estimator="raw_mle",
            theta=None,
            partition=PartitionRule(kind="rtp", T=3, r=10),
            stats=("pearson", "wald"),
        )
        out = run_replication(cfg, 0)
        assert out.error is None and out.reports["wald"].df == 121 * 3
        data_rng, part_seed = _rep_streams(cfg.master_seed, 0)
        x = simulate_dataset(dgp, data_rng).x
        part, cells = _build_partition(cfg, x, part_seed)
        assert part.J == 121 and cells.shape == (2000,)

    @pytest.mark.parametrize("kind", ["rtp", "gessaman", "grid"])
    def test_min_chisq_is_the_public_step_then_the_table(self, kind):
        # run_pipeline passes the build's cells to the step and tabulates its
        # result; the public step locates them itself
        cfg = _known_cfg(
            estimator="min_chisq",
            theta=None,
            partition=PartitionRule(kind=kind, T=2, r=2),
            stats=("pearson", "lr", "lm", "neyman", "wald"),
        )
        model = GaussianLinearModel(k=2)
        grid = balanced_grid(cfg.L)
        for rep in range(4):
            data_rng, part_seed = _rep_streams(cfg.master_seed, rep)
            data = simulate_dataset(cfg.dgp, data_rng)
            part, cells = _build_partition(cfg, data.x, part_seed)
            theta, table, reports = run_pipeline(
                model, data, part, cells, cfg.L, "min_chisq", cfg.stats
            )
            step = min_chisq_estimate(model, data, grid, part, mle_gaussian_linear(data))
            bins = response_bins(model, step, data, model.pivot_edges(grid.thresholds))
            by_hand = tabulate_cells(bins, part.locate0(data.x), grid, part.J)
            assert np.array_equal(theta, step)
            assert np.array_equal(table.O, by_hand.O)
            p = model.param_dim
            assert reports == {name: run_test(name, by_hand, "min_chisq", p) for name in cfg.stats}


class TestPipelineInputs:
    """run_pipeline refuses its caller's inputs before anything is estimated or binned."""

    @pytest.fixture()
    def quick_start(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("estimated or binned before the inputs were checked")

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(400, 2))
        data = Dataset(y=0.5 + x @ [1.0, -0.7] + rng.standard_normal(400), x=x)
        part, cells = gessaman_partition(data.x, T=2)
        for name in ("mle_gaussian_linear", "mle_numeric", "response_bins"):
            monkeypatch.setattr(mc, name, no_fit)
        return resolve_model("gaussian_linear", k=2), data, part, cells

    def _refused(
        self,
        quick_start,
        match,
        cells=None,
        estimator="raw_mle",
        stats=("pearson",),
        theta=None,
        model=None,
    ):
        default_model, data, part, good = quick_start
        cells = good if cells is None else cells
        model = default_model if model is None else model
        with pytest.raises(InvalidArgumentError, match=match) as info:
            run_pipeline(model, data, part, cells, 4, estimator, stats, theta=theta)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda c: c[:-1],
            lambda c: c + 1,
            lambda c: c - 1,
            lambda c: c.astype(np.float64),
            lambda c: c.reshape(20, 20),
            lambda c: c.astype(bool),
            lambda c: [c[:-1].tolist(), [0]],
        ],
        ids=["short", "past_J", "negative", "float", "2d", "bool", "ragged"],
    )
    def test_cells(self, quick_start, bad):
        self._refused(quick_start, "cells must", cells=bad(quick_start[3]))

    def test_names(self, quick_start):
        self._refused(quick_start, "unknown estimator 'mle'", estimator="mle")
        self._refused(quick_start, "unknown statistic 'chi2'", stats=("pearson", "chi2"))

    def test_known_needs_theta(self, quick_start):
        self._refused(quick_start, "'known' requires theta", estimator="known")

    @pytest.mark.parametrize("estimator", ["raw_mle", "min_chisq"])
    def test_theta_only_under_known(self, quick_start, estimator):
        self._refused(
            quick_start, "theta is used only by", estimator=estimator, theta=(0.5, 1.0, -0.7, 1.0)
        )

    @pytest.mark.parametrize(
        "stats, match",
        [
            (("pearson", "pearson"), "stats must name each statistic once"),
            ((), "stats must be a list of at least one statistic"),
            ("pearson", "stats must be a list of at least one statistic, got 'pearson'"),
        ],
        ids=["repeated", "empty", "bare_string"],
    )
    def test_stats(self, quick_start, stats, match):
        self._refused(quick_start, match, stats=stats)

    @pytest.mark.parametrize(
        "theta, match",
        [
            ("abc", "theta must be a rectangular array of numbers"),
            ((0.5, 1.0, -0.7, -1.0), "invalid theta: gaussian_linear: sigma must be >="),
        ],
        ids=["not_numeric", "negative_sigma"],
    )
    def test_known_theta_values(self, quick_start, theta, match):
        self._refused(quick_start, match, estimator="known", theta=theta)

    @pytest.mark.parametrize("estimator", ["known", "raw_mle", "min_chisq"])
    @pytest.mark.parametrize("family", ["gaussian_linear", "exponential_regression"])
    def test_model_for_another_k(self, quick_start, family, estimator):
        model = resolve_model(family, k=3)
        theta = np.ones(model.param_dim) if estimator == "known" else None
        self._refused(
            quick_start,
            "^model expects k=3 covariates, data has k=2$",
            estimator=estimator,
            theta=theta,
            model=model,
        )

    def test_theta_is_a_keyword_and_nothing_is_seeded(self):
        params = inspect.signature(run_pipeline).parameters
        assert params["theta"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["theta"].default is None and "seed" not in params


class _LogisticLinear(GaussianLinearModel):
    """y | x ~ Logistic(beta0 + beta . x, s): the Gaussian family's parameters, another law."""

    # the Gaussian closed forms and pivot do not hold for this law
    expected_information = ConditionalModel.expected_information
    bin_score_means = ConditionalModel.bin_score_means
    pivot_map = ConditionalModel.pivot_map
    pivot_edges = ConditionalModel.pivot_edges

    def _z(self, y, x, theta):
        th = self.validate_theta(theta)
        return (y - th[0] - x @ th[1:-1]) / th[-1], th[-1]

    def cdf(self, y, x, theta):
        z, _s = self._z(y, x, theta)
        return 0.5 + 0.5 * np.tanh(0.5 * z)

    def log_density(self, y, x, theta):
        z, s = self._z(y, x, theta)
        return -np.log(s) - 2.0 * np.logaddexp(0.5 * z, -0.5 * z)

    def score(self, y, x, theta):
        z, s = self._z(y, x, theta)
        t = np.tanh(0.5 * z)
        return np.column_stack([t, x * t[:, None], z * t - 1.0]) / s


def test_raw_mle_of_a_gaussian_subclass_is_its_own_likelihood():
    # least squares is the MLE of GaussianLinearModel only; a subclass that
    # changes the law inherits the name but is fitted by mle_numeric
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(400, 2))
    data = Dataset(y=0.5 + x @ [1.0, -0.7] + rng.logistic(size=400), x=x)
    model = _LogisticLinear(k=2)
    part, cells = gessaman_partition(data.x, T=2)
    theta, _table, _reports = run_pipeline(model, data, part, cells, 4, "raw_mle", ("pearson",))
    assert np.abs(model.score(data.y, data.x, theta).mean(axis=0)).max() < 1e-5
    # the logistic scale is near its true 1; least squares reads the sd, pi / sqrt(3)
    assert abs(theta[-1] - 1.0) < 0.15 and abs(mle_gaussian_linear(data)[-1] - 1.81) < 0.2


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
        assert res.summary("pearson").variance is None
        assert calibrate_df(cfg)["pearson"]["se"] is None

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
    def test_known_theta_mean_tracks_policy_df(self):
        cfg = _known_cfg(replications=300, stats=("pearson", "lr"), master_seed=21)
        out = calibrate_df(cfg)
        for name in ("pearson", "lr"):
            row = out[name]
            assert list(row) == ["mean", "se", "df", "mean_reported_df", "replications"]
            assert row["df"] == 12
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
        assert grouped["pearson"]["df"] == 8
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
        assert config_from_dict(asdict(cfg)) == cfg

    def test_raw_mle_round_trip_without_theta(self):
        cfg = SimConfig(
            dgp=NULL_DGP,
            model="gaussian_linear",
            estimator="raw_mle",
            L=3,
            partition=PartitionRule(kind="grid", T=2),
            replications=10,
        )
        doc = asdict(cfg)
        assert doc["theta"] is None
        assert config_from_dict(doc) == cfg

    def test_problems_listed_by_field(self):
        doc = asdict(_known_cfg())
        doc["dgp"]["family"] = "weibull"
        doc["partition"]["kind"] = "voronoi"
        with pytest.raises(InvalidArgumentError) as exc:
            config_from_dict(doc)
        msg = str(exc.value)
        assert "dgp" in msg and "partition" in msg

    def test_unknown_and_missing_fields_named_section_by_section(self):
        doc = asdict(_known_cfg())
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
            "dgp": asdict(_known_cfg())["dgp"],
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
