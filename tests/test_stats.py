"""Table statistics, their algebraic identities, and p-value calibration."""

import math

import mpmath as mp
import numpy as np
import pytest

from condgof import (
    ContingencyTable,
    CovarianceConstructionError,
    Dataset,
    EmptyCellError,
    GaussianLinearModel,
    InvalidArgumentError,
    InvalidDfError,
    SingularInformationError,
    UGrid,
    WaldInputs,
    balanced_grid,
    chisq_sf,
    cross_classify,
    gessaman_partition,
    has_zero_cells,
    lm_stat,
    lr_stat,
    OptimizerConfig,
    mle_gaussian_linear,
    mle_numeric,
    neyman_stat,
    pearson_stat,
    rosenblatt,
    rtp_partition,
    run_test,
)
from condgof import TestReport as Report
from condgof.models import ExponentialRegressionModel
from condgof.stats import _wald_form, policy_df, wald_raw_mle

import wald_oracle


def _table(O):
    O = np.asarray(O, dtype=np.int64)
    return ContingencyTable(O=O, grid=balanced_grid(O.shape[0]))


def _random_table(rng, L, J, lo=3, hi=40):
    col = rng.integers(lo, hi, J)
    O = np.stack([rng.multinomial(c, np.full(L, 1.0 / L)) for c in col], axis=1)
    return _table(O)


TAB_2X2 = _table([[6, 4], [4, 6]])


class TestPointStatistics:
    def test_pearson_hand_value(self):
        # E = 5 everywhere, four deviations of 1: 4 / 5
        assert pearson_stat(TAB_2X2) == pytest.approx(0.8, abs=1e-15)

    def test_lr_hand_value(self):
        # high precision oracle: 2 sum O log(O/E)
        mp.mp.dps = 40
        oracle = 2 * (
            2 * 6 * mp.log(mp.mpf(6) / 5) + 2 * 4 * mp.log(mp.mpf(4) / 5)
        )
        assert float(oracle) == pytest.approx(0.8054205420275552, abs=1e-15)
        assert lr_stat(TAB_2X2) == pytest.approx(float(oracle), abs=1e-13)

    def test_neyman_hand_value(self):
        # 2/6 + 2/4 = 5/6
        assert neyman_stat(TAB_2X2) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_lr_zero_cells_contribute_nothing(self):
        t = _table([[5, 0], [5, 8]])
        O = t.O.astype(float)
        E = np.outer(t.widths, t.column_counts)
        manual = 2 * sum(
            O[i, j] * math.log(O[i, j] / E[i, j])
            for i in range(2)
            for j in range(2)
            if O[i, j] > 0
        )
        assert lr_stat(t) == pytest.approx(manual, rel=1e-14)
        assert has_zero_cells(t)
        rep = run_test("lr", t)
        assert rep.value == lr_stat(t)
        assert rep.warnings == ["zero observed cells contribute 0 to the likelihood ratio"]
        assert run_test("lr", TAB_2X2).warnings == []

    def test_neyman_needs_positive_counts(self):
        with pytest.raises(EmptyCellError):
            neyman_stat(_table([[5, 0], [5, 8]]))

    def test_empty_column_rejected(self):
        t = _table([[3, 0], [2, 0]])
        wald_null = lambda t: run_test("wald", t)  # noqa: E731
        for f in (pearson_stat, lr_stat, wald_null):
            with pytest.raises(EmptyCellError):
                f(t)


class TestIdentities:
    def test_pearson_equals_lm(self):
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(200):
            t = _random_table(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
            assert abs(pearson_stat(t) - lm_stat(t)) <= 1e-12

    def test_pearson_equals_wald_null(self):
        rng = np.random.Generator(np.random.Philox(202))
        for _ in range(200):
            t = _random_table(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
            x2 = pearson_stat(t)
            value, rank = wald_oracle.null_form(t)
            assert abs(x2 - value) <= 1e-8 * max(1.0, x2)
            assert rank == t.L * t.J - 1
            rep = run_test("wald", t)
            assert rep.value == x2 and rep.kind == "wald_null"

    def test_lr_second_order_match(self):
        # with all cells close to expected the two statistics agree to O(dev)
        rng = np.random.Generator(np.random.Philox(303))
        checked = 0
        for _ in range(300):
            t = _random_table(rng, 3, 4, lo=5000, hi=8000)
            E = np.outer(t.widths, t.column_counts)
            rel = np.abs(t.O - E) / E
            if rel.max() > 0.05:
                continue
            checked += 1
            x2 = pearson_stat(t)
            assert abs(lr_stat(t) - x2) <= 0.02 * x2 + 1e-9
        assert checked > 100

    def test_unadjusted_wald_matches_null_form(self):
        # without the score correction (C = 0) the raw-MLE form is Pearson
        rng = np.random.Generator(np.random.Philox(404))
        for _ in range(50):
            t = _random_table(rng, int(rng.integers(2, 6)), int(rng.integers(1, 7)))
            p = int(rng.integers(1, 5))
            B = rng.normal(size=(p, p))
            info = B @ B.T + np.eye(p)
            C = np.zeros((t.L * t.J, p))
            value, rank = _wald_form(t, C, info)
            null_value, _ = wald_oracle.null_form(t)
            assert abs(value - null_value) <= 1e-10 * max(1.0, value)
            assert rank == t.J * (t.L - 1)
            dense_value, dense_rank = wald_oracle.dense_form(t, C, info)
            assert abs(value - dense_value) <= 1e-10 * max(1.0, value)
            assert rank == dense_rank


class TestChisqSfReexport:
    def test_matches_backend_values(self):
        assert chisq_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-10)
        assert chisq_sf(5.0, 2) == pytest.approx(math.exp(-2.5), rel=1e-12)


class TestDfPolicy:
    def test_conventions(self):
        assert policy_df("known", "conditional", 4, 5, 4) == 15
        assert policy_df("raw_mle", "conditional", 4, 5, 4) == 11
        assert policy_df("min_chisq", "conditional", 4, 5, 4) == 11
        assert policy_df("known", "unconditional", 4, 5, 4) == 19
        assert policy_df("min_chisq", "unconditional", 4, 5, 4) == 15

    def test_negative_adjust_rejected(self):
        t = _table([[6, 4], [4, 6]])
        for p in (-1, 1.5, True, "2"):
            with pytest.raises(InvalidArgumentError):
                run_test("pearson", t, "min_chisq", p=p)


class TestRunTest:
    def _big_table(self, seed=55):
        rng = np.random.Generator(np.random.Philox(seed))
        return _random_table(rng, 4, 5, lo=30, hi=60)

    def test_known_theta_point_df(self):
        t = self._big_table()
        rep = run_test("pearson", t)
        assert rep.df == 15 and rep.df_interval is None
        assert rep.p_value == pytest.approx(chisq_sf(rep.value, 15), abs=1e-15)
        assert rep.estimator == "known" and rep.kind == "pearson"
        # a known theta spends none of the model's parameters
        assert run_test("pearson", t, "known", p=4).df == 15

    def test_raw_mle_bracket(self):
        t = self._big_table()
        rep = run_test("pearson", t, "raw_mle", p=4)
        assert rep.df is None
        assert rep.df_interval == (11, 15)
        p_lo, p_hi = rep.p_interval
        assert p_lo == pytest.approx(chisq_sf(rep.value, 11), abs=1e-15)
        assert p_hi == pytest.approx(chisq_sf(rep.value, 15), abs=1e-15)
        assert p_lo <= p_hi

    def test_min_chisq_point_df(self):
        t = self._big_table()
        rep = run_test("lr", t, "min_chisq", p=4)
        assert rep.df == 11 and rep.p_interval is None

    def test_interval_rejection_rule(self):
        r = Report(
            kind="pearson",
            value=20.0,
            estimator="raw_mle",
            df_interval=(11, 15),
            p_interval=(0.01, 0.07),
        )
        assert not r.rejects(0.05)
        r2 = Report(
            kind="pearson",
            value=30.0,
            estimator="raw_mle",
            df_interval=(11, 15),
            p_interval=(0.01, 0.04),
        )
        assert r2.rejects(0.05)
        r3 = Report(
            kind="pearson",
            value=5.0,
            estimator="known",
            df=3,
            p_value=0.03,
        )
        assert r3.rejects(0.05)

    def test_degenerate_single_bin(self):
        # L = 1 means every count sits in its column margin: statistic 0
        O = np.array([[7, 9, 4]])
        t = _table(O)
        rep = run_test("pearson", t)
        assert rep.value == pytest.approx(0.0, abs=1e-15)
        assert rep.p_value == 1.0
        assert any("degenerate" in w for w in rep.warnings)
        # an estimated theta does not take the reported df below 0
        for estimator in ("raw_mle", "min_chisq"):
            for stat in ("pearson", "lr", "lm", "neyman"):
                rep = run_test(stat, t, estimator, p=4)
                assert rep.df == 0 and rep.p_value == 1.0

    def test_bracket_floor_error(self):
        t = _table([[6, 4], [4, 6]])
        with pytest.raises(InvalidDfError):
            run_test("pearson", t, "raw_mle", p=2)

    def test_argument_validation(self):
        t = self._big_table()
        with pytest.raises(InvalidArgumentError):
            run_test("hotelling", t)
        with pytest.raises(InvalidArgumentError):
            run_test("wald_raw_mle", t, "raw_mle", p=4)
        with pytest.raises(InvalidArgumentError):
            run_test("pearson", t, "raw")
        with pytest.raises(InvalidArgumentError):
            run_test("pearson", t, df_convention="both")
        with pytest.raises(InvalidArgumentError):
            run_test("wald", t, "raw_mle", p=4)

    def test_raw_mle_other_kind_warns(self):
        t = self._big_table()
        rep = run_test("lm", t, "raw_mle", p=4)
        assert rep.df == 11
        assert any("bracket" in w for w in rep.warnings)


class _NoMoments(GaussianLinearModel):
    """Closed-form moment hooks disabled; forces the empirical route."""

    def expected_information(self, x, theta):
        return None

    def bin_score_means(self, x, thresholds, theta):
        return None


class TestWaldRawMle:
    def _fit(self, seed=42, n=800, scale=None):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.uniform(-1, 1, (n, 2))
        y = 0.5 + x @ [1.0, -0.7] + 1.2 * rng.standard_normal(n)
        if scale is not None:
            x = x * scale
        data = Dataset(y=y, x=x)
        model = GaussianLinearModel(k=2)
        theta = mle_gaussian_linear(data)
        grid = balanced_grid(4)
        part, _ = rtp_partition(x, 2, 2, seed=7)
        table = cross_classify(rosenblatt(model, theta, data), x, grid, part)
        return table, model, theta, data, grid, part

    def test_rank_is_structural(self):
        table, model, theta, data, grid, part = self._fit()
        value, rank = wald_raw_mle(table, model, theta, data, part.locate0(data.x))
        assert rank == part.J * (grid.L - 1)
        assert value > 0 and math.isfinite(value)

    def test_invariant_to_covariate_scaling(self):
        base, model, theta, data, grid, part = self._fit(seed=42)
        w1, _ = wald_raw_mle(base, model, theta, data, part.locate0(data.x))
        tab2, model2, theta2, data2, grid2, part2 = self._fit(
            seed=42, scale=np.array([10.0, 0.1])
        )
        np.testing.assert_array_equal(base.O, tab2.O)
        w2, _ = wald_raw_mle(tab2, model2, theta2, data2, part2.locate0(data2.x))
        assert w2 == pytest.approx(w1, rel=1e-8)

    def test_empirical_fallback(self):
        table, _model, theta, data, grid, part = self._fit()
        value, rank = wald_raw_mle(
            table, _NoMoments(k=2), theta, data, part.locate0(data.x)
        )
        closed, _ = wald_raw_mle(
            table, GaussianLinearModel(k=2), theta, data, part.locate0(data.x)
        )
        assert rank == part.J * (grid.L - 1)
        # noisier ingredients, same target
        assert value == pytest.approx(closed, rel=0.5)

    def test_empty_column_raises(self):
        _table_, model, theta, data, grid, part = self._fit()
        O = np.array(_table_.O, copy=True)
        O[:, 0] = 0
        bad = ContingencyTable(O=O, grid=grid)
        with pytest.raises(EmptyCellError):
            wald_raw_mle(bad, model, theta, data, part.locate0(data.x))

    def test_collinear_design_raises(self):
        rng = np.random.Generator(np.random.Philox(9))
        n = 200
        x0 = rng.uniform(-1, 1, n)
        x = np.column_stack([x0, x0])
        y = 0.5 + 0.2 * x0 + rng.standard_normal(n)
        data = Dataset(y=y, x=x)
        theta = np.array([0.5, 0.1, 0.1, 1.0])
        grid = balanced_grid(4)
        part, _ = rtp_partition(x, 2, 1, seed=5)
        table = cross_classify(
            rosenblatt(GaussianLinearModel(k=2), theta, data), x, grid, part
        )
        with pytest.raises(SingularInformationError):
            wald_raw_mle(
                table, GaussianLinearModel(k=2), theta, data, part.locate0(data.x)
            )
        with pytest.raises(SingularInformationError):
            wald_raw_mle(table, _NoMoments(k=2), theta, data, part.locate0(data.x))

    def test_run_test_wald_report(self):
        table, model, theta, data, grid, part = self._fit()
        rep = run_test(
            "wald",
            table,
            "raw_mle",
            p=4,
            wald_inputs=WaldInputs(
                model=model,
                theta_hat=theta,
                data=data,
                cells=part.locate0(data.x),
            ),
        )
        assert rep.kind == "wald_raw_mle" and rep.df == part.J * (grid.L - 1)
        assert rep.p_value == pytest.approx(chisq_sf(rep.value, rep.df), abs=1e-15)


class _NoMomentsExp(ExponentialRegressionModel):
    """Exponential family with the closed-form moment hooks disabled."""

    def expected_information(self, x, theta):
        return None

    def bin_score_means(self, x, thresholds, theta):
        return None


def _constructed(rng, p, rank_b):
    """Table and (C, info = C' G C + B B') with B of rank rank_b, G = diag(1/p0)."""
    L, J = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    t = _random_table(rng, L, J, lo=5, hi=60)
    C = rng.normal(size=(L, J, p)) * rng.choice([0.05, 1.0])
    C -= C.mean(axis=0)
    C = C.reshape(L * J, p)
    p0 = np.outer(t.widths, t.q_hat).ravel()
    Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    B = Q[:, :rank_b] * rng.uniform(0.5, 2.0, rank_b)
    return t, C, C.T @ (C / p0[:, None]) + B @ B.T


class TestWaldAgainstDenseOracle:
    """The p x p form against the dense LJ x LJ pseudoinverse it replaces."""

    @staticmethod
    def _agree(new, dense):
        assert new[1] == dense[1]
        assert abs(new[0] - dense[0]) <= 1e-9 * max(1.0, abs(dense[0]))

    def test_seeded_data_both_families_and_moment_paths(self):
        checked = raised = 0
        for seed in range(24):
            rng = np.random.Generator(np.random.Philox(600 + seed))
            n, k = int(rng.integers(60, 600)), int(rng.integers(1, 4))
            L = int(rng.integers(2, 7))
            x = rng.uniform(-1, 1, (n, k))
            if seed % 2 == 0:
                y = 0.5 + x @ rng.normal(size=k) + rng.standard_normal(n)
                models = (GaussianLinearModel(k=k), _NoMoments(k=k))
                data = Dataset(y=y, x=x)
                theta = mle_gaussian_linear(data)
            else:
                y = rng.exponential(np.exp(-0.2 - 0.5 * x @ rng.normal(size=k)))
                models = (ExponentialRegressionModel(k=k), _NoMomentsExp(k=k))
                data = Dataset(y=y, x=x)
                theta = mle_numeric(
                    models[0], data, np.zeros(k + 1), OptimizerConfig(tolerance=1e-6)
                )
            grid = balanced_grid(L)
            part, _ = rtp_partition(x, 2, int(rng.integers(1, 3)), seed=seed)
            cells = part.locate0(x)
            table = cross_classify(rosenblatt(models[0], theta, data), x, grid, part)
            for model in models:
                args = (table, model, theta, data, cells)
                try:
                    dense = wald_oracle.wald_raw_mle(table, model, theta, data, grid, cells)
                except CovarianceConstructionError:
                    with pytest.raises(CovarianceConstructionError):
                        wald_raw_mle(*args)
                    raised += 1
                    continue
                self._agree(wald_raw_mle(*args), dense)
                checked += 1
        assert checked >= 40 and raised >= 1

    def test_constructed_inputs_including_rank_deficient(self):
        rng = np.random.Generator(np.random.Philox(707))
        deficient = 0
        for _ in range(300):
            p = int(rng.integers(1, 6))
            rank_b = int(rng.integers(0, p + 1))
            t, C, info = _constructed(rng, p, rank_b)
            if np.linalg.eigvalsh(info)[0] <= 1e-6 or p - rank_b >= t.J * (t.L - 1):
                continue
            new = _wald_form(t, C, info)
            assert new[1] == t.J * (t.L - 1) - (p - rank_b)
            self._agree(new, wald_oracle.dense_form(t, C, info))
            deficient += rank_b < p
        assert deficient >= 50

    def test_zero_covariance_reports_rank_0(self):
        # p = J(L-1) and B = 0: C info^{-1} C' is all of S_base on its range
        rng = np.random.Generator(np.random.Philox(808))
        for _ in range(20):
            t = _random_table(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            p = t.J * (t.L - 1)
            C = rng.normal(size=(t.L, t.J, p))
            C -= C.mean(axis=0)
            C = C.reshape(t.L * t.J, p)
            p0 = np.outer(t.widths, t.q_hat).ravel()
            value, rank = _wald_form(t, C, C.T @ (C / p0[:, None]))
            assert rank == 0 and abs(value) <= 1e-12

    def test_negative_correction_raises_in_both(self):
        # info below C' G C in one direction: Sigma is not a covariance
        rng = np.random.Generator(np.random.Philox(909))
        checked = 0
        for _ in range(50):
            p = int(rng.integers(1, 5))
            t, C, info = _constructed(rng, p, p)
            C *= 20.0 / np.abs(C).max()
            cgc = C.T @ (C / np.outer(t.widths, t.q_hat).ravel()[:, None])
            u = np.linalg.qr(rng.normal(size=(p, 1)))[0]
            info = cgc + np.eye(p) - 1.5 * (u @ u.T)
            if np.linalg.eigvalsh(info)[0] <= 1e-6:
                continue
            for form in (_wald_form, wald_oracle.dense_form):
                with pytest.raises(CovarianceConstructionError):
                    form(t, C, info)
            checked += 1
        assert checked >= 30
