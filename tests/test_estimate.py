"""Estimators: closed form, Fisher scoring, and table-statistic minimization."""

import numpy as np
import pytest
from scipy.stats import norm

from condgof import (
    ConvergenceFailureError,
    Dataset,
    DegenerateFitError,
    EmptyCellError,
    ExponentialRegressionModel,
    GaussianLinearModel,
    InvalidArgumentError,
    InvalidParameterError,
    InvalidStartError,
    ModelEvaluationError,
    OptimizerConfig,
    SingularDesignError,
    backend,
    balanced_grid,
    Partition,
    gessaman_partition,
    law_grid_partition,
    lr_stat,
    min_chisq_estimate,
    mle_gaussian_linear,
    mle_numeric,
    pearson_stat,
    rosenblatt,
    rtp_partition,
)
from condgof.models import ConditionalModel, bin_pivots, log_likelihood
from condgof.mc import DgpSpec, _rep_streams, simulate_dataset
from condgof.stats import _grouped_terms, _score_moments
from condgof.tabulate import tabulate_cells


def cross_classify(v, x, grid, part):
    """The table of values v in [0, 1] binned on grid against part's cells, located by locate0."""
    return tabulate_cells(bin_pivots(v, grid.thresholds), part.locate0(x), grid, part.J)


def _gaussian_data(seed, n, beta=(2.0, 3.0), sigma=1.0):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(-1, 1, (n, len(beta) - 1))
    y = beta[0] + x @ np.asarray(beta[1:]) + sigma * rng.standard_normal(n)
    return Dataset(y=y, x=x)


class TestGaussianClosedForm:
    def test_recovers_truth(self):
        data = _gaussian_data(1, 10000)
        theta = mle_gaussian_linear(data)
        np.testing.assert_allclose(theta, [2.0, 3.0, 1.0], atol=0.05)

    def test_residuals_orthogonal_to_design(self):
        data = _gaussian_data(2, 500)
        theta = mle_gaussian_linear(data)
        design = np.hstack([np.ones((data.n, 1)), data.x])
        resid = data.y - design @ theta[:-1]
        assert np.abs(design.T @ resid).max() / data.n <= 1e-8

    def test_duplication_invariance(self):
        data = _gaussian_data(3, 400)
        doubled = Dataset(
            y=np.concatenate([data.y, data.y]),
            x=np.vstack([data.x, data.x]),
        )
        np.testing.assert_allclose(
            mle_gaussian_linear(doubled), mle_gaussian_linear(data), atol=1e-10
        )

    def test_likelihood_is_maximized(self):
        data = _gaussian_data(4, 300)
        model = GaussianLinearModel(k=data.k)
        at_mle = log_likelihood(model, mle_gaussian_linear(data), data)
        rng = np.random.Generator(np.random.Philox(44))
        theta = mle_gaussian_linear(data)
        for _ in range(25):
            bump = theta + rng.normal(0, 0.05, theta.shape)
            if bump[-1] <= 0:
                continue
            assert log_likelihood(model, bump, data) <= at_mle + 1e-9

    def test_exact_fit_degenerates(self):
        x = np.linspace(-1, 1, 30)
        y = 1.5 + 0.0 * x
        with pytest.raises(DegenerateFitError) as exc:
            mle_gaussian_linear(Dataset(y=y, x=x))
        np.testing.assert_allclose(exc.value.beta, [1.5, 0.0], atol=1e-12)

    def test_rank_deficient_design(self):
        rng = np.random.Generator(np.random.Philox(5))
        x0 = rng.uniform(-1, 1, 100)
        data = Dataset(y=rng.standard_normal(100), x=np.column_stack([x0, 2 * x0]))
        with pytest.raises(SingularDesignError):
            mle_gaussian_linear(data)

    @pytest.mark.parametrize("k", [1, 4, 40])
    def test_matches_lstsq_over_domain(self, k):
        # The stated domain: column scales 1e-3 to 1e3, covariate offsets up
        # to 1e3 standard deviations, standardized effects 0.5 to 2 in size.
        # The reference is lstsq on the design with unit-norm columns: plain
        # lstsq bounds its error by the largest coefficient, and here the
        # coefficients span six orders of magnitude.
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox([k, seed]))
            n = int(rng.integers(500, 3000))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, k)
            offset = rng.uniform(-1e3, 1e3, k) * (seed % 2)
            z = rng.standard_normal((n, k))
            effect = rng.uniform(0.5, 2.0, k + 1) * rng.choice([-1.0, 1.0], k + 1)
            y = effect[0] + z @ effect[1:] + rng.uniform(0.1, 1.0) * rng.standard_normal(n)
            design = np.column_stack([np.ones(n), (z + offset) * scale])
            norms = np.sqrt((design * design).sum(axis=0))
            beta = np.linalg.lstsq(design / norms, y, rcond=None)[0] / norms
            resid = y - design @ beta
            want = np.append(beta, np.sqrt(resid @ resid / n))
            got = mle_gaussian_linear(Dataset(y=y, x=design[:, 1:]))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=f"seed {seed}")

    @pytest.mark.parametrize("k", [2, 4, 40])
    def test_exactly_collinear_column_is_singular(self, k):
        rng = np.random.Generator(np.random.Philox(k))
        x = rng.uniform(-1.0, 1.0, (500, k)) * 10.0 ** rng.uniform(-3.0, 3.0, k) + 50.0
        x[:, -1] = x[:, 0] - 3.0 * x[:, k // 2] if k > 2 else 7.0 * x[:, 0]
        with pytest.raises(SingularDesignError):
            mle_gaussian_linear(Dataset(y=rng.standard_normal(500), x=x))

    @pytest.mark.parametrize("value", [0.0, 0.1, -3.7, 1e3, 1e-300])
    def test_constant_covariate_is_singular(self, value):
        # the column's mean rounds, so its centred values are tiny, not zero
        rng = np.random.Generator(np.random.Philox(6))
        for n, k in ((7, 1), (333, 3), (2000, 4)):
            x = rng.uniform(-1.0, 1.0, (n, k))
            x[:, k // 2] = value
            with pytest.raises(SingularDesignError, match="constant"):
                mle_gaussian_linear(Dataset(y=rng.standard_normal(n), x=x))

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_sum_of_squares_is_singular_without_warning(self, scale):
        # warnings are errors in this suite, so an overflow warning would fail the raises
        rng = np.random.Generator(np.random.Philox(8))
        x = rng.uniform(-1.0, 1.0, (500, 2)) * [1.0, scale]
        with pytest.raises(SingularDesignError, match="overflows"):
            mle_gaussian_linear(Dataset(y=rng.standard_normal(500), x=x))

    def test_too_few_rows(self):
        with pytest.raises(InvalidArgumentError):
            mle_gaussian_linear(Dataset(y=[1.0, 2.0], x=[[0.1], [0.2]]))


class TestMleNumeric:
    def test_matches_closed_form(self):
        data = _gaussian_data(6, 600)
        model = GaussianLinearModel(k=data.k)
        closed = mle_gaussian_linear(data)
        init = np.array([0.0, 0.0, 1.0])
        est = mle_numeric(model, data, init, OptimizerConfig(max_iterations=5000, tolerance=1e-7))
        np.testing.assert_allclose(est, closed, atol=1e-6)

    def test_exponential_recovery(self):
        rng = np.random.Generator(np.random.Philox(7))
        n = 5000
        x = rng.uniform(-1, 1, n)
        beta = np.array([0.5, -0.2])
        rate = np.exp(beta[0] + beta[1] * x)
        y = rng.exponential(1.0 / rate)
        data = Dataset(y=y, x=x)
        model = ExponentialRegressionModel(k=1)
        est = mle_numeric(model, data, np.zeros(2), OptimizerConfig(max_iterations=2000))
        np.testing.assert_allclose(est, beta, atol=0.1)

    def test_zero_budget_carries_init(self):
        data = _gaussian_data(8, 200)
        model = GaussianLinearModel(k=data.k)
        init = np.array([0.0, 0.0, 2.0])
        with pytest.raises(ConvergenceFailureError) as exc:
            mle_numeric(model, data, init, OptimizerConfig(max_iterations=0))
        np.testing.assert_allclose(exc.value.theta, init, atol=1e-15)

    def test_monotone_likelihood_path(self):
        # budget exhaustion still never returns a worse point than init
        data = _gaussian_data(9, 300)
        model = GaussianLinearModel(k=data.k)
        init = np.array([0.0, 0.0, 1.0])
        try:
            est = mle_numeric(model, data, init, OptimizerConfig(max_iterations=3))
        except ConvergenceFailureError as exc:
            est = exc.theta
        assert log_likelihood(model, est, data) >= log_likelihood(model, init, data)

    def test_invalid_start(self):
        model = ExponentialRegressionModel(k=1)
        data = Dataset(y=[1.0, 2.0, 0.5], x=[0.1, -0.2, 0.4])
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidStartError):
                mle_numeric(model, data, np.array([800.0, 0.0]))


class LocationModel(ConditionalModel):
    """Unit-variance Gaussian with one free location; covariates ignored."""

    name = "location"

    @property
    def param_dim(self):
        return 1

    def validate_theta(self, theta):
        th = np.asarray(theta, dtype=np.float64)
        if th.shape != (1,):
            raise InvalidParameterError("theta must have shape (1,)")
        if not np.isfinite(th).all():
            raise InvalidParameterError("theta must be finite")
        return th

    def cdf(self, y, x, theta):
        return backend.normal_cdf(np.asarray(y) - theta[0])

    def log_density(self, y, x, theta):
        z = np.asarray(y) - theta[0]
        return -0.5 * z * z - 0.9189385332046727

    def score(self, y, x, theta):
        return (np.asarray(y) - theta[0])[:, None]


class TestFisherScoring:
    def test_exponential_matches_bfgs_oracle(self):
        from scipy.optimize import minimize

        class CountingExponential(ExponentialRegressionModel):
            score_calls = 0

            def score(self, y, x, theta):
                CountingExponential.score_calls += 1
                return super().score(y, x, theta)

        rng = np.random.Generator(np.random.Philox(17))
        n = 4000
        x = rng.uniform(-1, 1, (n, 2))
        design = np.hstack([np.ones((n, 1)), x])
        y = rng.exponential(1.0 / np.exp(design @ np.array([0.3, -0.8, 0.5])))
        est = mle_numeric(CountingExponential(k=2), Dataset(y=y, x=x), np.zeros(3))
        assert CountingExponential.score_calls <= 10

        def neg_mean_ll(b):
            return -(design @ b - np.exp(design @ b) * y).mean()

        def neg_score(b):
            return -(design * (1.0 - np.exp(design @ b) * y)[:, None]).mean(axis=0)

        oracle = minimize(neg_mean_ll, np.zeros(3), jac=neg_score, method="BFGS",
                          options={"gtol": 1e-11}).x
        assert np.abs(neg_score(oracle)).max() <= 1e-10
        np.testing.assert_allclose(est, oracle, rtol=0, atol=1e-6)

    def test_bhhh_without_expected_information(self):
        # LocationModel has no expected information: the outer product of scores steers
        rng = np.random.Generator(np.random.Philox(18))
        y = 0.7 + rng.standard_normal(500)
        data = Dataset(y=y, x=rng.uniform(-1, 1, 500))
        model = LocationModel(k=1)
        assert model.expected_information(data.x, np.array([0.0])) is None
        est = mle_numeric(model, data, np.array([-3.0]))
        assert est[0] == pytest.approx(y.mean(), abs=1e-8)

    @pytest.mark.parametrize("sigma", [0.05, 20.0])
    def test_bhhh_with_log_scale(self, sigma):
        # the log-scale Jacobian carries sigma^2 into the outer product's scale entry
        data = _gaussian_data(19, 800, sigma=sigma)
        est = mle_numeric(_OuterProduct(k=data.k), data, np.array([0.0, 0.0, 1.0]),
                          OptimizerConfig(tolerance=1e-6))
        np.testing.assert_allclose(est, mle_gaussian_linear(data), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("sigma", [0.05, 20.0])
    def test_rise_below_rounding_is_converged(self, sigma):
        # at the default tolerance the last steps promise a rise under the
        # rounding of the average log likelihood, so no halving shows one
        data = _gaussian_data(19, 800, sigma=sigma)
        est = mle_numeric(_OuterProduct(k=data.k), data, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(est, mle_gaussian_linear(data), rtol=1e-7, atol=1e-9)

    def test_inconsistent_gradient_still_fails(self):
        # a score of the wrong sign promises a rise far above rounding
        class Backwards(LocationModel):
            def score(self, y, x, theta):
                return -super().score(y, x, theta)

        rng = np.random.Generator(np.random.Philox(22))
        data = Dataset(y=0.7 + rng.standard_normal(200), x=rng.uniform(-1, 1, 200))
        with pytest.raises(ConvergenceFailureError, match="no uphill step found"):
            mle_numeric(Backwards(k=1), data, np.array([-3.0]))

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
    def test_response_scale_far_from_start(self, scale):
        # y * c moves the intercept of the MLE by -log(c), the slopes not at all;
        # from zero the expected information misjudges the curvature by ~c
        rng = np.random.Generator(np.random.Philox(21))
        x = rng.uniform(-1, 1, (2000, 2))
        y = rng.exponential(1.0 / np.exp(0.2 + x @ np.array([0.5, -0.5])))
        model = ExponentialRegressionModel(k=2)
        unit = mle_numeric(model, Dataset(y=y, x=x), np.zeros(3))
        est = mle_numeric(model, Dataset(y=y * scale, x=x), np.zeros(3))
        np.testing.assert_allclose(est, unit - [np.log(scale), 0.0, 0.0], rtol=0, atol=1e-6)

    def test_overlong_step_is_halved(self):
        # an outlying response at a tiny covariate spread sends the first full
        # step's rate far past overflow; halving brings it back without warnings
        rng = np.random.Generator(np.random.Philox(20))
        y = rng.exponential(1.0, 20)
        y[0] = 1e6
        data = Dataset(y=y, x=rng.uniform(-1e-3, 1e-3, 20))
        model = ExponentialRegressionModel(k=1)
        est = mle_numeric(model, data, np.zeros(2), OptimizerConfig(tolerance=1e-6))
        assert np.abs(model.score(data.y, data.x, est).mean(axis=0)).max() <= 1e-6

    def test_last_budgeted_step_meeting_tolerance_is_returned(self):
        # with the exact information the first full step lands on the mean
        rng = np.random.Generator(np.random.Philox(23))
        data = Dataset(y=0.7 + rng.standard_normal(300), x=rng.uniform(-1, 1, 300))
        est = mle_numeric(ClosedFormLocation(k=1), data, np.array([-3.0]),
                          OptimizerConfig(max_iterations=1))
        assert est[0] == pytest.approx(data.y.mean(), abs=1e-12)

    def test_trial_point_refused_by_validate_theta_is_halved(self):
        # an information 10x too small sends the full step past the bound the
        # family allows; the refused trial scores -inf and the step halves
        refused = []

        class Bounded(ClosedFormLocation):
            def validate_theta(self, theta):
                th = super().validate_theta(theta)
                if abs(th[0]) > 10.0:
                    refused.append(th[0])
                    raise InvalidParameterError("location must lie in [-10, 10]")
                return th

            def log_density(self, y, x, theta):
                return super().log_density(y, x, self.validate_theta(theta))

            def expected_information(self, x, theta):
                return np.full((1, 1), 0.1)

        rng = np.random.Generator(np.random.Philox(24))
        data = Dataset(y=0.7 + rng.standard_normal(300), x=rng.uniform(-1, 1, 300))
        est = mle_numeric(Bounded(k=1), data, np.array([-3.0]))
        assert refused and est[0] == pytest.approx(data.y.mean(), abs=1e-8)

    @pytest.mark.parametrize("broken", ["score", "expected_information"])
    def test_non_finite_moment_is_model_evaluation_error(self, broken):
        class Broken(ClosedFormLocation):
            def score(self, y, x, theta):
                s = super().score(y, x, theta)
                return np.full_like(s, np.nan) if broken == "score" else s

            def expected_information(self, x, theta):
                return np.full((1, 1), np.nan if broken == "expected_information" else 1.0)

        rng = np.random.Generator(np.random.Philox(25))
        data = Dataset(y=0.7 + rng.standard_normal(100), x=rng.uniform(-1, 1, 100))
        what = "score" if broken == "score" else "information"
        with pytest.raises(ModelEvaluationError, match=f"^{what} produced non-finite values$"):
            mle_numeric(Broken(k=1), data, np.array([-3.0]))


class ClosedFormLocation(LocationModel):
    """LocationModel with the standardized pivot and closed-form Wald moments."""

    def pivot_map(self, y, x):
        return lambda th: np.asarray(y) - th[0]

    def pivot_edges(self, thresholds):
        return norm.ppf(thresholds)

    def expected_information(self, x, theta):
        return np.ones((1, 1))

    def bin_score_means(self, x, thresholds, theta):
        # int_a^b z phi(z) dz = phi(a) - phi(b)
        ph = norm.pdf(self.pivot_edges(thresholds))
        return (ph[:-1] - ph[1:])[:, None], np.ones((x.shape[0], 1))


class TestMinChisq:
    def test_never_worse_than_init(self):
        # Pearson is piecewise constant in theta, so a step can fit worse;
        # the start is kept then (LocationModel takes the empirical moments)
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(seed))
            n = 60
            x = rng.uniform(-1, 1, n)
            y = 0.3 + rng.standard_normal(n)
            data = Dataset(y=y, x=x)
            m = LocationModel(k=1)
            part, _ = gessaman_partition(x, 2)
            grid = balanced_grid(4)

            def obj(thv):
                v = rosenblatt(m, np.array([thv]), data)
                return pearson_stat(cross_classify(v, x, grid, part))

            init = np.array([float(np.mean(y))])
            est = min_chisq_estimate(
                m, data, grid, part, init, OptimizerConfig(restarts=2, seed=seed)
            )
            assert obj(est[0]) <= obj(init[0]) + 1e-12

    def test_step_is_the_hand_computed_one(self):
        # one parameter: the step is sum(c d / p0) / sum(c^2 / p0) over the
        # L x J cells, c_lj = (phi(a_l) - phi(b_l)) N_j / n the score means
        taken = 0
        model = ClosedFormLocation(k=1)
        grid = balanced_grid(4)
        edges = norm.ppf(grid.thresholds)
        g = norm.pdf(edges[:-1]) - norm.pdf(edges[1:])
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(seed))
            n = 400
            x = rng.uniform(-1, 1, n)
            data = Dataset(y=0.3 + rng.standard_normal(n), x=x)
            part, cells = gessaman_partition(x, 3)
            q = np.bincount(cells, minlength=part.J) / n
            p0 = np.outer(grid.widths, q)
            c = np.outer(g, q)

            def d_and_pearson(th):
                z = data.y - th
                inside = (edges[:-1, None] < z) & (z <= edges[1:, None])  # L x n
                O = np.stack([np.bincount(cells[row], minlength=part.J) for row in inside])
                d = O / n - p0
                return d, n * float((d * d / p0).sum())

            init = np.array([0.3 + rng.uniform(-0.3, 0.3)])
            d, before = d_and_pearson(init[0])
            step = (c * d / p0).sum() / (c * c / p0).sum()
            after = d_and_pearson(init[0] + step)[1]
            est = min_chisq_estimate(model, data, grid, part, init)
            if after < before:
                taken += 1
                np.testing.assert_allclose(est, init + step, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(est, init)
        assert taken >= 5

    def test_one_response_bin_returns_init(self):
        # at L = 1 the bins see no direction, and the minimum-norm step is zero
        data = _gaussian_data(21, 300)
        part, _ = gessaman_partition(data.x, 2)
        init = mle_gaussian_linear(data) + np.array([0.2, -0.1, 0.3])
        est = min_chisq_estimate(GaussianLinearModel(k=1), data, balanced_grid(1), part, init)
        assert np.array_equal(est, init)

    def test_step_refused_by_validate_theta_returns_init(self):
        # a start at sigma = 1.1e-12 on residuals of scale 1e-14 puts every
        # row in the middle bins; the step takes sigma below 0, validate_theta
        # refuses it, and the pivot never sees it
        refused, pivoted = [], []

        class Recording(GaussianLinearModel):
            def validate_theta(self, theta):
                try:
                    return super().validate_theta(theta)
                except InvalidParameterError:
                    refused.append(theta[-1])
                    raise

            def pivot_map(self, y, x):
                inner = super().pivot_map(y, x)
                return lambda th: pivoted.append(th[-1]) or inner(th)

        rng = np.random.Generator(np.random.Philox(5))
        x = rng.uniform(-1, 1, (200, 1))
        data = Dataset(y=0.3 + x[:, 0] + 1e-14 * rng.standard_normal(200), x=x)
        init = np.array([0.3, 1.0, 1.1e-12])
        est = min_chisq_estimate(
            Recording(k=1), data, balanced_grid(4), gessaman_partition(x, 2)[0], init
        )
        assert np.array_equal(est, init)
        assert len(refused) == 1 and refused[0] < 1e-12
        assert pivoted == [1.1e-12]

    def test_nan_pivot_at_start_is_invalid_start(self):
        class NanPivot(ClosedFormLocation):
            def pivot_map(self, y, x):
                return lambda th: np.full(np.shape(y), np.nan)

        rng = np.random.Generator(np.random.Philox(22))
        x = rng.uniform(-1, 1, 80)
        data = Dataset(y=rng.standard_normal(80), x=x)
        with pytest.raises(InvalidStartError, match="^objective at init is not finite$"):
            min_chisq_estimate(
                NanPivot(k=1), data, balanced_grid(4), gessaman_partition(x, 2)[0],
                np.array([0.0]),
            )

    def test_tie_up_to_rounding_keeps_init(self):
        # replication 83 of a gessaman T = 2, L = 4 design at master seed 1:
        # every N_j is 125, so Pearson = (4/125) sum O^2 - 500 and the step's
        # table ties the start's exactly, with another LR
        dgp = DgpSpec("gaussian_linear", (0.5, 1.0, -0.7, 1.0), "uniform", 500, 2)
        data = simulate_dataset(dgp, _rep_streams(1, 83)[0])
        model = GaussianLinearModel(k=2)
        grid = balanced_grid(4)
        part, cells = gessaman_partition(data.x, 2)
        init = mle_gaussian_linear(data)

        def table_at(th):
            return cross_classify(rosenblatt(model, th, data), data.x, grid, part)

        C, _ = _score_moments(model, init, data, grid, cells, part.J)
        _, d, A, CtA = _grouped_terms(table_at(init), C)
        cand = init + np.linalg.lstsq(CtA, A.T @ d, rcond=None)[0]
        assert pearson_stat(table_at(cand)) == pytest.approx(pearson_stat(table_at(init)), abs=1e-9)
        assert lr_stat(table_at(cand)) != pytest.approx(lr_stat(table_at(init)), abs=1e-6)
        assert np.array_equal(min_chisq_estimate(model, data, grid, part, init), init)

    def test_full_model_does_not_worsen_closed_form_start(self):
        data = _gaussian_data(11, 400)
        model = GaussianLinearModel(k=data.k)
        theta0 = mle_gaussian_linear(data)
        grid = balanced_grid(4)
        part, _ = gessaman_partition(data.x, 2)

        def obj(th):
            v = rosenblatt(model, th, data)
            return pearson_stat(cross_classify(v, data.x, grid, part))

        est = min_chisq_estimate(
            model, data, grid, part, theta0, OptimizerConfig(restarts=1, seed=0)
        )
        assert obj(est) <= obj(theta0) + 1e-12
        assert est[-1] > 0

    def test_invalid_start(self):
        # overflowed rate with a zero response makes the transform NaN
        rng = np.random.Generator(np.random.Philox(12))
        y = rng.exponential(1.0, 100)
        y[0] = 0.0
        x = rng.uniform(-1, 1, 100)
        data = Dataset(y=y, x=x)
        model = ExponentialRegressionModel(k=1)
        grid = balanced_grid(4)
        part, _ = gessaman_partition(x, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidStartError):
                min_chisq_estimate(
                    model, data, grid, part, np.array([800.0, 0.0]), OptimizerConfig()
                )

    def test_empty_covariate_cell_is_empty_cell_error(self):
        # the table's own rule, with the message the raw-MLE tests give
        data = _gaussian_data(15, 200)
        part = Partition(
            np.array([[-np.inf], [5.0]]), np.array([[5.0], [np.inf]]), origin="fixed"
        )
        with pytest.raises(EmptyCellError, match="^covariate cell 2 has zero observations$"):
            min_chisq_estimate(
                GaussianLinearModel(k=1), data, balanced_grid(4), part,
                mle_gaussian_linear(data), OptimizerConfig(restarts=0),
            )

    def test_model_programming_error_propagates(self):
        # only the package's own errors read as an infinite objective
        class BrokenPivot(LocationModel):
            def pivot_map(self, y, x):
                def pivot(theta):
                    raise TypeError("bug in the family")

                return pivot

        rng = np.random.Generator(np.random.Philox(16))
        x = rng.uniform(-1, 1, 80)
        data = Dataset(y=rng.standard_normal(80), x=x)
        with pytest.raises(TypeError, match="bug in the family"):
            min_chisq_estimate(
                BrokenPivot(k=1), data, balanced_grid(4), gessaman_partition(x, 2)[0],
                np.array([0.0]), OptimizerConfig(restarts=0),
            )

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(max_iterations=-1)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(restarts=-2)
        bad = [
            {"seed": -1},
            {"seed": 1.5},
            {"restarts": 1.5},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
        ]
        for kwargs in bad:
            with pytest.raises(InvalidArgumentError):
                OptimizerConfig(**kwargs)
        cfg = OptimizerConfig(max_iterations=np.int64(20), seed=2**64 - 1)
        assert type(cfg.max_iterations) is int and cfg.seed == 2**64 - 1

    def test_covariate_count_checked_before_the_step(self):
        data = _gaussian_data(17, 100, beta=(1.0, 2.0, 3.0))
        part, _ = gessaman_partition(data.x, 2)
        with pytest.raises(InvalidArgumentError, match="model expects k=1 covariates, data has"):
            min_chisq_estimate(
                GaussianLinearModel(k=1), data, balanced_grid(4), part,
                np.array([0.0, 1.0, 1.0]), OptimizerConfig(restarts=0),
            )

    @pytest.mark.parametrize("kind", ["rtp", "gessaman", "grid"])
    def test_given_cells_equal_located_ones(self, kind):
        # run_pipeline passes the build's cells; the step must not depend on
        # whether it was handed them or located them itself
        dgp = DgpSpec("gaussian_linear", (0.5, 1.0, -0.7, 1.0), "uniform", 300, 2)
        model = GaussianLinearModel(k=2)
        grid = balanced_grid(4)
        taken = 0
        for seed in range(6):
            data = simulate_dataset(dgp, _rep_streams(seed, 0)[0])
            if kind == "rtp":
                part = rtp_partition(data.x, 2, 2, seed)[0]
            elif kind == "gessaman":
                part = gessaman_partition(data.x, 2)[0]
            else:
                part = law_grid_partition("uniform", 2, 3)
            init = mle_gaussian_linear(data)
            located = min_chisq_estimate(model, data, grid, part, init)
            given = min_chisq_estimate(model, data, grid, part, init, cells=part.locate0(data.x))
            assert np.array_equal(given, located)
            taken += not np.array_equal(located, init)
        assert taken >= 2

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda c, J: c[:-1], "1-d integer array of 300 values"),
            (lambda c, J: np.where(np.arange(c.size) == 7, J, c), r"lie in \[0, 4\)"),
            (lambda c, J: c.astype(np.float64), "1-d integer array of 300 values"),
        ],
        ids=["short", "cell_J", "float"],
    )
    def test_bad_cells_are_invalid_argument(self, bad, message):
        data = _gaussian_data(18, 300, beta=(1.0, 2.0, 3.0))
        part, cells = gessaman_partition(data.x, 2)
        with pytest.raises(InvalidArgumentError, match=message):
            min_chisq_estimate(
                GaussianLinearModel(k=2), data, balanced_grid(4), part,
                mle_gaussian_linear(data), cells=bad(cells, part.J),
            )


class _OuterProduct(GaussianLinearModel):
    """Gaussian family without closed-form information: the empirical route."""

    def expected_information(self, x, theta):
        return None


def empirical_information(data, theta):
    """The information of the empirical Wald moments, all rows in one cell."""
    model = _OuterProduct(k=data.k)
    cells = np.zeros(data.n, dtype=np.int64)
    return _score_moments(model, model.validate_theta(theta), data, balanced_grid(2), cells, 1)[1]


class TestFisherInformation:
    def test_symmetric_exactly(self):
        data = _gaussian_data(13, 150)
        info = empirical_information(data, mle_gaussian_linear(data))
        np.testing.assert_array_equal(info, info.T)

    def test_standard_normal_values(self):
        rng = np.random.Generator(np.random.Philox(14))
        n = 100000
        x = rng.uniform(-1, 1, n)
        y = rng.standard_normal(n)
        data = Dataset(y=y, x=x)
        info = empirical_information(data, np.array([0.0, 0.0, 1.0]))
        # intercept block 1/sigma^2 = 1, slope block E x^2 = 1/3, scale block 2
        assert info[0, 0] == pytest.approx(1.0, rel=0.05)
        assert info[1, 1] == pytest.approx(1.0 / 3.0, rel=0.05)
        assert info[2, 2] == pytest.approx(2.0, rel=0.05)

    def test_single_row_rank(self):
        data = Dataset(y=[0.7], x=[[0.3]])
        info = empirical_information(data, np.array([0.0, 0.0, 1.0]))
        assert np.linalg.matrix_rank(info) <= 1
