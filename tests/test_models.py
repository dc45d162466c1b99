"""Model families: transform correctness, scores, and closed-form moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from condgof import (
    ConditionalModel,
    Dataset,
    ExponentialRegressionModel,
    GaussianLinearModel,
    backend,
    balanced_grid,
    models,
    resolve_model,
    rosenblatt,
)
from condgof.errors import (
    InvalidArgumentError,
    InvalidParameterError,
    ModelEvaluationError,
)
from condgof.mc import ks_uniform_distance
from condgof.models import _design, bin_pivots, log_likelihood, response_bins


class TestDataset:
    def test_basic_shape(self):
        d = Dataset(y=[1.0, 2.0], x=[[0.0], [1.0]])
        assert d.n == 2 and d.k == 1

    def test_promotes_1d_x(self):
        d = Dataset(y=[1.0, 2.0, 3.0], x=[0.0, 1.0, 2.0])
        assert d.x.shape == (3, 1)

    def test_immutable_copies(self):
        y = np.array([1.0, 2.0])
        x = np.array([[0.0], [1.0]])
        d = Dataset(y=y, x=x)
        y[0] = 99.0
        assert d.y[0] == 1.0
        with pytest.raises(ValueError):
            d.y[0] = 5.0

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(y=[1.0, np.nan], x=[[0.0], [1.0]])
        with pytest.raises(InvalidArgumentError):
            Dataset(y=[1.0], x=[[0.0], [1.0]])
        with pytest.raises(InvalidArgumentError):
            Dataset(y=[], x=np.empty((0, 1)))
        for y, x, message in (
            ([[1.0], [2.0]], [[0.0], [1.0]], "y must be 1-d"),
            ([1.0, 2.0], np.empty((2, 0)), "x must have at least one column"),
            ([1.0, 2.0], [[0.0], [np.inf]], "x contains non-finite"),
        ):
            with pytest.raises(InvalidArgumentError, match=message):
                Dataset(y=y, x=x)
        # ragged, non-numeric, complex, text and object arrays are refused as the package's error
        for bad in (
            [[0.0], [0.0, 1.0]], [["a"], [1.0]], [[{}], [1.0]], np.array([[1 + 2j], [3j]]),
            [["0.5"], ["1e3"]], [[b"0.5"], [b"1e3"]], np.array([[0.5], [1e3]], dtype=object),
        ):
            with pytest.raises(InvalidArgumentError, match="x must be a rectangular array"):
                Dataset(y=[1.0, 2.0], x=bad)
        for bad in (
            [1.0, [2.0, 3.0]], ["a", 1.0], [{}, 1.0], np.array([1.0, 2.0 + 0j]),
            ["1.5", "2"], [b"1.5", b"2"], np.array([1.5, 2.0], dtype=object),
        ):
            with pytest.raises(InvalidArgumentError, match="y must be a rectangular array"):
                Dataset(y=bad, x=[[0.0], [1.0]])


class TestGaussianLinear:
    def test_rosenblatt_center_point(self):
        # y equal to the conditional mean maps to exactly one half
        model = GaussianLinearModel(k=1)
        data = Dataset(y=[2.0], x=[[2.0]])
        v = rosenblatt(model, (0.0, 1.0, 1.0), data)
        assert v[0] == pytest.approx(0.5, abs=1e-15)

    def test_rosenblatt_one_sigma(self):
        model = GaussianLinearModel(k=1)
        data = Dataset(y=[3.0], x=[[2.0]])
        v = rosenblatt(model, (0.0, 1.0, 1.0), data)
        assert v[0] == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_theta_validation(self):
        model = GaussianLinearModel(k=2)
        assert model.param_dim == 4
        with pytest.raises(InvalidParameterError):
            model.validate_theta((0.0, 1.0, 1.0))  # wrong length
        with pytest.raises(InvalidParameterError):
            model.validate_theta((0.0, 1.0, 1.0, 0.0))  # sigma too small
        with pytest.raises(InvalidParameterError):
            model.validate_theta((0.0, np.inf, 1.0, 1.0))

    def test_score_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.uniform(-1, 1, (40, 2))
        y = rng.normal(0.0, 1.5, 40)
        data = Dataset(y=y, x=x)
        model = GaussianLinearModel(k=2)
        theta = np.array([0.3, -0.7, 1.1, 0.9])
        s = model.score(y, x, theta)
        h = 1e-6
        for m in range(4):
            tp = theta.copy(); tp[m] += h
            tm = theta.copy(); tm[m] -= h
            num = (model.log_density(y, x, tp) - model.log_density(y, x, tm)) / (2 * h)
            assert np.max(np.abs(s[:, m] - num)) < 1e-5 * (1 + np.max(np.abs(num)))

    def test_uniformity_under_truth(self):
        rng = np.random.Generator(np.random.Philox(17))
        n = 10_000
        x = rng.uniform(-1, 1, (n, 2))
        theta = (0.5, 1.0, -0.5, 1.0)
        y = 0.5 + x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        v = rosenblatt(GaussianLinearModel(k=2), theta, Dataset(y=y, x=x))
        assert ks_uniform_distance(v) < 1.63 / math.sqrt(n)

    def test_expected_information_matches_opg(self):
        rng = np.random.Generator(np.random.Philox(23))
        n = 200_000
        x = rng.uniform(-1, 1, (n, 1))
        theta = np.array([0.2, 0.8, 1.3])
        y = 0.2 + 0.8 * x[:, 0] + 1.3 * rng.standard_normal(n)
        model = GaussianLinearModel(k=1)
        s = model.score(y, x, theta)
        opg = s.T @ s / n
        exp_info = model.expected_information(x, theta)
        assert np.max(np.abs(opg - exp_info)) < 0.05

    def test_bin_score_means_against_quadrature(self):
        model = GaussianLinearModel(k=1)
        theta = np.array([0.4, -0.6, 1.7])
        x = np.array([[0.3], [-0.9]])
        grid = balanced_grid(4)
        G, h = model.bin_score_means(x, grid.thresholds, theta)
        assert G.shape == (4, 3) and h.shape == (2, 3)
        sigma = theta[-1]
        from condgof.backend import std_normal_quantile

        edges = [-np.inf] + [std_normal_quantile(t) for t in grid.thresholds[1:-1]] + [np.inf]
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        for i, xi in enumerate(x[:, 0]):
            design = (1.0, xi)
            for l in range(4):
                a, b = edges[l], edges[l + 1]
                loc, _ = integrate.quad(lambda z: (z / sigma) * phi(z), a, b)
                sca, _ = integrate.quad(lambda z: ((z * z - 1) / sigma) * phi(z), a, b)
                for m in range(2):
                    assert G[l, m] * h[i, m] == pytest.approx(design[m] * loc, abs=1e-9)
                assert G[l, 2] * h[i, 2] == pytest.approx(sca, abs=1e-9)

    def test_bin_score_means_telescope_to_zero(self):
        model = GaussianLinearModel(k=2)
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.uniform(-2, 2, (25, 2))
        G, h = model.bin_score_means(x, balanced_grid(5).thresholds, (0.1, 0.2, -0.3, 1.5))
        ebs = G[None, :, :] * h[:, None, :]
        assert np.max(np.abs(ebs.sum(axis=1))) < 1e-15


class TestExponentialRegression:
    def test_cdf_closed_form(self):
        model = ExponentialRegressionModel(k=1)
        data = Dataset(y=[1.0], x=[[0.0]])
        # rate = exp(0) = 1 at beta = (0, anything applied to x = 0)
        v = rosenblatt(model, (0.0, 5.0), data)
        assert v[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_negative_y_is_zero_mass(self):
        model = ExponentialRegressionModel(k=1)
        assert model.cdf(np.array([-0.5]), np.array([[0.3]]), (0.1, 0.2))[0] == 0.0
        assert model.log_density(np.array([-0.5]), np.array([[0.3]]), (0.1, 0.2))[0] == -np.inf

    def test_score_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(4))
        x = rng.uniform(-1, 1, (30, 2))
        y = rng.exponential(1.0, 30)
        model = ExponentialRegressionModel(k=2)
        theta = np.array([0.2, -0.4, 0.6])
        s = model.score(y, x, theta)
        h = 1e-6
        for m in range(3):
            tp = theta.copy(); tp[m] += h
            tm = theta.copy(); tm[m] -= h
            num = (model.log_density(y, x, tp) - model.log_density(y, x, tm)) / (2 * h)
            assert np.max(np.abs(s[:, m] - num)) < 1e-5 * (1 + np.max(np.abs(num)))

    def test_bin_score_means_against_quadrature(self):
        model = ExponentialRegressionModel(k=1)
        theta = np.array([0.3, -0.5])
        x = np.array([[0.7]])
        grid = balanced_grid(3)
        G, h = model.bin_score_means(x, grid.thresholds, theta)
        assert G.shape == (3, 2) and h.shape == (1, 2)
        # with u ~ Exp(1): bin l is u in (-log(1-t_{l-1}), -log(1-t_l)]
        edges = [0.0, -math.log(1 - 1 / 3), -math.log(1 - 2 / 3), np.inf]
        for l in range(3):
            val, _ = integrate.quad(
                lambda u: (1.0 - u) * math.exp(-u), edges[l], edges[l + 1]
            )
            assert G[l, 0] * h[0, 0] == pytest.approx(val, abs=1e-9)
            assert G[l, 1] * h[0, 1] == pytest.approx(0.7 * val, abs=1e-9)

    def test_expected_information_matches_opg(self):
        rng = np.random.Generator(np.random.Philox(29))
        n = 200_000
        x = rng.uniform(-1, 1, (n, 1))
        theta = np.array([0.5, -0.2])
        rate = np.exp(0.5 - 0.2 * x[:, 0])
        y = rng.exponential(1.0, n) / rate
        model = ExponentialRegressionModel(k=1)
        s = model.score(y, x, theta)
        assert np.max(np.abs(s.T @ s / n - model.expected_information(x, theta))) < 0.05

    def test_uniformity_under_truth(self):
        rng = np.random.Generator(np.random.Philox(31))
        n = 10_000
        x = rng.uniform(-1, 1, (n, 1))
        rate = np.exp(0.3 + 0.4 * x[:, 0])
        y = rng.exponential(1.0, n) / rate
        v = rosenblatt(ExponentialRegressionModel(k=1), (0.3, 0.4), Dataset(y=y, x=x))
        assert ks_uniform_distance(v) < 1.63 / math.sqrt(n)


class _CdfOnly(GaussianLinearModel):
    """The Gaussian family on the base-class pivot contract: pivot_map = cdf."""

    pivot_map = ConditionalModel.pivot_map
    pivot_edges = ConditionalModel.pivot_edges


def _old_bins(grid, v):
    """The CDF-space rule: bin of v in (t_{l-1}, t_l], v = 0 in the first bin."""
    return np.maximum(np.searchsorted(grid.thresholds, v, side="left"), 1) - 1


class TestResponseBins:
    @pytest.mark.parametrize("L", [3, 4, 7, 10])
    def test_pivot_bins_equal_cdf_bins(self, L):
        grid = balanced_grid(L)
        rng = np.random.Generator(np.random.Philox(100 + L))
        for rep in range(4):
            n, k = 20_000, int(rng.integers(1, 4))
            x = rng.uniform(-1, 1, (n, k))
            beta = rng.normal(0.0, 1.0, k + 1)
            eta = beta[0] + x @ beta[1:]
            sigma = float(rng.uniform(0.3, 3.0))
            cases = (
                (GaussianLinearModel(k), np.append(beta, sigma), eta + sigma * rng.standard_normal(n)),
                (_CdfOnly(k), np.append(beta, sigma), eta + sigma * rng.standard_normal(n)),
                (ExponentialRegressionModel(k), beta, rng.exponential(1.0, n) / np.exp(eta)),
            )
            for model, theta, y in cases:
                # evaluate at a nearby parameter so the bins are uneven
                theta = theta + rng.normal(0.0, 0.05, theta.shape)
                data = Dataset(y=y, x=x)
                bins = response_bins(model, theta, data, model.pivot_edges(grid.thresholds))
                np.testing.assert_array_equal(bins, _old_bins(grid, rosenblatt(model, theta, data)))
                assert bins.min() >= 0 and bins.max() <= L - 1

    def test_nan_pivot_raises(self):
        # an overflowed rate times a zero response is NaN
        model = ExponentialRegressionModel(k=1)
        data = Dataset(y=[0.0, 1.0], x=[[0.0], [0.0]])
        edges = model.pivot_edges(balanced_grid(4).thresholds)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ModelEvaluationError):
                response_bins(model, (800.0, 0.0), data, edges)
            with pytest.raises(ModelEvaluationError, match="model cdf produced non-finite"):
                rosenblatt(model, (800.0, 0.0), data)

    def test_overflowed_rate_is_silent_and_bins_last(self):
        model = ExponentialRegressionModel(k=1)
        data = Dataset(y=[0.5, 2.0], x=[[0.0], [1.0]])
        grid = balanced_grid(4)
        with np.errstate(all="raise"):
            bins = response_bins(model, (1e5, 0.0), data, model.pivot_edges(grid.thresholds))
            v = model.cdf(data.y, data.x, (1e5, 0.0))
        np.testing.assert_array_equal(bins, [3, 3])
        np.testing.assert_array_equal(v, [1.0, 1.0])


@st.composite
def _edges_and_pivots(draw):
    """Bin edges -inf < e_1 < ... < e_{L-1} < inf, L in 1..64, and pivots that hit them."""
    L = draw(st.integers(min_value=1, max_value=64))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    inner = sorted(draw(st.lists(finite, min_size=L - 1, max_size=L - 1, unique=True)))
    specials = inner + [0.0, -0.0, np.inf, -np.inf]
    u = draw(st.lists(st.one_of(st.sampled_from(specials), st.floats(allow_nan=False)), max_size=40))
    return np.array([-np.inf] + inner + [np.inf]), np.array(u, dtype=np.float64)


class TestBinPivots:
    @settings(max_examples=200, deadline=None)
    @given(_edges_and_pivots())
    def test_equals_binary_search(self, case):
        # counting the inner edges below u is the left-sided binary search,
        # ties (u equal to an edge, 0.0 against -0.0) and infinities included
        edges, u = case
        got = bin_pivots(u, edges)
        want = np.searchsorted(edges[1:-1], u, side="left")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("L", [1, 4, 64])
    def test_nan_raises(self, L):
        edges = np.array([-np.inf] + list(np.linspace(-1.0, 1.0, L - 1)) + [np.inf])
        with pytest.raises(ModelEvaluationError, match="NaN"):
            bin_pivots([0.5, np.nan, -0.5], edges)


class _LocationCdf(ConditionalModel):
    """A custom family with only a CDF: pivot_map falls back to it."""

    param_dim = 1
    validate_theta = ConditionalModel._check_theta_base

    def cdf(self, y, x, theta):
        return backend.normal_cdf(y - theta[0])

    def log_density(self, y, x, theta):
        raise NotImplementedError

    def score(self, y, x, theta):
        raise NotImplementedError


class TestPivotMap:
    def test_design_is_ones_then_x(self):
        x = np.random.Generator(np.random.Philox(1)).uniform(-1, 1, (50, 3))
        d = _design(x)
        assert d.flags.c_contiguous
        assert d.tobytes() == np.hstack([np.ones((50, 1)), x]).tobytes()

    def test_equals_pivot_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(2))
        for k in (1, 2, 5):
            x = rng.uniform(-1, 1, (300, k))
            d = _design(x)
            beta = rng.normal(0.0, 1.0, k + 1)
            cases = [
                (GaussianLinearModel(k), np.append(beta, 0.7), rng.standard_normal(300)),
                (ExponentialRegressionModel(k), beta, rng.exponential(1.0, 300)),
                # an overflowed rate: inf, and NaN at a zero response
                (ExponentialRegressionModel(k), np.append(800.0, beta[1:]),
                 np.append(0.0, rng.exponential(1.0, 299))),
            ]
            for model, theta, y in cases:
                bound = model.pivot_map(y, x)
                th = model.validate_theta(theta)
                with np.errstate(over="ignore", invalid="ignore"):
                    if model.name == "gaussian_linear":
                        want = (y - d @ th[:-1]) / th[-1]
                    else:
                        want = np.exp(d @ th) * y
                    assert bound(th).tobytes() == want.tobytes()
                    # the bound map holds no state between calls
                    assert bound(th).tobytes() == want.tobytes()

    def test_custom_families_default_to_the_cdf(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.uniform(-1, 1, (100, 1))
        y = rng.standard_normal(100)
        theta = np.array([0.2, 0.5, 1.3])
        cdf_only = _CdfOnly(1).pivot_map(y, x)(theta)
        np.testing.assert_array_equal(cdf_only, _CdfOnly(1).cdf(y, x, theta))
        location = _LocationCdf(1).pivot_map(y, x)(np.array([0.3]))
        np.testing.assert_array_equal(location, backend.normal_cdf(y - 0.3))


def _written(family, method, y, x, th):
    """The built-in methods as formulas, each op in the order the family runs it."""
    d = _design(x)
    if family == "gaussian_linear":
        sigma = th[-1]
        z = (y - d @ th[:-1]) / sigma
        return {
            "cdf": lambda: backend.normal_cdf(z),
            "log_density": lambda: -0.5 * 1.8378770664093453 - np.log(sigma) - 0.5 * z * z,
            "score": lambda: np.column_stack([d * (z / sigma)[:, None], (z * z - 1.0) / sigma]),
        }[method]()
    eta = d @ th
    u = np.exp(eta) * y
    return {
        "cdf": lambda: np.where(y < 0.0, 0.0, -np.expm1(-u)),
        "log_density": lambda: np.where(y < 0.0, -np.inf, eta - np.exp(eta) * y),
        "score": lambda: d * np.where(y < 0.0, 0.0, 1.0 - u)[:, None],
    }[method]()


class TestOneDesignPerCall:
    @pytest.mark.parametrize("method", ["cdf", "log_density", "score"])
    @pytest.mark.parametrize("family", ["gaussian_linear", "exponential_regression"])
    def test_design_and_validation_run_once(self, monkeypatch, family, method):
        rng = np.random.Generator(np.random.Philox(4))
        x = rng.uniform(-1, 1, (200, 2))
        # a negative response reaches the exponential family's zero-mass branch
        y = np.append(-0.5, rng.exponential(1.0, 199))
        model = resolve_model(family, 2)
        theta = np.array([0.2, -0.4, 0.3, 1.7])[: model.param_dim]
        want = _written(family, method, y, x, theta)
        calls = {"design": 0, "validate": 0}

        def design(x):
            calls["design"] += 1
            return _design(x)

        def validate(theta, inner=model.validate_theta):
            calls["validate"] += 1
            return inner(theta)

        monkeypatch.setattr(models, "_design", design)
        monkeypatch.setattr(model, "validate_theta", validate)
        got = getattr(model, method)(y, x, theta)
        assert calls == {"design": 1, "validate": 1}
        assert got.tobytes() == want.tobytes()


class TestHelpers:
    def test_rosenblatt_k_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            rosenblatt(GaussianLinearModel(k=2), (0, 1, 1), Dataset(y=[1.0], x=[[1.0]]))
        with pytest.raises(InvalidArgumentError):
            response_bins(
                GaussianLinearModel(k=2), (0, 1, 1, 1), Dataset(y=[1.0], x=[[1.0]]),
                np.array([0.0, 1.0]),
            )

    def test_log_likelihood_allows_minus_inf(self):
        model = ExponentialRegressionModel(k=1)
        data = Dataset(y=[-1.0, 1.0], x=[[0.0], [0.0]])
        assert log_likelihood(model, (0.0, 0.0), data) == -np.inf

    def test_log_likelihood_rejects_nan(self):
        class Broken(GaussianLinearModel):
            def log_density(self, y, x, theta):
                out = super().log_density(y, x, theta)
                out[0] = np.nan
                return out

        data = Dataset(y=[1.0, 2.0], x=[[0.0], [1.0]])
        with pytest.raises(ModelEvaluationError):
            log_likelihood(Broken(k=1), (0.0, 1.0, 1.0), data)

    @pytest.mark.parametrize("model_cls", [GaussianLinearModel, ExponentialRegressionModel])
    def test_covariate_dimension_is_an_integer(self, model_cls):
        for k in (0, -1, 2.7, 1.0, True, "2"):
            with pytest.raises(InvalidArgumentError, match="k must be an integer >= 1"):
                model_cls(k=k)
        model = model_cls(k=np.int64(2))
        assert model.k == 2 and type(model.k) is int

    def test_resolve_model(self):
        assert resolve_model("gaussian_linear", 3).param_dim == 5
        assert resolve_model("exponential_regression", 3).param_dim == 4
        with pytest.raises(InvalidArgumentError):
            resolve_model("weibull", 1)
