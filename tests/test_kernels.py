"""Kernel accuracy against quadrature and mpmath oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from condgof import backend
from condgof.errors import InvalidArgumentError
from condgof.tabulate import balanced_grid


def normal_cdf_oracle(z: float) -> float:
    """Independent route: adaptive quadrature of the normal density.

    Integrates outward from 0 where quad's error estimate stays tight.
    """
    val, err = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        0.0,
        z,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert err < 1e-13
    return 0.5 + val


def chisq_sf_oracle(x: float, df: int) -> float:
    """Independent route: adaptive quadrature of the chi-square density."""
    c = 1.0 / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
    val, err = integrate.quad(
        lambda t: c * t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0),
        x,
        np.inf,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-11
    return val


class TestNormalCdf:
    def test_spot_value(self):
        # frozen from the quadrature oracle
        assert backend.std_normal_cdf(1.0) == pytest.approx(
            0.8413447460685429, abs=1e-12
        )

    def test_against_quadrature(self):
        for z in np.linspace(-6.0, 6.0, 49):
            assert backend.std_normal_cdf(float(z)) == pytest.approx(
                normal_cdf_oracle(float(z)), abs=1e-12
            )

    def test_symmetry_and_tails(self):
        for z in (0.3, 1.7, 4.2):
            assert backend.std_normal_cdf(z) + backend.std_normal_cdf(-z) == pytest.approx(
                1.0, abs=1e-14
            )
        assert backend.std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert backend.std_normal_cdf(-40.0) == 0.0
        assert backend.std_normal_cdf(40.0) == 1.0

    def test_infinite_limits(self):
        assert backend.std_normal_cdf(-math.inf) == 0.0
        assert backend.std_normal_cdf(math.inf) == 1.0
        z = np.array([-math.inf, -40.0, 0.0, 40.0, math.inf])
        assert backend.normal_cdf(z).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_nan_propagates(self):
        assert math.isnan(backend.std_normal_cdf(math.nan))
        out = backend.normal_cdf(np.array([0.3, math.nan, 5.0, -2.0]))
        assert math.isnan(out[1])
        assert out[[0, 2, 3]].tolist() == backend.normal_cdf(np.array([0.3, 5.0, -2.0])).tolist()

    def test_array_matches_scalar(self):
        z = np.linspace(-8.0, 8.0, 1001)
        arr = backend.normal_cdf(z)
        scal = np.array([backend.std_normal_cdf(v) for v in z])
        assert np.max(np.abs(arr - scal)) < 1e-14

    def test_quantile_roundtrip(self):
        for p in (0.001, 0.025, 0.25, 0.5, 0.75, 0.975, 0.999):
            z = backend.std_normal_quantile(p)
            assert backend.std_normal_cdf(z) == pytest.approx(p, abs=1e-12)
        with pytest.raises(InvalidArgumentError):
            backend.std_normal_quantile(0.0)
        with pytest.raises(InvalidArgumentError):
            backend.std_normal_quantile(1.0)

    def test_quantile_within_8_ulp_at_grid_thresholds(self):
        # every interior threshold of balanced_grid(L), L <= 64, and i/T, T <= 8
        levels = {float(t) for L in range(2, 65) for t in balanced_grid(L).thresholds[1:-1]}
        levels |= {i / T for T in range(2, 9) for i in range(1, T)}
        with mp.workdps(40):
            for t in sorted(levels):
                ref = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(t) - 1)
                got = backend.std_normal_quantile(t)
                assert abs(got - ref) <= 8 * math.ulp(float(ref)), t


class TestErfc:
    def test_against_quadrature(self):
        for x in (-3.0, -0.2, 0.0, 0.5, 1.0, 2.0, 4.5, 8.0):
            val, err = integrate.quad(
                lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
                x,
                np.inf,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            assert err < 5e-13
            assert backend.erfc(x) == pytest.approx(val, abs=1e-13)

    def test_array_route(self):
        x = np.linspace(-5.0, 10.0, 301)
        arr = backend.erfc(x)
        scal = np.array([backend.erfc(float(v)) for v in x])
        assert np.max(np.abs(arr - scal)) < 1e-15

    def test_infinite_limits(self):
        assert backend.erfc(math.inf) == 0.0
        assert backend.erfc(-math.inf) == 2.0
        x = np.array([-math.inf, -30.0, 30.0, 50.0, math.inf])
        assert backend.erfc(x).tolist() == [2.0, 2.0, 0.0, 0.0, 0.0]

    def test_nan_propagates(self):
        # NaN in each of the three regimes' neighbourhoods and alone
        assert math.isnan(backend.erfc(math.nan))
        assert np.isnan(backend.erfc(np.full(4, math.nan))).all()
        x = np.array([math.nan, 0.1, math.nan, -2.0, math.nan, 6.0, math.nan])
        out = backend.erfc(x)
        assert np.isnan(out[::2]).all()
        assert out[1::2].tolist() == backend.erfc(np.array([0.1, -2.0, 6.0])).tolist()


class TestChisqSf:
    def test_spot_values(self):
        # frozen from the quadrature oracle
        assert backend.chisq_sf(3.8415, 1) == pytest.approx(0.0499987720712223, abs=1e-10)
        assert backend.chisq_sf(0.0, 5) == 1.0
        assert backend.chisq_sf(1e6, 2) < 1e-300

    def test_infinite_x(self):
        for df in (1, 2, 7, 10**6):
            assert backend.chisq_sf(math.inf, df) == 0.0

    def test_against_quadrature_grid(self):
        xs = [0.1, 0.5, 1.0, 3.0, 7.5, 15.0, 30.0, 60.0, 100.0]
        for df in (1, 2, 3, 5, 10, 20, 30):
            for x in xs:
                assert backend.chisq_sf(x, df) == pytest.approx(
                    chisq_sf_oracle(x, df), abs=1e-10
                ), (x, df)

    def test_monotone_in_x(self):
        xs = np.linspace(0.01, 60.0, 200)
        for df in (1, 4, 17):
            vals = [backend.chisq_sf(float(x), df) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_df(self):
        # strictly increasing until the values saturate at 1.0 in doubles
        for x in (0.5, 3.0, 12.0):
            vals = [backend.chisq_sf(x, df) for df in range(1, 31)]
            for a, b in zip(vals, vals[1:]):
                if b < 1.0 - 1e-12:
                    assert a < b
                else:
                    assert a <= b

    def test_df_2_closed_form(self):
        for x in (0.1, 1.0, 5.0, 20.0):
            assert backend.chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "df, bound", [(10**3, 5e-13), (10**4, 7e-12), (10**5, 6e-11), (10**6, 7e-10)]
    )
    def test_large_df_against_mpmath(self, df, bound):
        # the bounds chisq_sf documents for each df range
        with mp.workdps(40):
            for z in np.linspace(-6.0, 10.0, 33):
                x = df + float(z) * math.sqrt(2.0 * df)
                ref = mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
                assert abs(backend.chisq_sf(x, df) - float(ref)) <= bound, (df, z)

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            backend.chisq_sf(-1.0, 3)
        with pytest.raises(InvalidArgumentError):
            backend.chisq_sf(float("nan"), 3)
        with pytest.raises(InvalidArgumentError):
            backend.chisq_sf(1.0, 0)
        with pytest.raises(InvalidArgumentError):
            backend.chisq_sf(1.0, 2.5)
