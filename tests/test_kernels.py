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
        assert backend.normal_cdf(np.array([1.0]))[0] == pytest.approx(
            0.8413447460685429, abs=1e-12
        )

    def test_against_quadrature(self):
        z = np.linspace(-6.0, 6.0, 49)
        for zi, got in zip(z, backend.normal_cdf(z)):
            assert got == pytest.approx(normal_cdf_oracle(float(zi)), abs=1e-12)

    def test_symmetry_and_tails(self):
        z = np.array([0.3, 1.7, 4.2])
        np.testing.assert_allclose(backend.normal_cdf(z) + backend.normal_cdf(-z), 1.0, atol=1e-14)
        assert backend.normal_cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_infinite_limits(self):
        z = np.array([-math.inf, -40.0, 0.0, 40.0, math.inf])
        assert backend.normal_cdf(z).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_nan_propagates(self):
        out = backend.normal_cdf(np.array([0.3, math.nan, 5.0, -2.0]))
        assert math.isnan(out[1])
        assert out[[0, 2, 3]].tolist() == backend.normal_cdf(np.array([0.3, 5.0, -2.0])).tolist()

    def test_array_matches_scalar(self):
        # the same math.erfc on the same -z / sqrt(2), whatever the input's layout
        z = np.linspace(-8.0, 8.0, 1001)
        want = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()]
        assert backend.normal_cdf(z).tolist() == want
        assert backend.normal_cdf(z[::-2]).tolist() == want[::-2]
        assert backend.normal_cdf(z.tolist()).tolist() == want

    def test_stated_accuracy(self):
        # the bounds in normal_cdf's docstring, against mpmath
        rng = np.random.Generator(np.random.Philox(8))
        wide = np.concatenate((rng.uniform(-40.0, 40.0, 1500), rng.uniform(0.0, 8.5, 1500)))
        central = rng.uniform(-6.0, 6.0, 1500)
        with mp.workdps(30):
            for z, got in zip(wide.tolist(), backend.normal_cdf(wide).tolist()):
                assert abs(mp.mpf(got) - mp.ncdf(z)) < 2e-16, z
            for z, got in zip(central.tolist(), backend.normal_cdf(central).tolist()):
                ref = mp.ncdf(z)
                assert abs(mp.mpf(got) - ref) <= 70 * math.ulp(float(ref)), z
            for u in rng.uniform(-6.0, 27.0, 1500).tolist():
                ref = mp.erfc(u)
                assert abs(mp.mpf(math.erfc(u)) - ref) <= 4 * math.ulp(float(ref)), u

    def test_quantile_roundtrip(self):
        levels = np.array([0.001, 0.025, 0.25, 0.5, 0.75, 0.975, 0.999])
        z = np.array([backend.std_normal_quantile(p) for p in levels])
        np.testing.assert_allclose(backend.normal_cdf(z), levels, rtol=0, atol=1e-12)
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
    """erfc(x) = 2 * normal_cdf(-x * sqrt 2): the error function's checks, run through normal_cdf."""

    @staticmethod
    def erfc(x):
        return 2.0 * backend.normal_cdf(-np.asarray(x, dtype=np.float64) * math.sqrt(2.0))

    def test_against_quadrature(self):
        x = np.array([-3.0, -0.2, 0.0, 0.5, 1.0, 2.0, 4.5, 8.0])
        for xi, got in zip(x.tolist(), self.erfc(x)):
            val, err = integrate.quad(
                lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
                xi,
                np.inf,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            assert err < 5e-13
            assert got == pytest.approx(val, abs=1e-13)

    def test_array_route(self):
        # scaling by sqrt 2 and back moves erfc's argument by at most an ulp
        x = np.linspace(-5.0, 10.0, 301)
        scal = np.array([math.erfc(v) for v in x.tolist()])
        assert np.max(np.abs(self.erfc(x) - scal)) < 1e-15

    def test_infinite_limits(self):
        x = np.array([-math.inf, -30.0, 30.0, 50.0, math.inf])
        assert self.erfc(x).tolist() == [2.0, 2.0, 0.0, 0.0, 0.0]

    def test_nan_propagates(self):
        # NaN alone and between finite points in each regime
        assert np.isnan(self.erfc(np.full(4, math.nan))).all()
        x = np.array([math.nan, 0.1, math.nan, -2.0, math.nan, 6.0, math.nan])
        out = self.erfc(x)
        assert np.isnan(out[::2]).all()
        assert out[1::2].tolist() == self.erfc(np.array([0.1, -2.0, 6.0])).tolist()


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
        for df in (float("inf"), float("nan")):
            with pytest.raises(InvalidArgumentError, match="df must be a positive integer"):
                backend.chisq_sf(1.0, df)
