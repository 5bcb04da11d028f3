import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from irslink.channel import LinkParams, SystemConfig
from irslink.cli import validate_config
from irslink.cltapprox import TruncatedNormal, w_stats
from irslink.errors import NumericalConsistencyError, UnsupportedShapeError
from irslink.montecarlo import SimPlan, simulate_snr_samples
from irslink.snrdist import (ProductPdfParams, SnrCdfParams, envelope_cdf, envelope_pdf,
                             optimal_phases, optimal_snr, product_pdf, snr_cdf, snr_pdf)
from oracles import envelope_pdf_scalar, snr_cdf_quadrature


def unit_config(n, m_v, m_g, m_h, eta=0.9, gamma_bar_db=0.0):
    return SystemConfig(n_elements=n, eta=eta, v=LinkParams(m_v, 1.0 / m_v),
                        g=LinkParams(m_g, 1.0 / m_g), h=LinkParams(m_h, 1.0 / m_h),
                        gamma_bar_db=gamma_bar_db)


def nakagami_pdf(x, m, kappa):
    return (2.0 * m**m * x ** (2 * m - 1) / (math.gamma(m) * kappa**m)
            * np.exp(-m * x * x / kappa))


def convolution_cdf(r, m_v, kappa_v, tn):
    """Independent oracle: P(v + W <= r) by direct double quadrature."""
    xi_norm = tn.xi / math.sqrt(2 * math.pi * tn.sigma2_bar)

    def w_cdf(w):
        if w <= 0:
            return 0.0
        val, _ = quad(lambda t: xi_norm * math.exp(-(t - tn.mu_bar) ** 2
                                                   / (2 * tn.sigma2_bar)), 0.0, w,
                      epsabs=1e-13, epsrel=1e-11, limit=200)
        return val

    val, _ = quad(lambda u: nakagami_pdf(u, m_v, kappa_v) * w_cdf(r - u), 0.0, r,
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


class TestOptimalPhases:
    def test_direct_evaluation(self):
        theta = optimal_phases(0.0, [math.pi / 3], [math.pi / 6])
        assert theta[0] == pytest.approx(-math.pi / 2, rel=1e-12)

    def test_identity(self):
        theta = optimal_phases(0.0, np.zeros(5), np.zeros(5))
        np.testing.assert_allclose(theta, 0.0)

    def test_cophasing_alignment(self):
        rng = np.random.default_rng(3)
        phi_v = rng.uniform(-math.pi, math.pi)
        phi_g = rng.uniform(-math.pi, math.pi, 64)
        phi_h = rng.uniform(-math.pi, math.pi, 64)
        theta = optimal_phases(phi_v, phi_g, phi_h)
        assert np.all(theta > -math.pi) and np.all(theta <= math.pi)
        args = np.angle(np.exp(1j * (phi_g + phi_h + theta)))
        np.testing.assert_allclose(np.angle(np.exp(1j * (args - phi_v))), 0.0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            optimal_phases(0.0, [0.0, 0.1], [0.0])


class TestOptimalSnr:
    def test_direct_evaluation(self):
        assert optimal_snr(1.0, [1.0], [1.0], [0.9], 1.0) == pytest.approx(3.61, rel=1e-12)

    def test_empty_surface(self):
        assert optimal_snr(1.7, [], [], [], 2.0) == pytest.approx(2.0 * 1.7**2, rel=1e-12)

    def test_dominates_random_phases(self):
        rng = np.random.default_rng(8)
        n = 12
        v, g, h = rng.rayleigh(1.0), rng.rayleigh(1.0, n), rng.rayleigh(1.0, n)
        eta = rng.uniform(0.5, 1.0, n)
        best = optimal_snr(v, g, h, eta, 1.0)
        for _ in range(10**4):
            theta = rng.uniform(-math.pi, math.pi, n)
            snr = np.abs(v + np.sum(g * h * eta * np.exp(1j * theta))) ** 2
            assert snr <= best + 1e-12


@pytest.fixture(scope="module")
def params_234():
    return SnrCdfParams.from_config(unit_config(32, 2.0, 3.0, 4.0))


@pytest.fixture(scope="module")
def params_153():
    return SnrCdfParams.from_config(unit_config(16, 1.5, 2.0, 3.0, gamma_bar_db=3.0))


class TestEnvelopePdf:

    def test_normalizes(self, params_234):
        mu = params_234.tn.mu_bar
        head, _ = quad(lambda r: envelope_pdf(r, params_234), 0, mu, limit=300)
        tail, _ = quad(lambda r: envelope_pdf(r, params_234), mu, np.inf, limit=300)
        assert head + tail == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_on_grid(self, params_234):
        grid = np.linspace(1e-6, 3 * params_234.tn.mu_bar, 10**4)
        assert np.all(envelope_pdf(grid, params_234) >= 0.0)

    def test_branch_continuity(self, params_234):
        mu = params_234.tn.mu_bar
        left = envelope_pdf(mu * (1 - 1e-11), params_234)
        right = envelope_pdf(mu * (1 + 1e-11), params_234)
        assert left == pytest.approx(right, rel=1e-9)

    def test_matches_convolution(self, params_234):
        # direct convolution of the leg densities as an independent oracle
        tn = params_234.tn
        xi_norm = tn.xi / math.sqrt(2 * math.pi * tn.sigma2_bar)
        for frac in (0.6, 0.95, 1.05, 1.3):
            r = frac * tn.mu_bar
            oracle, _ = quad(
                lambda u: nakagami_pdf(u, params_234.m_v, params_234.kappa_v) * xi_norm
                * math.exp(-(r - u - tn.mu_bar) ** 2 / (2 * tn.sigma2_bar)),
                0, r, limit=300)
            assert envelope_pdf(r, params_234) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("m_v", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_array_equals_point_by_point(self, m_v, n):
        params = SnrCdfParams.from_config(validate_config({"n_elements": n,
                                                           "fading": {"m_v": m_v}})[0])
        mu = params.tn.mu_bar
        grid = np.concatenate([[-1.0, 0.0, mu, np.nan], np.linspace(1e-9, 3 * mu, 996)])
        np.testing.assert_array_equal(envelope_pdf(grid, params),
                                      envelope_pdf_scalar(grid, params))
        np.testing.assert_array_equal(envelope_pdf(grid.reshape(4, 250), params),
                                      envelope_pdf_scalar(grid, params).reshape(4, 250))
        assert envelope_pdf(0.5 * mu, params) == envelope_pdf_scalar(0.5 * mu, params)
        assert envelope_pdf(-1.0, params) == 0.0

    def test_rejects_non_half_integer_shape(self):
        with pytest.raises(UnsupportedShapeError):
            SnrCdfParams.from_config(unit_config(8, 0.75, 1.0, 1.0))


def _closed_against_quadrature(m_v, n, fractions):
    params = SnrCdfParams.from_config(unit_config(n, m_v, 2.0, 3.0))
    ys = np.array(fractions) * params.gamma_bar * params.tn.mu_bar**2
    closed = snr_cdf(ys, params)
    reference = snr_cdf_quadrature(ys, params)
    assert closed == pytest.approx(reference, abs=1e-6, rel=1e-6)


class TestSnrCdf:

    def test_limits(self, params_234):
        assert snr_cdf(1e-12, params_234) == pytest.approx(0.0, abs=1e-9)
        big = params_234.gamma_bar * (params_234.tn.mu_bar + 40 * params_234.tn.sigma_bar) ** 2
        assert snr_cdf(big, params_234) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_nondecreasing(self, params_234):
        mean_snr = params_234.gamma_bar * params_234.tn.mu_bar**2
        ys = np.linspace(1e-3 * mean_snr, 4.0 * mean_snr, 1000)
        vals = snr_cdf(ys, params_234)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_closed_matches_quadrature_method(self, params_234):
        mean_snr = params_234.gamma_bar * params_234.tn.mu_bar**2
        for frac in (0.05, 0.4, 0.8, 1.0, 1.2, 2.0):
            y = frac * mean_snr
            closed = snr_cdf(y, params_234)
            reference = snr_cdf_quadrature(y, params_234)
            assert closed == pytest.approx(reference, abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize("m_v", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_half_integer_closed_matches_quadrature_method(self, m_v, n):
        _closed_against_quadrature(m_v, n, [0.05, 0.4, 0.8, 1.0])

    @pytest.mark.parametrize("m_v", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [
        pytest.param(4, marks=pytest.mark.xfail(
            strict=True, reason="known defect: the envelope density omits the truncation "
            "of W, so above the mean 1 - upper tail and the integral from 0 differ by "
            "about xi - 1 = 1.5e-5 here")),
        16, 64])
    def test_half_integer_closed_matches_quadrature_method_above_mean(self, m_v, n):
        _closed_against_quadrature(m_v, n, [1.2, 2.0])

    def test_array_equals_per_point_calls(self, params_234, params_153):
        # the grid holds 0, the reflected mean (the piece boundary) and both sides
        for params in (params_234, params_153):
            mean_snr = params.gamma_bar * params.tn.mu_bar**2
            ys = np.concatenate([np.linspace(0.0, 3.0 * mean_snr, 31), [mean_snr]])
            np.testing.assert_array_equal(snr_cdf(ys, params),
                                          [snr_cdf(y, params) for y in ys])
            np.testing.assert_array_equal(snr_cdf(ys.reshape(4, 8), params),
                                          snr_cdf(ys, params).reshape(4, 8))
        assert isinstance(snr_cdf(1.0, params_153), float)

    @pytest.mark.parametrize("m_v", [2.0, 2.5, 3.0])
    def test_single_element_still_fails_the_probability_check(self, m_v):
        # known defect: the density omits the truncation of W, so its mass is
        # xi, not 1, and at N=1 in the default geometry the CDF leaves [0, 1]
        # beyond the slack on the snrcdf grid
        cfg, _ = validate_config({"n_elements": 1, "fading": {"m_v": m_v}}, "snrcdf")
        params = SnrCdfParams.from_config(cfg)
        mean_db = 10 * math.log10(cfg.gamma_bar * params.tn.mu_bar**2)
        ys = 10 ** (np.linspace(mean_db - 12.0, mean_db + 6.0, 121) / 10)
        with pytest.raises(NumericalConsistencyError):
            snr_cdf(ys, params)

    @pytest.mark.xfail(strict=True, reason="known defect: below the reflected mean the CDF "
                       "is the difference of two closed-form tails, so deep in the lower tail "
                       "a 1-ulp change of sigma2_bar moves it by 2.4e-2 relative")
    def test_deep_lower_tail_is_stable_under_one_ulp_of_sigma2(self):
        # the default geometry at m_v=2.5, N=64: gamma_th 10 dB against gamma_bar 42 dB;
        # the jump shows on one side of sigma2_bar or the other, so step both ways
        cfg, _ = validate_config({"n_elements": 64, "gamma_bar_db": 0.0,
                                  "fading": {"m_v": 2.5}}, "outage")
        params = SnrCdfParams.from_config(cfg)
        y = 10 ** ((10.0 - 42.0) / 10)
        cdf = snr_cdf(y, params)
        for toward in (0.0, math.inf):
            stepped = replace(params, tn=TruncatedNormal(
                params.tn.mu_bar, math.nextafter(params.tn.sigma2_bar, toward)))
            assert abs(snr_cdf(y, stepped) / cdf - 1.0) < 1e-9

    def test_matches_independent_convolution(self, params_234):
        for frac in (0.5, 0.9, 1.1, 1.5):
            r = frac * params_234.tn.mu_bar
            oracle = convolution_cdf(r, params_234.m_v, params_234.kappa_v, params_234.tn)
            assert envelope_cdf(r, params_234) == pytest.approx(oracle, abs=2e-6)

    @pytest.mark.slow
    def test_kolmogorov_smirnov_against_mc(self):
        cfg = unit_config(32, 2.0, 3.0, 4.0)
        params = SnrCdfParams.from_config(cfg)
        samples = np.sort(simulate_snr_samples(cfg, SimPlan(trials=200_000, seed=41)))
        qs = np.linspace(0.005, 0.995, 80)
        ys = np.quantile(samples, qs)
        ks = float(np.max(np.abs(snr_cdf(ys, params) - qs)))
        assert ks <= 0.02

    def test_direct_link_limit(self):
        # reflected spread -> 0 leaves the direct Gamma tail; element count
        # must stay in the CLT-valid regime for the truncation mass defect
        # (xi - 1) to be negligible
        m_v, kappa_v = 2.0, 1.0
        cfg = SystemConfig(n_elements=32, eta=1.0, v=LinkParams(m_v, kappa_v / m_v),
                           g=LinkParams(1.0, 1e-12), h=LinkParams(1.0, 1.0),
                           gamma_bar_db=0.0)
        params = SnrCdfParams.from_config(cfg)
        for y in (0.2, 1.0, 2.5):
            direct = gammainc(m_v, m_v * y / kappa_v)
            assert snr_cdf(y, params) == pytest.approx(direct, abs=1e-3)

    def test_one_sided_gaussian_case(self):
        # severe direct fading, homogeneous surface: closed CDF vs the
        # independent convolution oracle to 1e-8
        cfg = unit_config(16, 0.5, 2.0, 3.0)
        params = SnrCdfParams.from_config(cfg)
        for frac in (0.4, 0.8, 1.0, 1.3):
            r = frac * params.tn.mu_bar
            oracle = convolution_cdf(r, 0.5, cfg.v.kappa, params.tn)
            assert envelope_cdf(r, params) == pytest.approx(oracle, abs=1e-8)

    def test_consistency_guard_raises(self):
        params = SnrCdfParams.from_config(unit_config(8, 1.0, 1.0, 2.0))
        object.__setattr__(params, "kappa_v", -0.3)  # poison the parameter pack
        with pytest.raises((NumericalConsistencyError, ValueError)):
            snr_cdf(np.array([1.0]), params)


class TestSnrPdf:

    def test_finite_difference_consistency(self, params_153):
        mean_snr = params_153.gamma_bar * params_153.tn.mu_bar**2
        for frac in (0.5, 0.9, 1.2):
            y = frac * mean_snr
            h = 1e-5 * y
            deriv = (snr_cdf(y + h, params_153) - snr_cdf(y - h, params_153)) / (2 * h)
            assert snr_pdf(y, params_153) == pytest.approx(deriv, rel=1e-4)

    def test_normalizes(self, params_153):
        mean_snr = params_153.gamma_bar * params_153.tn.mu_bar**2
        val, _ = quad(lambda y: snr_pdf(y, params_153), 1e-12, mean_snr, limit=400)
        tail, _ = quad(lambda y: snr_pdf(y, params_153), mean_snr, np.inf, limit=400)
        assert val + tail == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self, params_153):
        mean_snr = params_153.gamma_bar * params_153.tn.mu_bar**2
        ys = np.linspace(1e-6, 3 * mean_snr, 2000)
        assert np.all(snr_pdf(ys, params_153) >= 0)

    def test_rejects_nonpositive(self, params_153):
        with pytest.raises(ValueError):
            snr_pdf(0.0, params_153)


class TestProductPdf:
    def test_rayleigh_product_normalization_and_form(self):
        p = ProductPdfParams(g=LinkParams(1.0, 1.0), h=LinkParams(1.0, 1.0), eta=1.0)
        # expected closed form 4 w K_0(2w)
        from scipy.special import kv
        w = np.linspace(0.05, 3.0, 40)
        np.testing.assert_allclose(product_pdf(w, p), 4 * w * kv(0, 2 * w), rtol=1e-12)
        total, _ = quad(lambda t: product_pdf(t, p), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_lemma_output(self):
        p = ProductPdfParams(g=LinkParams(1.0, 1.0), h=LinkParams(1.0, 1.0), eta=1.0)
        mean, _ = quad(lambda t: t * product_pdf(t, p), 0, np.inf, limit=300)
        assert mean == pytest.approx(math.pi / 4.0, abs=1e-9)

    @pytest.mark.parametrize("m_a,m_b,eta", [(2.0, 3.0, 1.0), (1.0, 2.0, 0.9),
                                             (2.0, 3.0, 0.5)])
    def test_quadrature_moments_match_per_element_stats(self, m_a, m_b, eta):
        kappa_a, kappa_b = 1.3, 0.8
        p = ProductPdfParams(g=LinkParams(m_a, kappa_a / m_a),
                             h=LinkParams(m_b, kappa_b / m_b), eta=eta)
        total, _ = quad(lambda t: product_pdf(t, p), 0, np.inf, limit=300)
        mean, _ = quad(lambda t: t * product_pdf(t, p), 0, np.inf, limit=300)
        second, _ = quad(lambda t: t * t * product_pdf(t, p), 0, np.inf, limit=300)
        t_ratio = math.exp(gammaln(m_a + 0.5) + gammaln(m_b + 0.5)
                           - gammaln(m_a) - gammaln(m_b))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(eta * math.sqrt(kappa_a * kappa_b / (m_a * m_b)) * t_ratio,
                                     rel=1e-9)
        assert second == pytest.approx(eta**2 * kappa_a * kappa_b, rel=1e-9)

    def test_matches_single_element_w_stats(self):
        cfg = unit_config(1, 1.0, 2.0, 3.0, eta=0.7)
        tn = w_stats(cfg)
        p = ProductPdfParams(g=cfg.g, h=cfg.h, eta=0.7)
        mean, _ = quad(lambda t: t * product_pdf(t, p), 0, np.inf, limit=300)
        var, _ = quad(lambda t: (t - mean) ** 2 * product_pdf(t, p), 0, np.inf, limit=300)
        assert mean == pytest.approx(tn.mu_bar, rel=1e-9)
        assert var == pytest.approx(tn.sigma2_bar, rel=1e-9)

    def test_rejects_nonpositive_argument(self):
        p = ProductPdfParams(g=LinkParams(1.0, 1.0), h=LinkParams(1.0, 1.0))
        with pytest.raises(ValueError):
            product_pdf(0.0, p)
