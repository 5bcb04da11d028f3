import math

import mpmath
import numpy as np
import pytest
from scipy.stats import truncnorm

from irslink.channel import LinkParams, SystemConfig
from irslink.cli import validate_config
from irslink.cltapprox import (TruncatedNormal, quantized_w_stats, w_mean_var,
                               w_moment, w_stats)
from irslink.montecarlo import SimPlan, reflected_sum_samples
from oracles import truncated_normal_sample


def unit_config(n, m_g, m_h, eta=1.0, kappa_g=None, kappa_h=None):
    """Homogeneous config with chosen per-leg spreads (kappa defaults to 1)."""
    zg = (kappa_g if kappa_g is not None else 1.0) / m_g
    zh = (kappa_h if kappa_h is not None else 1.0) / m_h
    return SystemConfig(n_elements=n, eta=eta, v=LinkParams(1.0, 1.0),
                        g=LinkParams(m_g, zg), h=LinkParams(m_h, zh))


def reflected_sums(cfg, trials, seed=0):
    return reflected_sum_samples(cfg, SimPlan(trials, seed, workers=2))


class TestWStats:
    def test_rayleigh_sixteen_elements(self):
        tn = w_stats(unit_config(16, 1.0, 1.0))
        assert tn.mu_bar == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert tn.sigma2_bar == pytest.approx(16.0 - math.pi**2, rel=1e-12)

    def test_single_product_mean_against_mc(self):
        cfg = unit_config(1, 2.0, 3.0, eta=0.8, kappa_g=1.5, kappa_h=0.7)
        tn = w_stats(cfg)
        samples = reflected_sums(cfg, 10**6)
        se = samples.std() / math.sqrt(samples.size)
        assert abs(samples.mean() - tn.mu_bar) < 4 * se

    def test_xi_decreases_to_one(self):
        xis = [w_stats(unit_config(n, 1.0, 2.0)).xi for n in (1, 2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(xis, xis[1:]))
        assert xis[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(x >= 1.0 for x in xis)

    @pytest.mark.slow
    @pytest.mark.parametrize("m_g,m_h", [(1.0, 1.0), (3.0, 4.0)])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_monte_carlo_one_percent(self, m_g, m_h, n):
        cfg = unit_config(n, m_g, m_h, eta=0.9)
        tn = w_stats(cfg)
        samples = reflected_sums(cfg, 10**6, seed=n + int(m_g))
        assert samples.mean() == pytest.approx(tn.mu_bar, rel=0.01)
        assert samples.var() == pytest.approx(tn.sigma2_bar, rel=0.01)

    def test_variance_doubles_with_elements(self):
        s1 = w_stats(unit_config(8, 2.0, 3.0)).sigma2_bar
        s2 = w_stats(unit_config(16, 2.0, 3.0)).sigma2_bar
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)


class TestTruncatedNormalLaw:
    @staticmethod
    def law(z_bar):
        # sigma_bar = 1.5, mu_bar placed so the truncation point is z_bar
        tn = TruncatedNormal(mu_bar=-1.5 * z_bar, sigma2_bar=2.25)
        return tn, np.linspace(0.0, tn.mu_bar + 8.0 * tn.sigma_bar, 401)

    @pytest.mark.parametrize("z_bar", [0.0, -2.5, -10.0, -20.0])
    def test_matches_scipy_truncnorm(self, z_bar):
        tn, w = self.law(z_bar)
        ref = truncnorm(a=tn.z_bar, b=np.inf, loc=tn.mu_bar, scale=tn.sigma_bar)
        # 1e-13 relative, plus 1e-14 absolute for the log CDF near 0 at the top
        # of the range; log_cdf(0) = -inf on both sides
        for mine, theirs in ((tn.log_pdf(w), ref.logpdf(w)), (tn.log_cdf(w), ref.logcdf(w)),
                             (tn.log_sf(w), ref.logsf(w))):
            np.testing.assert_allclose(mine, theirs, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("z_bar", [0.0, -2.5, -10.0, -20.0])
    def test_cdf_and_tail_sum_to_one(self, z_bar):
        tn, w = self.law(z_bar)
        np.testing.assert_allclose(np.logaddexp(tn.log_cdf(w), tn.log_sf(w)), 0.0, atol=1e-15)

    @pytest.mark.parametrize("n,m_g,m_h", [(1, 3.0, 4.0), (2, 3.0, 3.0), (1, 0.5, 0.5)])
    def test_cdf_near_zero_matches_quadrature(self, n, m_g, m_h):
        # the wdist CDF grid starts at w = 1e-9, where Phi(a) - Phi(z_bar)
        # cancels to about 1e-9 relative; w = 1e-9 and points either side of
        # d (|z_bar| + d) = 1/4, d = w / sigma_bar, where log_cdf changes form
        cfg, _ = validate_config({"n_elements": n, "fading": {"m_g": m_g, "m_h": m_h}})
        tn = w_stats(cfg)
        z = abs(tn.z_bar)
        reach = [(math.sqrt(z * z + 4.0 * t) - z) / 2.0 for t in (1e-6, 0.1, 0.249, 0.251, 1.0)]
        with mpmath.workdps(40):
            mu, sd = mpmath.mpf(tn.mu_bar), mpmath.sqrt(mpmath.mpf(tn.sigma2_bar))
            mass = mpmath.ncdf(mu / sd)
            for w in [1e-9] + [d * tn.sigma_bar for d in reach]:
                exact = mpmath.quad(lambda t: mpmath.npdf(t, mu, sd), [0, w]) / mass
                assert float(np.exp(tn.log_cdf(w))) == pytest.approx(
                    float(exact), rel=1e-14, abs=0.0), w

    def test_log_cdf_is_minus_inf_at_and_below_zero(self):
        # the suite turns RuntimeWarnings into errors: log 0 must not warn
        tn, _ = self.law(-2.5)
        assert tn.log_cdf(0.0) == -math.inf
        np.testing.assert_array_equal(tn.log_cdf(np.array([-1.0, 0.0])), -math.inf)


class TestWMeanVar:
    def test_half_normal_mean(self):
        mu, var = w_mean_var(TruncatedNormal(mu_bar=0.0, sigma2_bar=1.0))
        assert mu == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert var == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-12)

    def test_deep_truncation_is_identity(self):
        tn = TruncatedNormal(mu_bar=9.0, sigma2_bar=1.0)  # z_bar = -9
        mu, var = w_mean_var(tn)
        assert abs(mu - tn.mu_bar) < 1e-12
        assert abs(var - tn.sigma2_bar) < 1e-12

    def test_against_rejection_sampler(self):
        tn = TruncatedNormal(mu_bar=2.0, sigma2_bar=1.0)
        draws = truncated_normal_sample(tn, np.random.default_rng(5), 10**6)
        mu, var = w_mean_var(tn)
        assert draws.mean() == pytest.approx(mu, rel=0.003)
        assert draws.var() == pytest.approx(var, rel=0.01)


class TestWMoment:
    def test_first_moment_matches_mean(self):
        tn = TruncatedNormal(mu_bar=1.3, sigma2_bar=0.49)
        mu, _ = w_mean_var(tn)
        assert w_moment(tn, 1) == pytest.approx(mu, abs=1e-12)

    def test_second_moment_matches_variance_identity(self):
        tn = TruncatedNormal(mu_bar=0.4, sigma2_bar=2.25)
        mu, var = w_mean_var(tn)
        assert w_moment(tn, 2) == pytest.approx(mu * mu + var, abs=1e-12)

    def test_fourth_moment_against_sampler(self):
        tn = TruncatedNormal(mu_bar=5.0, sigma2_bar=2.0)
        draws = truncated_normal_sample(tn, np.random.default_rng(17), 2 * 10**6)
        m4 = (draws**4).mean()
        se = (draws**4).std() / math.sqrt(draws.size)
        assert abs(w_moment(tn, 4) - m4) < 3 * se

    def test_domain(self):
        tn = TruncatedNormal(mu_bar=1.0, sigma2_bar=1.0)
        for bad in (0, 5, -1):
            with pytest.raises(ValueError):
                w_moment(tn, bad)


@pytest.mark.parametrize("sigma2", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0])
def test_moments_and_variance_match_quadrature(ratio, sigma2):
    # mu_bar / sigma_bar = ratio; the variance of w_mean_var does not cancel
    # where mu_bar >> sigma_bar, as E[W^2] - E[W]^2 in float64 would
    tn = TruncatedNormal(mu_bar=ratio * math.sqrt(sigma2), sigma2_bar=sigma2)
    with mpmath.workdps(40):
        mu, sd = mpmath.mpf(tn.mu_bar), mpmath.sqrt(mpmath.mpf(tn.sigma2_bar))
        edges = sorted({mpmath.mpf(0), max(mpmath.mpf(0), mu - 30 * sd), mu, mu + 30 * sd})
        moments = [mpmath.quad(lambda w: w**k * mpmath.npdf(w, mu, sd), edges + [mpmath.inf])
                   for k in range(5)]
        moments = [float(m / moments[0]) for m in moments] + [
            float((moments[2] * moments[0] - moments[1] ** 2) / moments[0] ** 2)]
    for alpha in (1, 2, 3, 4):
        assert w_moment(tn, alpha) == pytest.approx(moments[alpha], rel=1e-15, abs=0.0), alpha
    assert w_mean_var(tn) == pytest.approx((moments[1], moments[5]), rel=1e-15, abs=0.0)


class TestQuantizedStats:
    def test_many_bits_recovers_unquantized(self):
        cfg = unit_config(24, 3.0, 4.0, eta=0.9)
        tn = w_stats(cfg)
        qs = quantized_w_stats(cfg, 40)
        assert qs.real_part.mu_bar == pytest.approx(tn.mu_bar, rel=1e-12)
        assert qs.real_part.sigma2_bar == pytest.approx(tn.sigma2_bar, rel=1e-9)
        # sin(2 tau)/(4 tau) rounds to exactly 1/2: no imaginary spread is left
        assert qs.sigma2_imag == 0.0

    def test_single_bit_mean(self):
        cfg = unit_config(8, 1.0, 1.0)
        tn = w_stats(cfg)
        qs = quantized_w_stats(cfg, 1)
        assert qs.real_part.mu_bar == pytest.approx(2.0 * tn.mu_bar / math.pi, rel=1e-12)

    def test_four_bit_mean_ratio(self):
        cfg = unit_config(8, 2.0, 3.0)
        qs = quantized_w_stats(cfg, 4)
        ratio = qs.real_part.mu_bar / w_stats(cfg).mu_bar
        assert ratio == pytest.approx(math.sin(math.pi / 16) / (math.pi / 16), rel=1e-12)
        assert ratio == pytest.approx(0.99359, abs=1e-5)

    def test_error_half_width(self):
        qs = quantized_w_stats(unit_config(8, 1.0, 2.0), 2)
        assert qs.tau == pytest.approx(math.pi / 4.0)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 6, 8])
    def test_variance_split_conserves_power(self, bits):
        cfg = unit_config(32, 3.0, 4.0, eta=0.9)
        qs = quantized_w_stats(cfg, bits)
        # the budget N eta^2 kappa_g kappa_h less the N squared element means
        budget = cfg.n_elements * cfg.eta**2 * cfg.g.kappa * cfg.h.kappa
        mean_sq_sum = qs.real_part.mu_bar**2 / cfg.n_elements
        total = qs.real_part.sigma2_bar + qs.sigma2_imag + mean_sq_sum
        assert total == pytest.approx(budget, rel=1e-12)
        assert budget == pytest.approx(32 * 0.9**2 * 1.0 * 1.0, rel=1e-12)
        assert qs.real_part.sigma2_bar > 0
        assert qs.sigma2_imag > 0

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_single_element_literal_identity(self, bits):
        # with one element the squared-mean sum is exactly mu_R^2
        cfg = unit_config(1, 2.0, 3.0, eta=0.7)
        qs = quantized_w_stats(cfg, bits)
        total = (qs.real_part.sigma2_bar + qs.real_part.mu_bar**2
                 + qs.sigma2_imag)
        assert total == pytest.approx(cfg.eta**2 * cfg.g.kappa * cfg.h.kappa, rel=1e-12)

    def test_moments_against_mc(self):
        cfg = unit_config(16, 1.0, 2.0, eta=0.9)
        bits = 2
        qs = quantized_w_stats(cfg, bits)
        rng = np.random.default_rng(23)
        trials = 10**6
        g = np.sqrt(rng.gamma(cfg.g.m, cfg.g.zeta, (trials, 16)))
        h = np.sqrt(rng.gamma(cfg.h.m, cfg.h.zeta, (trials, 16)))
        eps = rng.uniform(-qs.tau, qs.tau, (trials, 16))
        prod = g * h * 0.9
        w_re = (prod * np.cos(eps)).sum(axis=1)
        w_im = (prod * np.sin(eps)).sum(axis=1)
        assert w_re.mean() == pytest.approx(qs.real_part.mu_bar, rel=0.005)
        assert w_re.var() == pytest.approx(qs.real_part.sigma2_bar, rel=0.01)
        assert w_im.var() == pytest.approx(qs.sigma2_imag, rel=0.01)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            quantized_w_stats(unit_config(4, 1.0, 1.0), 0)
