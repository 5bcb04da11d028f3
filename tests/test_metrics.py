import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from irslink.channel import LinkParams, Modulation, SystemConfig, path_loss
from irslink import metrics
from irslink.cltapprox import quantized_w_stats
from irslink.errors import ConfigError, NumericalConsistencyError
from irslink.metrics import (asymptotic_outage, asymptotic_rate, asymptotic_ser,
                             outage_probability, quantized_rate_bounds, rate_bounds,
                             ser_upper_bound)
from irslink.montecarlo import (SimPlan, empirical_ber, empirical_outage, empirical_rate,
                                fit_loglog_slope, simulate_snr_samples)
from irslink.snrdist import ProductPdfParams, SnrCdfParams, product_pdf
from oracles import ser_upper_bound_scalar, truncated_normal_sample


def unit_config(n, m_v, m_g, m_h, eta=0.9, gamma_bar_db=0.0, alpha=1.0, beta=2.0):
    return SystemConfig(n_elements=n, eta=eta, v=LinkParams(m_v, 1.0 / m_v),
                        g=LinkParams(m_g, 1.0 / m_g), h=LinkParams(m_h, 1.0 / m_h),
                        gamma_bar_db=gamma_bar_db, modulation=Modulation(alpha, beta))


def figure_config(n, m_v, m_g, m_h, d_si=60.0, gamma_bar_db=20.0):
    # the default geometry (zeta0 -42 dB, exponent 3.5), surface legs of d_si each
    def leg(m, d):
        return LinkParams(m, path_loss(d, -42.0, 3.5))
    return SystemConfig(n_elements=n, eta=0.9, v=leg(m_v, 100.0), g=leg(m_g, d_si),
                        h=leg(m_h, d_si), gamma_bar_db=gamma_bar_db)


class TestOutage:
    def test_vanishes_at_zero_threshold(self):
        p = SnrCdfParams.from_config(figure_config(16, 2.0, 2.0, 3.0))
        assert outage_probability(1e-14, p) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            outage_probability(0.0, p)

    def test_matches_model_monte_carlo_within_binomial_ci(self):
        # sampling the truncated-normal reflected-sum model directly checks
        # the closed-form evaluation machinery to estimator precision
        cfg = figure_config(16, 2.0, 2.0, 3.0, gamma_bar_db=22.0)
        p = SnrCdfParams.from_config(cfg)
        gamma_th = 10.0
        analytic = outage_probability(gamma_th, p)
        assert 1e-3 < analytic < 2e-2  # meaningful operating point
        rng = np.random.default_rng(5)
        trials = 10**6
        v = np.sqrt(rng.gamma(cfg.v.m, cfg.v.zeta, trials))
        w = truncated_normal_sample(p.tn, rng, trials)
        est = empirical_outage(cfg.gamma_bar * (v + w) ** 2, gamma_th)
        half = 1.5 * (est.ci_high - est.ci_low) / 2.0  # 3 sigma
        assert est.value - half <= analytic <= est.value + half

    def test_matches_exact_channel_within_approximation_budget(self):
        # against the exact channel the truncated-normal model carries an
        # absolute CDF error budget of the same order the KS criteria allow
        cfg = figure_config(16, 2.0, 2.0, 3.0, gamma_bar_db=22.0)
        p = SnrCdfParams.from_config(cfg)
        gamma_th = 10.0
        analytic = outage_probability(gamma_th, p)
        est = empirical_outage(simulate_snr_samples(cfg, SimPlan(trials=10**6, seed=5)),
                               gamma_th)
        assert abs(analytic - est.value) <= 0.02


class TestAsymptoticOutage:
    def test_diversity_orders(self):
        r, _ = asymptotic_outage(figure_config(16, 2.0, 2.0, 3.0), 10.0)
        assert r.g_d == pytest.approx(34.0, rel=0)
        r, _ = asymptotic_outage(figure_config(16, 1.0, 1.0, 2.0), 10.0)
        assert r.g_d == pytest.approx(17.0, rel=0)

    def test_rayleigh_reduction_needs_distinct_shapes(self):
        # equal reflected shapes hit the excluded Gamma pole; the rule
        # m_v + min(m)N still gives 1 + N, reported in the error path
        with pytest.raises(ConfigError):
            asymptotic_outage(unit_config(12, 1.0, 1.0, 1.0), 10.0)

    def test_diversity_additivity(self):
        orders = [asymptotic_outage(figure_config(n, 2.0, 2.0, 3.0), 10.0)[0].g_d
                  for n in (4, 5, 6, 7)]
        steps = np.diff(orders)
        assert np.allclose(steps, 2.0)  # min(m_g, m_h) per element

    def test_pole_condition_rejected(self):
        with pytest.raises(ConfigError):
            asymptotic_outage(unit_config(4, 1.0, 1.0, 1.25), 10.0)

    def test_array_gain_identity(self):
        gamma_th = 10.0 ** 0.7
        r, _ = asymptotic_outage(figure_config(8, 2.0, 2.0, 3.0), gamma_th)
        assert r.o_c == pytest.approx(
            math.exp(-math.log(gamma_th) - r.log_omega_op / r.g_d), rel=1e-12)

    def test_evaluator_is_pure_power_law(self):
        r, ev = asymptotic_outage(figure_config(8, 2.0, 2.0, 3.0), 10.0)
        assert ev(200.0) / ev(2000.0) == pytest.approx(10.0 ** r.g_d, rel=1e-9)

    def test_tangent_to_exact_single_element_distribution(self):
        # exact oracle: direct leg convolved with the exact product density
        cfg = unit_config(1, 1.0, 1.0, 2.0, eta=0.9)
        r, ev = asymptotic_outage(cfg, 1.0)
        assert r.g_d == pytest.approx(2.0)
        pp = ProductPdfParams(g=cfg.g, h=cfg.h, eta=0.9)

        def exact_cdf(radius):
            def outer(u):
                inner, _ = quad(lambda t: product_pdf(t, pp), 1e-300, radius - u, limit=200)
                return (2.0 * u * math.exp(-u * u)) * inner  # Rayleigh direct pdf
            val, _ = quad(outer, 0.0, radius, limit=200)
            return val

        ratios = []
        for radius in (0.4, 0.2, 0.1, 0.05):
            gamma_bar = 1.0 / radius**2  # threshold 1 at this transmit SNR
            ratios.append(ev(gamma_bar) / exact_cdf(radius))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))  # approaching from above
        assert ratios[-1] == pytest.approx(1.0, abs=0.015)


class TestRateBounds:
    def test_jensen_ordering_matrix(self):
        for n in (8, 16, 32):
            for db in (0.0, 10.0, 20.0, 30.0):
                b = rate_bounds(figure_config(n, 2.0, 3.0, 4.0), 10 ** (db / 10))
                assert 0.0 <= b.lower <= b.upper

    @pytest.mark.slow
    def test_monte_carlo_rate_inside_bounds(self):
        for n in (8, 16, 32, 64, 128):
            for db in (0.0, 10.0, 20.0, 30.0):
                cfg = figure_config(n, 2.0, 3.0, 4.0, gamma_bar_db=db)
                b = rate_bounds(cfg, cfg.gamma_bar)
                est = empirical_rate(simulate_snr_samples(cfg, SimPlan(trials=10**5, seed=n)))
                slack = (est.ci_high - est.ci_low) / 2.0
                assert b.lower - slack <= est.value <= b.upper + slack, (n, db)


class TestAsymptoticRate:
    def test_rayleigh_unit_value(self):
        cfg = SystemConfig(n_elements=4, eta=1.0, v=LinkParams(1, 1),
                           g=LinkParams(1, 1), h=LinkParams(1, 1))
        expected = math.log2(1.0 + (math.pi / 4.0) ** 2)
        assert asymptotic_rate(cfg, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.6932, abs=1e-4)

    def test_zero_snr(self):
        cfg = unit_config(4, 1.0, 1.0, 2.0)
        assert asymptotic_rate(cfg, 0.0) == 0.0

    def test_bounds_converge_under_power_scaling(self):
        # transmit SNR reduced by N^2 with the energy-scaled SNR held fixed
        energy_snr = 10.0 ** 6
        limits = asymptotic_rate(unit_config(4, 2.0, 3.0, 4.0), energy_snr)
        n = 1024
        gamma_bar_db = 10.0 * math.log10(energy_snr / n**2)
        b = rate_bounds(unit_config(n, 2.0, 3.0, 4.0), 10 ** (gamma_bar_db / 10))
        assert b.upper - b.lower < 0.05
        assert abs(b.upper - limits) < 0.05
        assert abs(b.lower - limits) < 0.05


class TestSerBound:
    def test_dominates_monte_carlo(self):
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = figure_config(16, 1.0, 1.0, 2.0, d_si=140.0, gamma_bar_db=db)
            bound = ser_upper_bound(cfg, cfg.gamma_bar)
            est = empirical_ber(simulate_snr_samples(cfg, SimPlan(trials=10**5, seed=77)),
                                1.0, 2.0)
            assert bound >= est.value, db

    def test_monotone_in_snr(self):
        vals = ser_upper_bound(figure_config(16, 1.0, 1.0, 2.0),
                               10 ** (np.linspace(-10, 40, 26) / 10))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m_v", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_matches_scalar_scan(self, m_v, n):
        for db in (0.0, 15.0, 30.0, 45.0):
            cfg = figure_config(n, m_v, 3.0, 4.0, gamma_bar_db=db)
            assert ser_upper_bound(cfg, cfg.gamma_bar) == pytest.approx(
                ser_upper_bound_scalar(cfg), rel=1e-12), db

    def test_non_finite_scan_grid_raises(self):
        # a NaN beta passes the Modulation check and poisons the objective
        cfg = replace(figure_config(16, 1.0, 3.0, 4.0), modulation=Modulation(1.0, math.nan))
        with pytest.raises(NumericalConsistencyError):
            ser_upper_bound(cfg, cfg.gamma_bar)
        with pytest.raises(ArithmeticError):
            ser_upper_bound_scalar(cfg)

    def test_zero_snr_cap(self):
        cfg = figure_config(16, 2.0, 3.0, 4.0, gamma_bar_db=-80.0)
        bound = ser_upper_bound(cfg, cfg.gamma_bar)
        assert bound <= cfg.modulation.alpha / 2.0 + 1e-9
        assert bound == pytest.approx(cfg.modulation.alpha / 2.0, rel=1e-3)


class TestAsymptoticSer:
    def test_shares_diversity_order(self):
        cfg = figure_config(16, 1.0, 1.0, 2.0)
        r_out, _ = asymptotic_outage(cfg, 10.0)
        r_ser, _ = asymptotic_ser(cfg)
        assert r_ser.g_d == r_out.g_d == 17.0

    def test_loglog_slope(self):
        cfg = figure_config(16, 1.0, 1.0, 2.0)
        _, ev = asymptotic_ser(cfg)
        xs = np.linspace(35.0, 45.0, 11)
        slope = fit_loglog_slope(xs, [ev(10 ** (x / 10)) for x in xs], (35.0, 45.0))
        assert slope == pytest.approx(-17.0, rel=1e-9)

    def test_floor_beyond_float_range_is_inf(self):
        cfg = figure_config(64, 2.0, 3.0, 4.0)
        _, ser = asymptotic_ser(cfg)
        _, outage = asymptotic_outage(cfg, 10.0)
        assert ser(1.0) == math.inf and outage(1e-3) == math.inf
        assert 0.0 < ser(10.0 ** 1.5) < math.inf and 0.0 < outage(1.0) < math.inf

    def test_floor_matches_exact_single_element_ser(self):
        # exact oracle: double quadrature over the direct Rayleigh leg and
        # the exact product density; the floor constant must attach to it
        cfg = SystemConfig(n_elements=1, eta=0.9, v=LinkParams(1.0, 1.0),
                           g=LinkParams(1.0, 1.0), h=LinkParams(2.0, 0.5),
                           modulation=Modulation(1.0, 2.0))
        result, ev = asymptotic_ser(cfg)
        assert result.g_d == pytest.approx(2.0)
        pp = ProductPdfParams(g=cfg.g, h=cfg.h, eta=0.9)
        from irslink.specfun import gaussian_q

        def exact_ser(gamma_bar):
            scale = math.sqrt(2.0 * gamma_bar)

            def inner(u):
                val, _ = quad(lambda w: product_pdf(w, pp) * gaussian_q(scale * (u + w)),
                              1e-300, np.inf, limit=200)
                return 2.0 * u * math.exp(-u * u) * val

            val, _ = quad(inner, 0, np.inf, limit=200)
            return val

        ratios = [ev(10 ** (db / 10)) / exact_ser(10 ** (db / 10)) for db in (20.0, 30.0)]
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)  # attaching
        assert ratios[1] == pytest.approx(1.0, abs=0.02)


class TestQuantizedRateBounds:
    def test_many_bits_recover_continuous(self):
        cfg = figure_config(32, 2.0, 3.0, 4.0)
        plain = rate_bounds(cfg, cfg.gamma_bar)
        q = quantized_rate_bounds(cfg, 20, cfg.gamma_bar)
        assert q.lower == pytest.approx(plain.lower, abs=1e-9)
        assert q.upper == pytest.approx(plain.upper, abs=1e-9)

    @pytest.mark.parametrize("n", [16, 64])
    def test_monotone_in_bits(self, n):
        cfg = figure_config(n, 2.0, 3.0, 4.0)
        bounds = [quantized_rate_bounds(cfg, b, cfg.gamma_bar) for b in (1, 2, 3, 4, 6, 8)]
        for a, b in zip(bounds, bounds[1:]):
            assert b.lower >= a.lower - 1e-12
            assert b.upper >= a.upper - 1e-12
        for b in bounds:
            assert b.lower <= b.upper

    def test_brackets_quantized_monte_carlo(self):
        cfg = figure_config(32, 2.0, 3.0, 4.0)
        q = quantized_rate_bounds(cfg, 2, cfg.gamma_bar)
        est = empirical_rate(simulate_snr_samples(
            cfg, SimPlan(trials=2 * 10**5, seed=9, quantization_bits=(2,)))[1])
        slack = (est.ci_high - est.ci_low) / 2.0
        assert q.lower - slack <= est.value <= q.upper + slack

    def test_large_n_variant_close_at_scale(self):
        # the plain-normal moments of the real part, truncation ignored, give
        # nearly the same bounds once the element count is large
        cfg = figure_config(128, 2.0, 3.0, 4.0)
        exact = quantized_rate_bounds(cfg, 2, cfg.gamma_bar)
        qs = quantized_w_stats(cfg, 2)
        mu, s2 = qs.real_part.mu_bar, qs.real_part.sigma2_bar
        plain = [1.0, mu, mu**2 + s2, mu**3 + 3.0 * mu * s2,
                 mu**4 + 6.0 * mu**2 * s2 + 3.0 * s2**2]
        approx = metrics._moment_bounds(cfg, plain, qs.imag_part.sigma2_bar, cfg.gamma_bar)
        assert approx.lower == pytest.approx(exact.lower, abs=5e-3)
        assert approx.upper == pytest.approx(exact.upper, abs=5e-3)
