import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from irslink.channel import LinkParams, Modulation, SystemConfig, path_loss
from irslink import metrics
from irslink.cltapprox import quantized_w_stats, w_stats
from irslink.config import validate_config
from irslink.errors import ConfigError, NumericalConsistencyError
from irslink.metrics import (asymptotic_outage, asymptotic_rate, asymptotic_ser,
                             outage_probability, quantized_rate_bounds, rate_bounds,
                             ser_upper_bound)
from irslink.montecarlo import (SimPlan, empirical_ber, empirical_outage, empirical_rate,
                                simulate_snr_samples)
from irslink.snrdist import SnrCdfParams, snr_cdf
from oracles import (ProductPdfParams, fit_loglog_slope, product_pdf, ser_upper_bound_mpmath,
                     ser_upper_bound_scalar, truncated_normal_sample)


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
        cfg = figure_config(16, 2.0, 2.0, 3.0)
        assert outage_probability(cfg, 1e-14, cfg.gamma_bar) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            outage_probability(cfg, 0.0, cfg.gamma_bar)
        with pytest.raises(ValueError):
            outage_probability(cfg, 10.0, np.array([100.0, 0.0]))

    def test_gamma_bar_array_is_the_points_and_the_unit_law(self):
        cfg = figure_config(16, 2.0, 2.0, 3.0)
        gamma_bars = 10 ** (np.linspace(15.0, 30.0, 16) / 10)
        curve = outage_probability(cfg, 10.0, gamma_bars)
        assert curve.shape == (16,)
        assert list(curve) == [outage_probability(cfg, 10.0, gb) for gb in gamma_bars]
        law = SnrCdfParams.from_config(cfg)
        np.testing.assert_array_equal(curve, snr_cdf(10.0 / gamma_bars, law))

    def test_matches_model_monte_carlo_within_binomial_ci(self):
        # sampling the truncated-normal reflected-sum model directly checks
        # the closed-form evaluation machinery to estimator precision
        cfg = figure_config(16, 2.0, 2.0, 3.0, gamma_bar_db=22.0)
        p = SnrCdfParams.from_config(cfg)
        gamma_th = 10.0
        analytic = outage_probability(cfg, gamma_th, cfg.gamma_bar)
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
        gamma_th = 10.0
        analytic = outage_probability(cfg, gamma_th, cfg.gamma_bar)
        est = empirical_outage(cfg.gamma_bar * simulate_snr_samples(
            cfg, SimPlan(trials=10**6, seed=5)), gamma_th)
        assert abs(analytic - est.value) <= 0.02


class TestAsymptoticOutage:
    def test_diversity_orders(self):
        r, _ = asymptotic_outage(figure_config(16, 2.0, 2.0, 3.0), 10.0, 1.0)
        assert r.g_d == pytest.approx(34.0, rel=0)
        r, _ = asymptotic_outage(figure_config(16, 1.0, 1.0, 2.0), 10.0, 1.0)
        assert r.g_d == pytest.approx(17.0, rel=0)

    def test_rayleigh_reduction_needs_distinct_shapes(self):
        # equal reflected shapes hit the excluded Gamma pole; the rule
        # m_v + min(m)N still gives 1 + N, reported in the error path
        with pytest.raises(ConfigError):
            asymptotic_outage(unit_config(12, 1.0, 1.0, 1.0), 10.0, 1.0)

    def test_diversity_additivity(self):
        orders = [asymptotic_outage(figure_config(n, 2.0, 2.0, 3.0), 10.0, 1.0)[0].g_d
                  for n in (4, 5, 6, 7)]
        steps = np.diff(orders)
        assert np.allclose(steps, 2.0)  # min(m_g, m_h) per element

    def test_pole_condition_rejected(self):
        with pytest.raises(ConfigError):
            asymptotic_outage(unit_config(4, 1.0, 1.0, 1.25), 10.0, 1.0)

    @given(alpha=st.floats(5e-324, 1e308), beta=st.floats(5e-324, 1e308))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_floor_does_not_read_the_modulation(self, alpha, beta):
        # the SER coding gain is formed too, as a log: no modulation can make
        # the outage floor fail or move
        cfg, gamma_bars = figure_config(16, 2.0, 2.0, 3.0), [1e-3, 1.0, 1e4]
        r, floor = asymptotic_outage(cfg, 10.0, gamma_bars)
        r_mod, floor_mod = asymptotic_outage(
            replace(cfg, modulation=Modulation(alpha, beta)), 10.0, gamma_bars)
        assert (r_mod.g_d, r_mod.log_omega_op) == (r.g_d, r.log_omega_op)
        assert floor_mod.tolist() == floor.tolist()
        assert math.isfinite(r_mod.log_g_c)

    def test_leg_gains_past_the_float_range_give_finite_log_constants(self):
        # eta^2 kappa_g kappa_h = 0.81 * 6e400 overflows; its log does not
        cfg = replace(figure_config(16, 2.0, 2.0, 3.0), g=LinkParams(2.0, 1e200),
                      h=LinkParams(3.0, 1e200))
        assert cfg.g.kappa * cfg.h.kappa == math.inf
        for r, _ in (asymptotic_outage(cfg, 10.0, 1.0), asymptotic_ser(cfg, 1.0)):
            assert r.g_d == 34.0
            assert math.isfinite(r.log_omega_op) and math.isfinite(r.log_g_c)

    def test_floor_is_pure_power_law(self):
        r, floor = asymptotic_outage(figure_config(8, 2.0, 2.0, 3.0), 10.0, [200.0, 2000.0])
        assert floor[0] / floor[1] == pytest.approx(10.0 ** r.g_d, rel=1e-9)

    def test_floor_points_are_the_scalar_libm_values(self):
        # an array of gamma_bar gives each point's scalar value bit for bit:
        # exp(log Omega_op + G_d (log gamma_th - log gamma_bar)) in libm
        cfg, gamma_th = figure_config(8, 2.0, 2.0, 3.0), 10.0
        gamma_bars = np.array([0.5, 1.0, 200.0, 1e7])
        r, floor = asymptotic_outage(cfg, gamma_th, gamma_bars)
        assert isinstance(floor, np.ndarray) and floor.shape == (4,)
        expected = [math.exp(r.log_omega_op + r.g_d * (math.log(gamma_th) - math.log(gb)))
                    for gb in gamma_bars]
        assert floor.tolist() == expected
        assert [asymptotic_outage(cfg, gamma_th, float(gb))[1] for gb in gamma_bars] == expected

    def test_tangent_to_exact_single_element_distribution(self):
        # exact oracle: direct leg convolved with the exact product density
        cfg = unit_config(1, 1.0, 1.0, 2.0, eta=0.9)
        radii = (0.4, 0.2, 0.1, 0.05)
        # threshold 1 at the transmit SNR 1 / radius^2
        r, floor = asymptotic_outage(cfg, 1.0, [1.0 / radius**2 for radius in radii])
        assert r.g_d == pytest.approx(2.0)
        pp = ProductPdfParams(g=cfg.g, h=cfg.h, eta=0.9)

        def exact_cdf(radius):
            def outer(u):
                inner, _ = quad(lambda t: product_pdf(t, pp), 1e-300, radius - u, limit=200)
                return (2.0 * u * math.exp(-u * u)) * inner  # Rayleigh direct pdf
            val, _ = quad(outer, 0.0, radius, limit=200)
            return val

        ratios = [value / exact_cdf(radius) for value, radius in zip(floor, radii)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))  # approaching from above
        assert ratios[-1] == pytest.approx(1.0, abs=0.015)


class TestRateBounds:
    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.5, 7.0, 19.5, 20.0, 33.3, 1e3, 9.9e4,
                                   1e5, 3.3e7, 1e9, 1e12])
    def test_direct_moments_match_mpmath(self, m):
        # the Gamma ratio keeps its digits up to the largest checked shape,
        # where a difference of log-Gammas loses 2.4e-3
        cfg = unit_config(4, m, 2.0, 3.0)
        for j in (1, 2, 3, 4):
            with mp.workdps(50):
                ratio = mp.exp(mp.loggamma(mp.mpf(m) + mp.mpf(j) / 2) - mp.loggamma(mp.mpf(m)))
                expected = float(ratio * (mp.mpf(cfg.v.kappa) / mp.mpf(m)) ** (mp.mpf(j) / 2))
            assert metrics.direct_moment(cfg, j) == pytest.approx(expected, rel=1e-11, abs=0)

    def test_jensen_ordering_matrix(self):
        for n in (8, 16, 32):
            for db in (0.0, 10.0, 20.0, 30.0):
                b = rate_bounds(figure_config(n, 2.0, 3.0, 4.0), 10 ** (db / 10))
                assert 0.0 <= b.lower <= b.upper

    def test_points_are_the_scalar_libm_values(self):
        # an array of gamma_bar gives the Jensen formula of each point in Python
        # floats bit for bit: IEEE products and libm's log2, no SIMD loop; the
        # lower bound is gamma_bar times the gamma_bar-free E[snr]^3 / E[snr^2]
        cfg = figure_config(16, 2.0, 3.0, 4.0)
        gamma_bars = 10 ** (np.linspace(-10.0, 60.0, 29) / 10)
        e_v = [1.0] + [metrics.direct_moment(cfg, j) for j in (1, 2, 3, 4)]
        e_r = metrics._truncated_moments(w_stats(cfg))
        e_vr2 = e_v[2] + 2.0 * e_v[1] * e_r[1] + e_r[2]
        e_vr4 = sum(math.comb(4, j) * e_v[j] * e_r[4 - j] for j in range(5))
        jensen = e_vr2 * (e_vr2 * e_vr2 / e_vr4)
        lower, upper = [], []
        for gb in gamma_bars.tolist():
            lower.append(math.log2(1.0 + gb * jensen))
            upper.append(math.log2(1.0 + gb * e_vr2))
        b = rate_bounds(cfg, gamma_bars)
        assert b.lower.tolist() == lower and b.upper.tolist() == upper

    def test_bounds_past_the_product_range_are_formed_in_log_space(self):
        # gamma_bar E[snr] overflows at 3080 dB: there log2(1 + gamma_bar e)
        # is log2(gamma_bar) + log2(e), 80 dB (80 log2 10 / 10 bits) above 3000 dB
        cfg = figure_config(128, 2.0, 3.0, 4.0)
        b = rate_bounds(cfg, np.array([1e300, 1e308]))
        for side in (b.lower, b.upper):
            assert np.all(np.isfinite(side))
            assert side[1] - side[0] == pytest.approx(8.0 * math.log2(10.0), rel=1e-12)
        assert rate_bounds(cfg, 1e308).upper == b.upper[1]

    @pytest.mark.slow
    def test_monte_carlo_rate_inside_bounds(self):
        for n in (8, 16, 32, 64, 128):
            for db in (0.0, 10.0, 20.0, 30.0):
                cfg = figure_config(n, 2.0, 3.0, 4.0, gamma_bar_db=db)
                b = rate_bounds(cfg, cfg.gamma_bar)
                est = empirical_rate(cfg.gamma_bar * simulate_snr_samples(
                    cfg, SimPlan(trials=10**5, seed=n)))
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
            est = empirical_ber(cfg.gamma_bar * simulate_snr_samples(
                cfg, SimPlan(trials=10**5, seed=77)), 1.0, 2.0)
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
            # abs=0: pytest's default abs=1e-12 would void the check for bounds below it
            assert ser_upper_bound(cfg, cfg.gamma_bar) == pytest.approx(
                ser_upper_bound_scalar(cfg), rel=1e-12, abs=0.0), db

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

    @given(n=st.integers(1, 10**6), m_v=st.floats(0.5, 1000.0), m_g=st.floats(0.5, 1000.0),
           m_h=st.floats(0.5, 1000.0), eta=st.floats(0.01, 1.0),
           gamma_bar_db=st.floats(-60.0, 60.0), beta=st.floats(0.01, 10.0),
           d_sd=st.floats(1.0, 1000.0), d_si=st.floats(1.0, 1000.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_log_objective_is_concave(self, n, m_v, m_g, m_h, eta, gamma_bar_db, beta,
                                      d_sd, d_si):
        # one maximum: the second differences of L on a uniform s grid stay
        # within rounding of 0 from below
        cfg, _ = validate_config({"n_elements": n, "eta": eta, "gamma_bar_db": gamma_bar_db,
                                  "fading": {"m_v": m_v, "m_g": m_g, "m_h": m_h},
                                  "distances": {"d_sd_m": d_sd, "d_si_m": d_si},
                                  "modulation": {"beta": beta}}, "ser")
        s = np.linspace(0.0, 1.0, 1001)[1:-1]
        log_integrand = metrics._ser_log_objective(
            s, 0.5 * cfg.modulation.beta * cfg.gamma_bar, cfg, w_stats(cfg))
        assert np.all(np.isfinite(log_integrand))
        second = log_integrand[:-2] - 2.0 * log_integrand[1:-1] + log_integrand[2:]
        assert second.max() <= 1e-13 * np.abs(log_integrand).max()

    # (N, m_v, m_g, m_h, gamma_bar_db), with bounds from 0.5 down to 1e-201
    @pytest.mark.parametrize("n,m_v,m_g,m_h,db", [
        (1, 0.5, 0.5, 0.5, 0.0), (1, 2.0, 3.0, 4.0, 30.0), (1, 1000.0, 3.0, 4.0, 20.0),
        (2, 1.5, 0.5, 1.0, -10.0), (4, 1.0, 1.0, 2.0, 10.0), (4, 0.5, 10.0, 100.0, 60.0),
        (16, 2.0, 3.0, 4.0, 20.0), (16, 2.5, 3.0, 4.0, 45.0), (16, 1000.0, 3.0, 4.0, 25.0),
        (64, 0.75, 1.0, 4.0, 5.0), (64, 1000.0, 3.0, 100.0, 0.0), (256, 7.0, 1.0, 100.0, 10.0),
        (1000, 2.5, 3.0, 4.0, -5.0), (10**4, 3.0, 2.0, 2.0, -20.0),
        (10**5, 50.0, 10.0, 0.5, -45.0), (10**5, 50.0, 10.0, 0.5, -50.0),
        (10**5, 1000.0, 0.5, 4.0, -35.0), (10**6, 0.5, 0.5, 0.5, -45.0),
        (10**6, 1.0, 1.0, 1.0, -50.0), (10**6, 2.0, 3.0, 4.0, -65.0)])
    def test_matches_high_precision_maximum(self, n, m_v, m_g, m_h, db):
        pytest.importorskip("mpmath")
        cfg, _ = validate_config({"n_elements": n, "gamma_bar_db": db,
                                  "fading": {"m_v": m_v, "m_g": m_g, "m_h": m_h}}, "ser")
        reference = ser_upper_bound_mpmath(cfg)
        assert reference > 0.0
        assert ser_upper_bound(cfg, cfg.gamma_bar) == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestAsymptoticSer:
    def test_shares_diversity_order(self):
        cfg = figure_config(16, 1.0, 1.0, 2.0)
        r_out, _ = asymptotic_outage(cfg, 10.0, 1.0)
        r_ser, _ = asymptotic_ser(cfg, 1.0)
        assert r_ser.g_d == r_out.g_d == 17.0

    def test_loglog_slope(self):
        cfg = figure_config(16, 1.0, 1.0, 2.0)
        xs = np.linspace(35.0, 45.0, 11)
        _, floor = asymptotic_ser(cfg, 10 ** (xs / 10))
        slope = fit_loglog_slope(xs, floor, (35.0, 45.0))
        assert slope == pytest.approx(-17.0, rel=1e-9)

    def test_floor_beyond_float_range_is_inf(self):
        cfg = figure_config(64, 2.0, 3.0, 4.0)
        _, ser = asymptotic_ser(cfg, [1.0, 10.0 ** 1.5])
        _, outage = asymptotic_outage(cfg, 10.0, [1e-3, 1.0])
        assert ser[0] == math.inf and outage[0] == math.inf
        assert 0.0 < ser[1] < math.inf and 0.0 < outage[1] < math.inf
        # a scalar gamma_bar gives a float
        assert asymptotic_ser(cfg, 1.0)[1] == math.inf

    def test_floor_matches_exact_single_element_ser(self):
        # exact oracle: double quadrature over the direct Rayleigh leg and
        # the exact product density; the floor constant must attach to it
        cfg = SystemConfig(n_elements=1, eta=0.9, v=LinkParams(1.0, 1.0),
                           g=LinkParams(1.0, 1.0), h=LinkParams(2.0, 0.5),
                           modulation=Modulation(1.0, 2.0))
        gamma_bars = [10 ** (db / 10) for db in (20.0, 30.0)]
        result, floor = asymptotic_ser(cfg, gamma_bars)
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

        ratios = [value / exact_ser(gb) for value, gb in zip(floor, gamma_bars)]
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
        _, a, b = simulate_snr_samples(cfg, SimPlan(trials=2 * 10**5, seed=9,
                                                    quantization_bits=(2,)))
        est = empirical_rate(cfg.gamma_bar * (a * a + b * b))
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
        approx = metrics._moment_bounds(cfg, plain, qs.sigma2_imag, cfg.gamma_bar)
        assert approx.lower == pytest.approx(exact.lower, abs=5e-3)
        assert approx.upper == pytest.approx(exact.upper, abs=5e-3)
