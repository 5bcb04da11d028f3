import math
from dataclasses import replace

import numpy as np
import pytest

import irslink.cli as cli
import irslink.correlation as correlation
import irslink.montecarlo as montecarlo
from irslink.channel import LinkParams, SystemConfig
from irslink.cltapprox import w_mean_var, w_stats
from irslink.correlation import simulate_scheme_rates
from irslink.montecarlo import (Estimate, SimPlan, _chunk_size, _simulate_chunk,
                                chunk_rng, empirical_ber, empirical_cdf, empirical_outage,
                                empirical_rate, empirical_rate_ratio, fit_loglog_slope,
                                simulate_snr_samples)
from irslink.specfun import gaussian_q
from oracles import PHASOR_ERROR, float32_trig_bound


def unit_config(n, m_v=1.0, m_g=1.0, m_h=2.0, eta=0.9, gamma_bar_db=0.0):
    return SystemConfig(n_elements=n, eta=eta, v=LinkParams(m_v, 1.0 / m_v),
                        g=LinkParams(m_g, 1.0 / m_g), h=LinkParams(m_h, 1.0 / m_h),
                        gamma_bar_db=gamma_bar_db)


def reference_draws(cfg, plan, index, count):
    """The draws of one chunk in stream order: direct amplitudes v, products
    eta g h, and the phase errors at the one width of ``plan`` (None
    without a width)."""
    rng = chunk_rng(plan.seed, index)
    n = cfg.n_elements
    v = np.sqrt(rng.gamma(cfg.v.m, cfg.v.zeta, count))
    g = np.sqrt(rng.gamma(cfg.g.m, cfg.g.zeta, (count, n)))
    h = np.sqrt(rng.gamma(cfg.h.m, cfg.h.zeta, (count, n)))
    if not plan.quantization_bits:
        return v, g * h * cfg.eta, None
    (bits,) = plan.quantization_bits
    tau = math.pi / 2**bits
    return v, g * h * cfg.eta, rng.uniform(-tau, tau, (count, n))


def reference_chunk(cfg, plan, index, count, trig_dtype=np.float32):
    """The chunk kernel written as plain expressions, one array per term;
    the phase-error cos and sin are evaluated in ``trig_dtype``."""
    v, prod, eps = reference_draws(cfg, plan, index, count)
    if eps is None:
        return cfg.gamma_bar * (v + prod.sum(axis=1)) ** 2
    w_re = (prod * np.cos(eps, dtype=trig_dtype)).sum(axis=1)
    w_im = (prod * np.sin(eps, dtype=trig_dtype)).sum(axis=1)
    return cfg.gamma_bar * ((v + w_re) ** 2 + w_im**2)


class TestSimulation:
    @pytest.mark.parametrize("bits", [None, 1, 3])
    def test_chunk_kernel_equals_plain_expressions(self, bits):
        cfg = SystemConfig(n_elements=9, eta=0.75, v=LinkParams(1.5, 0.7),
                           g=LinkParams(2.0, 0.3), h=LinkParams(3.0, 0.2), gamma_bar_db=7.0)
        plan = SimPlan(trials=1, seed=13, quantization_bits=() if bits is None else (bits,))
        chunk = _simulate_chunk(cfg, plan, 2, 700)
        np.testing.assert_array_equal(chunk if bits is None else chunk[1],
                                      reference_chunk(cfg, plan, 2, 700))

    @pytest.mark.parametrize("bits", [1, 3])
    def test_float32_phasors_stay_within_their_ulp_bound(self, bits):
        cfg = unit_config(128, gamma_bar_db=15.0)
        plan = SimPlan(trials=1, seed=31, quantization_bits=(bits,))
        fast = _simulate_chunk(cfg, plan, 0, 2000)[1]
        exact = reference_chunk(cfg, plan, 0, 2000, trig_dtype=np.float64)
        v, prod, _ = reference_draws(cfg, plan, 0, 2000)
        # each phasor moves by at most sqrt(2) PHASOR_ERROR, so the sum
        # S = sum prod_n u_n by at most that times sum prod_n
        bound = float32_trig_bound(cfg.gamma_bar, v, prod.sum(axis=1),
                                   math.sqrt(2.0) * PHASOR_ERROR)
        assert np.all(np.abs(fast - exact) <= bound)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_draw_rows_equal_single_setting_runs(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 1024)
        cfg = unit_config(12, gamma_bar_db=5.0)
        plan = SimPlan(trials=3000, seed=17, workers=workers)  # three chunks
        widths = (3, 1, 8, 2)  # the widest interval (1 bit) is not the first
        rows = simulate_snr_samples(cfg, replace(plan, quantization_bits=widths))
        assert rows.shape == (5, 3000)
        np.testing.assert_array_equal(rows[0], simulate_snr_samples(cfg, plan))
        for row, bits in zip(rows[1:], widths):
            np.testing.assert_array_equal(
                row, simulate_snr_samples(cfg, replace(plan, quantization_bits=(bits,)))[1])

    def test_deterministic_across_worker_counts(self):
        cfg = unit_config(6)
        plans = [SimPlan(trials=30_000, seed=99, workers=w) for w in (1, 2, 4, 7)]
        runs = [simulate_snr_samples(cfg, p) for p in plans]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0], other)

    def test_seed_changes_stream(self):
        cfg = unit_config(6)
        a = simulate_snr_samples(cfg, SimPlan(trials=1000, seed=1))
        b = simulate_snr_samples(cfg, SimPlan(trials=1000, seed=2))
        assert not np.array_equal(a, b)

    def test_unquantized_identity_when_bits_absent(self):
        cfg = unit_config(5)
        base = simulate_snr_samples(cfg, SimPlan(trials=20_000, seed=4))
        again = simulate_snr_samples(cfg, SimPlan(trials=20_000, seed=4,
                                                  quantization_bits=()))
        np.testing.assert_array_equal(base, again)

    def test_quantized_path_lowers_snr(self):
        cfg = unit_config(32)
        base = simulate_snr_samples(cfg, SimPlan(trials=50_000, seed=4))
        rough = simulate_snr_samples(cfg, SimPlan(trials=50_000, seed=4,
                                                  quantization_bits=(1,)))[1]
        assert rough.mean() < base.mean()

    def test_reflected_mean_matches_truncation_model(self):
        cfg = unit_config(64)
        tn = w_stats(cfg)
        mu_w, _ = w_mean_var(tn)
        snr = simulate_snr_samples(cfg, SimPlan(trials=400_000, seed=21))
        e_v = math.exp(math.lgamma(1.5)) * math.sqrt(1.0)  # Rayleigh direct mean
        observed = np.mean(np.sqrt(snr / cfg.gamma_bar)) - e_v
        assert observed == pytest.approx(mu_w, rel=0.005)


def correlation_config(n):
    resolved = cli.validate_config({})[1]
    return cli._correlation_config(resolved, n)


# The three chunk kernels, each as (cfg, plan) -> an output compared with ==.
KERNELS = {
    "snr": lambda cfg, plan: simulate_snr_samples(cfg, replace(plan, quantization_bits=(1, 3))),
    "wdist": cli._reflected_sum_samples,
    "correlation": lambda cfg, plan: simulate_scheme_rates(
        cfg, correlation_config(cfg.n_elements), plan),
}


class TestChunkLayout:
    def test_chunk_stream_is_pinned(self):
        # SFC64 streams are stable across numpy versions; a change here
        # changes every Monte-Carlo column
        assert [int(v) for v in chunk_rng(0, 0).bit_generator.random_raw(4)] == [
            10116541783505607535, 7467812998635031247,
            16408170688587494076, 8359172907132646958]
        assert [int(v) for v in chunk_rng(12345, 7).bit_generator.random_raw(4)] == [
            8639067809840361249, 18085651635250726842,
            6269875958123251405, 7539138899335912499]

    def test_chunk_buffers_are_about_two_megabytes(self):
        for n in (1, 16, 64, 128, 144, 1024):
            assert _chunk_size(n) * n * 8 <= 2 * 2**20
            assert _chunk_size(n) * n * 8 > 2**20 or _chunk_size(n) == 256
        assert _chunk_size(4096) == 256

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_chunks_by_the_shared_size(self, monkeypatch, kernel):
        asked, drawn = [], []
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: asked.append(n) or 100)
        for module in (montecarlo, correlation):
            monkeypatch.setattr(module, "chunk_rng",
                                lambda seed, index: drawn.append(index) or chunk_rng(seed, index))
        cfg, _ = cli.validate_config({"n_elements": 16})
        KERNELS[kernel](cfg, SimPlan(trials=250, seed=3))
        assert asked == [16]
        assert sorted(drawn) == [0, 1, 2]

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_is_identical_for_any_worker_count(self, kernel):
        cfg, _ = cli.validate_config({"n_elements": 64, "gamma_bar_db": 0.0})
        trials = 3 * _chunk_size(64) + 100  # four chunks of the real size
        runs = [KERNELS[kernel](cfg, SimPlan(trials=trials, seed=29, workers=w))
                for w in (1, 2, 3)]
        for other in runs[1:]:
            if kernel == "correlation":
                assert other == runs[0]
            else:
                np.testing.assert_array_equal(other, runs[0])


class TestEstimators:
    def test_constant_sample_point_values(self):
        samples = np.full(1000, 4.0)
        out = empirical_outage(samples, 5.0)
        assert (out.value, out.ci_low, out.ci_high) == (1.0, 1.0, 1.0)
        rate = empirical_rate(samples)
        assert rate.value == pytest.approx(math.log2(5.0), rel=1e-12)
        assert rate.ci_low == rate.ci_high == rate.value
        ber = empirical_ber(samples, 1.0, 2.0)
        assert ber.value == pytest.approx(float(gaussian_q(math.sqrt(8.0))), rel=1e-12)

    def test_ber_interval_is_clipped_to_the_term_range(self):
        # one trial near 0 dB among many deep in the tail: the normal interval
        # reaches below 0
        samples = np.concatenate([[0.0], np.full(999, 1e4)])
        est = empirical_ber(samples, 1.0, 2.0)
        assert est.value == pytest.approx(0.5 / 1000, rel=1e-9)
        assert est.ci_low == 0.0
        assert est.value < est.ci_high < 1.0
        half = 1.959963984540054 * float(np.std(0.5 * (samples == 0.0), ddof=1)) / math.sqrt(1000)
        assert est.ci_high == pytest.approx(est.value + half, rel=1e-12)

    def test_rate_ratio_matches_the_delta_method_by_hand(self):
        # rates log2(1 + snr): reference 1, 2, 3, 4; paired sample 1, 1, 2, 3
        reference = np.array([1.0, 3.0, 7.0, 15.0])
        samples = np.array([1.0, 1.0, 3.0, 7.0])
        est = empirical_rate_ratio(samples, reference)
        # R = 1.75 / 2.5 = 0.7; y - R x = 0.3, -0.4, -0.1, 0.2, whose sample
        # variance is 0.3 / 3 = 0.1; se = sqrt(0.1 / 4) / 2.5
        half = 1.959963984540054 * math.sqrt(0.1 / 4) / 2.5
        assert est.value == pytest.approx(0.7, rel=1e-14)
        assert est.ci_low == pytest.approx(0.7 - half, rel=1e-12)
        assert est.ci_high == pytest.approx(0.7 + half, rel=1e-12)

    def test_rate_ratio_of_identical_rows_has_zero_width(self):
        rows = simulate_snr_samples(unit_config(8), SimPlan(trials=5000, seed=2))
        assert empirical_rate_ratio(rows, rows.copy()) == Estimate(1.0, 1.0, 1.0)

    def test_rate_ratio_rejects_unpaired_samples(self):
        with pytest.raises(ValueError):
            empirical_rate_ratio(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            empirical_rate_ratio(np.array([]), np.array([]))

    def test_outage_below_sample_minimum(self):
        samples = np.linspace(1.0, 2.0, 100)
        assert empirical_outage(samples, 0.5).value == 0.0

    def test_empty_sample_errors(self):
        empty = np.array([])
        for fn in (lambda: empirical_outage(empty, 1.0),
                   lambda: empirical_rate(empty),
                   lambda: empirical_ber(empty, 1.0, 2.0),
                   lambda: empirical_cdf(empty)):
            with pytest.raises(ValueError):
                fn()

    def test_ci_width_shrinks_with_sqrt_trials(self):
        cfg = unit_config(8)
        small = empirical_rate(simulate_snr_samples(cfg, SimPlan(trials=50_000, seed=3)))
        large = empirical_rate(simulate_snr_samples(cfg, SimPlan(trials=200_000, seed=3)))
        ratio = (small.ci_high - small.ci_low) / (large.ci_high - large.ci_low)
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_ecdf_step_function(self):
        cdf = empirical_cdf(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(cdf(np.array([0.5, 1.0, 2.5, 9.0])),
                                   [0.0, 1 / 3, 2 / 3, 1.0])


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = np.linspace(10.0, 40.0, 13)
        ys = 2.7 * (10 ** (xs / 10)) ** -5.0
        assert fit_loglog_slope(xs, ys, (10.0, 40.0)) == pytest.approx(-5.0, abs=1e-9)

    def test_window_restriction(self):
        xs = np.linspace(0.0, 40.0, 41)
        ys = np.where(xs < 20, 1e-1, 1.0) * (10 ** (xs / 10)) ** -3.0
        assert fit_loglog_slope(xs, ys, (21.0, 40.0)) == pytest.approx(-3.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 0.5], (0.0, 3.0))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 0.0, 0.5], (0.0, 4.0))


class TestPlanValidation:
    def test_plan_bounds(self):
        with pytest.raises(ValueError):
            SimPlan(trials=0)
        with pytest.raises(ValueError):
            SimPlan(trials=10, workers=0)
        with pytest.raises(ValueError):
            SimPlan(trials=10, quantization_bits=(0,))
        with pytest.raises(ValueError):
            SimPlan(trials=10, quantization_bits=(2, 0))
