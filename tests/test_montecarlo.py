import functools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import beta

import irslink.cli as cli
import irslink.correlation as correlation
import irslink.montecarlo as montecarlo
from irslink.channel import ERLANG_MAX_SHAPE, LinkParams, SystemConfig, nakagami_sample
from irslink.cltapprox import w_mean_var, w_stats
from irslink.correlation import simulate_scheme_rates
from irslink.errors import NumericalConsistencyError
from irslink.montecarlo import (Estimate, SimPlan, _chunk_size, _simulate_chunk,
                                chunk_rng, empirical_ber, empirical_cdf, empirical_outage,
                                empirical_rate, empirical_rate_ratio, map_chunks,
                                reflected_sum_samples, simulate_snr_samples)
from irslink.snrdist import SnrCdfParams
from irslink.specfun import gaussian_q
from oracles import (CHUNK_EDGE_OFFSETS, PHASOR_ERROR, chunk_counts, chunk_output,
                     fit_loglog_slope, float32_trig_bound, nakagami_reference,
                     phase_reference, reflected_reference)


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
    v = nakagami_reference(cfg.v.m, cfg.v.zeta, rng, count)
    prod = reflected_reference(cfg, rng, (count, n))
    if not plan.quantization_bits:
        return v, prod, None
    (bits,) = plan.quantization_bits
    tau = math.pi / 2**bits
    return v, prod, phase_reference(tau, rng, (count, n))


def reference_chunk(cfg, plan, index, count, trig_dtype=np.float32):
    """The chunk kernel written as plain expressions, one array per term, at
    unit transmit SNR; the phase-error cos and sin are evaluated in ``trig_dtype``."""
    v, prod, eps = reference_draws(cfg, plan, index, count)
    if eps is None:
        return (v + prod.sum(axis=1)) ** 2
    w_re = (prod * np.cos(eps, dtype=trig_dtype)).sum(axis=1)
    w_im = (prod * np.sin(eps, dtype=trig_dtype)).sum(axis=1)
    return (v + w_re) ** 2 + w_im**2


class TestSimulation:
    @pytest.mark.parametrize("bits", [None, 1, 3])
    def test_chunk_kernel_equals_plain_expressions(self, bits):
        cfg = SystemConfig(n_elements=9, eta=0.75, v=LinkParams(1.5, 0.7),
                           g=LinkParams(2.0, 0.3), h=LinkParams(3.0, 0.2), gamma_bar_db=7.0)
        plan = SimPlan(trials=1, seed=13, quantization_bits=() if bits is None else (bits,))
        widths = plan.quantization_bits
        chunk = chunk_output(functools.partial(_simulate_chunk, cfg, widths), chunk_rng(13, 2),
                             700, (1 + len(widths),) if widths else ())
        np.testing.assert_array_equal(chunk if bits is None else chunk[1],
                                      reference_chunk(cfg, plan, 2, 700))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("offset", CHUNK_EDGE_OFFSETS)
    @pytest.mark.parametrize("n", [9, 128])
    def test_chunk_edges_join_the_per_chunk_expressions(self, n, offset, workers):
        cfg = unit_config(n, m_v=1.5, m_g=2.0, m_h=3.0, eta=0.75)
        trials = 2 * _chunk_size(n) + offset
        plan = SimPlan(trials=trials, seed=13, workers=workers)
        rows = simulate_snr_samples(cfg, replace(plan, quantization_bits=(1, 3)))
        chunks = chunk_counts(trials, _chunk_size(n))
        for row, bits in zip(rows, (None, 1, 3)):
            single = replace(plan, quantization_bits=() if bits is None else (bits,))
            np.testing.assert_array_equal(row, np.concatenate(
                [reference_chunk(cfg, single, index, count) for index, count in chunks]))

    @pytest.mark.parametrize("bits", [1, 3])
    def test_float32_phasors_stay_within_their_ulp_bound(self, bits):
        cfg = unit_config(128, gamma_bar_db=15.0)
        plan = SimPlan(trials=1, seed=31, quantization_bits=(bits,))
        fast = chunk_output(functools.partial(_simulate_chunk, cfg, plan.quantization_bits),
                            chunk_rng(31, 0), 2000, (2,))[1]
        exact = reference_chunk(cfg, plan, 0, 2000, trig_dtype=np.float64)
        v, prod, _ = reference_draws(cfg, plan, 0, 2000)
        # each phasor moves by at most sqrt(2) PHASOR_ERROR, so the sum
        # S = sum prod_n u_n by at most that times sum prod_n
        bound = float32_trig_bound(v, prod.sum(axis=1), math.sqrt(2.0) * PHASOR_ERROR)
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
        observed = np.mean(np.sqrt(snr)) - e_v
        assert observed == pytest.approx(mu_w, rel=0.005)

    @pytest.mark.parametrize("shapes", [(2, 3, 4), (2.5, 0.5, 1.5)], ids=["erlang", "gamma"])
    @pytest.mark.parametrize("n", [1, 16, 128])
    def test_sampler_means_match_the_exact_moments(self, shapes, n):
        # E W = N E X and E W^2 = N E X^2 + N (N - 1) (E X)^2 for the i.i.d.
        # terms X = eta g h, with E X^2 = eta^2 kappa_g kappa_h; a wrong scale
        # of the products (eta, a leg gain or a root) moves both means
        m_v, m_g, m_h = shapes
        cfg = SystemConfig(n_elements=n, eta=0.7, v=LinkParams(m_v, 0.5),
                           g=LinkParams(m_g, 0.3), h=LinkParams(m_h, 2.0))

        def amplitude_mean(leg):  # Gamma(m + 1/2) / Gamma(m) (kappa / m)^(1/2)
            log_ratio = math.lgamma(leg.m + 0.5) - math.lgamma(leg.m)
            return math.exp(log_ratio) * math.sqrt(leg.kappa / leg.m)

        e_x = cfg.eta * amplitude_mean(cfg.g) * amplitude_mean(cfg.h)
        e_w = n * e_x
        e_w2 = n * cfg.eta**2 * cfg.g.kappa * cfg.h.kappa + n * (n - 1) * e_x**2
        e_snr = cfg.v.kappa + 2.0 * amplitude_mean(cfg.v) * e_w + e_w2
        plan = SimPlan(trials=40_000, seed=17)
        for samples, exact in ((reflected_sum_samples(cfg, plan), e_w),
                               (simulate_snr_samples(cfg, plan), e_snr)):
            standard_error = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - exact) <= 4.0 * standard_error


# Bytes of one (chunk x N) float64 buffer at most, where a trial is smaller
CHUNK_BUFFER = 2**18


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

    def test_chunk_buffers_are_at_most_256_kib(self):
        # each (chunk x N) float64 buffer is the largest of at most 256 KiB, or
        # one trial where a trial alone is more
        for n in (1, 16, 64, 128, 144, 1024, 1025, 4096, 2**18, 2**18 + 1, 10**6):
            assert _chunk_size(n) * n * 8 <= max(CHUNK_BUFFER, 8 * n)
            assert (_chunk_size(n) + 1) * n * 8 > CHUNK_BUFFER
        assert _chunk_size(4096) == 8
        assert _chunk_size(10**6) == 1

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_chunks_by_the_shared_size(self, monkeypatch, kernel, workers):
        # map_chunks alone sizes and seeds the chunks: each is asked for once,
        # by (seed, index), whichever thread runs it
        asked, drawn = [], []
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: asked.append(n) or 100)
        monkeypatch.setattr(montecarlo, "chunk_rng", lambda seed, index: (
            drawn.append((seed, index)) or chunk_rng(seed, index)))
        cfg, _ = cli.validate_config({"n_elements": 16})
        plan = SimPlan(trials=250, seed=3, workers=workers)
        KERNELS[kernel](cfg, plan)
        assert asked == [16]
        assert sorted(drawn) == [(plan.seed, i) for i in range(3)]

    def test_each_chunk_runs_once_under_frequent_thread_switches(self, monkeypatch):
        # more workers than cores take chunk indices from one queue while the
        # interpreter switches threads as often as it can: a chunk taken
        # twice or never shows in the indices drawn and in the samples
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 1)
        drawn = []
        monkeypatch.setattr(montecarlo, "chunk_rng", lambda seed, index: (
            drawn.append(index) or chunk_rng(seed, index)))
        cfg = unit_config(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [simulate_snr_samples(cfg, SimPlan(trials=400, seed=8, workers=w))
                    for w in (1, 7)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn) == sorted([*range(400), *range(400)])
        np.testing.assert_array_equal(runs[1], runs[0])

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_the_caller_and_no_more_threads_than_chunks_run_the_chunks(self, monkeypatch,
                                                                      workers):
        # three chunks: each of min(workers, 3) threads, the caller among
        # them, holds one chunk at the barrier, and no other thread starts
        threads = min(workers, 3)
        barrier = threading.Barrier(threads, timeout=30)
        ran, alive = [], []

        def rng(seed, index):
            ran.append(threading.get_ident())
            alive.append(threading.active_count())
            barrier.wait()
            return chunk_rng(seed, index)

        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 100)
        monkeypatch.setattr(montecarlo, "chunk_rng", rng)
        cfg, before = unit_config(4), threading.active_count()
        samples = simulate_snr_samples(cfg, SimPlan(trials=300, seed=8, workers=workers))
        assert len(ran) == 3
        assert len(set(ran)) == threads
        assert threading.get_ident() in ran
        assert max(alive) == before + threads - 1
        monkeypatch.setattr(montecarlo, "chunk_rng", chunk_rng)
        np.testing.assert_array_equal(samples,
                                      simulate_snr_samples(cfg, SimPlan(trials=300, seed=8)))

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

    def test_one_worker_evaluates_every_chunk_on_the_calling_thread(self):
        # the one scheduling path at one worker: the caller takes every chunk
        # from the queue, no thread starts, and the samples are those of 2
        # and 3 workers
        cfg, _ = cli.validate_config({"n_elements": 64, "gamma_bar_db": 0.0})
        trials = 3 * _chunk_size(64) + 100  # four chunks of the real size
        ran, alive, before = [], [], threading.active_count()

        def kernel(rng, out):
            ran.append(threading.get_ident())
            alive.append(threading.active_count())
            _simulate_chunk(cfg, (1, 3), rng, out)

        samples = map_chunks(kernel, SimPlan(trials=trials, seed=29), 64, (3,))
        assert ran == [threading.get_ident()] * 4
        assert alive == [before] * 4
        assert threading.active_count() == before
        for workers in (2, 3):
            np.testing.assert_array_equal(
                samples, KERNELS["snr"](cfg, SimPlan(trials=trials, seed=29, workers=workers)))


def traced_peak(run) -> int:
    """Peak bytes allocated during ``run()`` beyond those held before it, as
    tracemalloc sees them (numpy reports its buffers to it), after one
    untraced call."""
    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# (kernel, N, most bytes one chunk holds at once beside its output): about 7.1
# (chunk x N) float64 buffers for correlation, 4.5 for two quantization
# widths and 2.8 for continuous phases (g's power, h's, half a buffer of
# h's raw words and numpy's cast buffer)
WORKING_SETS = [("correlation", 16, 8 * CHUNK_BUFFER), ("correlation", 64, 8 * CHUNK_BUFFER),
                ("correlation", 144, 8 * CHUNK_BUFFER), ("quantized", 16, 5 * CHUNK_BUFFER),
                ("quantized", 128, 5 * CHUNK_BUFFER), ("continuous", 16, 3.0 * CHUNK_BUFFER),
                ("continuous", 128, 3.0 * CHUNK_BUFFER)]


@pytest.mark.parametrize("kernel,n,bound", WORKING_SETS)
def test_chunk_working_set_stays_within_its_bound(kernel, n, bound):
    cfg, _ = cli.validate_config({"n_elements": n})
    if kernel == "correlation":
        roots = correlation.build_correlation(correlation_config(n))
        run, rows = functools.partial(correlation._scheme_snr_chunk, cfg, roots), (2,)
    else:
        widths = (1, 3) if kernel == "quantized" else ()
        run = functools.partial(_simulate_chunk, cfg, widths)
        rows = (1 + len(widths),) if widths else ()
    out = np.empty(rows + (_chunk_size(n),))
    assert traced_peak(lambda: run(chunk_rng(7, 0), out)) <= bound


@pytest.mark.parametrize("m", range(1, ERLANG_MAX_SHAPE + 1))
def test_erlang_draw_holds_its_power_and_one_block_of_words(m):
    # at any shape: the float64 power, one block of raw words (half a buffer)
    # and numpy's 64 KiB cast buffer, not a float64 array per component
    peak = traced_peak(lambda: nakagami_sample(m, 1.0, chunk_rng(7, m), CHUNK_BUFFER // 8))
    assert peak <= 1.8 * CHUNK_BUFFER


def test_threaded_scheme_rates_hold_one_chunk_per_worker():
    # two workers each hold one correlation chunk (at most 8 buffers, above)
    # beside the (2, trials) SNRs and their rate terms, about 4.0 MB in all
    n = 144
    cfg, _ = cli.validate_config({"n_elements": n})
    corr = correlation_config(n)
    peak = traced_peak(
        lambda: simulate_scheme_rates(cfg, corr, SimPlan(trials=20_000, seed=3, workers=2)))
    assert peak <= 4.5 * 2**20


def test_samples_are_held_once():
    # the chunks write into the one output: the peak is that output plus
    # one quantized chunk per worker, where joining separate chunk results
    # held the output twice
    cfg, _ = cli.validate_config({"n_elements": 16})
    plan = SimPlan(trials=400_000, seed=3, workers=2, quantization_bits=(1, 3))
    output = 3 * plan.trials * 8
    assert traced_peak(lambda: simulate_snr_samples(cfg, plan)) <= output + 2 * 5 * CHUNK_BUFFER


class TestEstimators:
    def test_constant_sample_point_values(self):
        samples = np.full(1000, 4.0)
        out = empirical_outage(samples, 5.0)
        assert (out.value, out.ci_high) == (1.0, 1.0)
        assert out.ci_low == pytest.approx(0.025 ** (1 / 1000), rel=1e-12)
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

    def test_ber_mean_of_terms_near_the_float_maximum_is_finite(self):
        # ten terms of alpha / 2 = 5e307 sum past the float maximum unscaled
        est = empirical_ber(np.zeros(10), 1e308, 2.0)
        assert math.isfinite(est.value)
        assert est.value == pytest.approx(5e307, rel=1e-15)
        assert est.ci_low <= est.value <= est.ci_high

    def test_interval_half_width_is_the_plain_std_where_it_does_not_underflow(self):
        rng = np.random.default_rng(11)
        for values in (rng.random(5000) * 7.0, rng.random(3000) ** 40 * 1e-90,
                       np.concatenate([np.zeros(999), [0.3]])):
            est = montecarlo._mean_estimate(values.copy())  # it spends its argument
            half = 1.959963984540054 * float(values.std(ddof=1)) / math.sqrt(values.size)
            assert (est.ci_low, est.ci_high) == (est.value - half, est.value + half)

    def test_interval_of_terms_below_the_square_range_keeps_its_width(self):
        # squares of deviations below about 1e-154 underflow: the interval of
        # these terms is that of the same terms scaled by 2**600, scaled back
        values = np.concatenate([np.zeros(998), [3e-170, 1e-170]])
        est, scaled = (montecarlo._mean_estimate(v) for v in (values, values * 2.0**600))
        assert est.ci_low < est.value < est.ci_high
        assert est.ci_high - est.value == math.ldexp(scaled.ci_high - scaled.value, -600)

    @pytest.mark.parametrize("estimator,owned", [
        (lambda s, r: empirical_rate(s), 1), (lambda s, r: empirical_ber(s, 1.0, 2.0), 1),
        (lambda s, r: empirical_ber(s, 0.5, 0.3), 1), (empirical_rate_ratio, 2)],
        ids=["rate", "ber", "ber-scaled", "rate-ratio"])
    def test_estimators_hold_one_array_per_input(self, estimator, owned):
        # the terms are formed in arrays the estimator owns, and the std is
        # taken over them in place: nothing else of the sample's size is held
        rng = np.random.default_rng(4)
        samples, reference = rng.exponential(3.0, 200_000), rng.exponential(3.0, 200_000)
        peak = traced_peak(lambda: estimator(samples, reference))
        assert peak <= owned * samples.nbytes + 4096

    def test_estimates_match_the_plain_expressions(self):
        # forming the terms in place moves no bit of an estimate
        rng = np.random.default_rng(8)
        samples, reference = rng.exponential(40.0, 30_001), rng.exponential(40.0, 30_001)

        def plain(values):
            mean = float(values.mean())
            half = 1.959963984540054 * float(values.std(ddof=1)) / math.sqrt(values.size)
            return mean - half, mean, mean + half

        rate = empirical_rate(samples)
        assert (rate.ci_low, rate.value, rate.ci_high) == plain(np.log2(1.0 + samples))
        ber = empirical_ber(samples, 0.75, 0.3)
        assert (ber.ci_low, ber.value, ber.ci_high) == plain(
            0.75 * gaussian_q(np.sqrt(0.3 * samples)))
        y, x = np.log2(1.0 + samples), np.log2(1.0 + reference)
        r = float(y.mean()) / float(x.mean())
        half = (1.959963984540054 * float((y - r * x).std(ddof=1))
                / (math.sqrt(x.size) * float(x.mean())))
        assert empirical_rate_ratio(samples, reference) == Estimate(r, r - half, r + half)

    def test_rate_ratio_matches_the_delta_method_by_hand(self):
        # rates log2(1 + snr): reference 1, 2, 3, 4; paired sample 1, 1, 2, 3
        reference = np.array([1.0, 3.0, 7.0, 15.0])
        samples = np.array([1.0, 1.0, 3.0, 7.0])
        est = empirical_rate_ratio(samples, reference)
        # the rates are formed in the estimator's own arrays
        assert samples.tolist() == [1.0, 1.0, 3.0, 7.0]
        assert reference.tolist() == [1.0, 3.0, 7.0, 15.0]
        # R = 1.75 / 2.5 = 0.7; y - R x = 0.3, -0.4, -0.1, 0.2, whose sample
        # variance is 0.3 / 3 = 0.1; se = sqrt(0.1 / 4) / 2.5
        half = 1.959963984540054 * math.sqrt(0.1 / 4) / 2.5
        assert est.value == pytest.approx(0.7, rel=1e-14)
        assert est.ci_low == pytest.approx(0.7 - half, rel=1e-12)
        assert est.ci_high == pytest.approx(0.7 + half, rel=1e-12)

    def test_rate_ratio_of_identical_rows_has_zero_width(self):
        rows = simulate_snr_samples(unit_config(8), SimPlan(trials=5000, seed=2))
        assert empirical_rate_ratio(rows, rows.copy()) == Estimate(1.0, 1.0, 1.0)

    def test_rate_ratio_of_a_zero_reference_rate_raises(self):
        # 1 + 1e-17 rounds to 1, so every reference rate term is 0
        with pytest.raises(NumericalConsistencyError, match="mean reference rate is 0"):
            empirical_rate_ratio(np.full(10, 1e-17), np.full(10, 1e-17))

    def test_rate_ratio_rejects_unpaired_samples(self):
        with pytest.raises(ValueError):
            empirical_rate_ratio(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            empirical_rate_ratio(np.array([]), np.array([]))

    def test_outage_below_sample_minimum(self):
        samples = np.linspace(1.0, 2.0, 100)
        assert empirical_outage(samples, 0.5).value == 0.0

    @pytest.mark.parametrize("n", [1, 1000, 25_000, 100_000])
    def test_outage_interval_at_no_and_every_trial_is_clopper_pearson(self, n):
        # the two-sided 95% Clopper-Pearson ends: Beta(0.975; 1, n) above 0
        # of n, Beta(0.025; n, 1) below n of n
        samples = np.linspace(1.0, 2.0, n)
        none, every = empirical_outage(samples, 0.5), empirical_outage(samples, 2.0)
        assert (none.value, none.ci_low) == (0.0, 0.0)
        assert none.ci_high == pytest.approx(beta.ppf(0.975, 1, n), rel=1e-12)
        assert (every.value, every.ci_high) == (1.0, 1.0)
        assert every.ci_low == pytest.approx(beta.ppf(0.025, n, 1), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 137, 500, 999])
    def test_outage_interval_between_is_clopper_pearson(self, k):
        # Beta(0.025; k, n-k+1) and Beta(0.975; k+1, n-k) at k of n trials
        samples = np.linspace(1.0, 2.0, 1000)
        est = empirical_outage(samples, samples[k - 1])
        assert est.value == float(k) / 1000
        assert est.ci_low == pytest.approx(beta.ppf(0.025, k, 1000 - k + 1), rel=1e-12)
        assert est.ci_high == pytest.approx(beta.ppf(0.975, k + 1, 1000 - k), rel=1e-12)

    @pytest.mark.parametrize("n", [25_000, 100_000])
    def test_outage_interval_ends_rise_with_the_count(self, n):
        # one more trial below the threshold never lowers either end
        samples = np.arange(1.0, n + 1.0)
        ests = [empirical_outage(samples, k + 0.5) for k in range(6)]
        assert [e.value for e in ests] == [k / n for k in range(6)]
        for prev, est in zip(ests, ests[1:]):
            assert prev.ci_low < est.ci_low and prev.ci_high < est.ci_high
        for est in ests:
            assert est.ci_low <= est.value <= est.ci_high

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_outage_interval_contains_the_proportion(self, n):
        samples = np.arange(1.0, n + 1.0)
        for k in range(n + 1):
            est = empirical_outage(samples, k + 0.5)
            assert 0.0 <= est.ci_low <= k / n == est.value <= est.ci_high <= 1.0
            assert est.ci_low < est.ci_high

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


class TestUnitTransmitSnr:
    """Samplers and laws describe snr / gamma_bar: two links that differ only in
    gamma_bar_db give the same bits."""

    @pytest.fixture
    def links(self):
        cfg, _ = cli.validate_config({"n_elements": 16})
        return cfg, replace(cfg, gamma_bar_db=37.0)

    @pytest.mark.parametrize("widths", [(), (1, 3)])
    def test_snr_samples(self, links, widths):
        plan = SimPlan(trials=3000, seed=8, workers=2, quantization_bits=widths)
        first, second = (simulate_snr_samples(cfg, plan) for cfg in links)
        assert first.tobytes() == second.tobytes()

    def test_reflected_sums(self, links):
        first, second = (cli._reflected_sum_samples(cfg, SimPlan(trials=3000, seed=8))
                         for cfg in links)
        assert first.tobytes() == second.tobytes()

    def test_correlation_scheme_rows(self, links):
        roots = correlation.build_correlation(correlation_config(16))
        first, second = (chunk_output(functools.partial(correlation._scheme_snr_chunk, cfg, roots),
                                      chunk_rng(8, 1), 700, (2,))
                         for cfg in links)
        assert first.tobytes() == second.tobytes()

    def test_snr_law(self, links):
        assert SnrCdfParams.from_config(links[0]) == SnrCdfParams.from_config(links[1])


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
