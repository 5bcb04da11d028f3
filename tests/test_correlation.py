import functools
import math
from dataclasses import replace

import numpy as np
import pytest

import irslink.montecarlo as montecarlo
from irslink.channel import LinkParams, SystemConfig, nakagami_sample, uniform_phase
from irslink.correlation import (AngleSpread, CorrelationConfig, _hermitian_sqrt, _kron_right,
                                 _scheme_snr_chunk, build_correlation, corr_matrix_azimuth,
                                 corr_matrix_elevation, simulate_scheme_rates)
from irslink.errors import NumericalConsistencyError
from irslink.montecarlo import SimPlan, chunk_rng
from oracles import (CHUNK_EDGE_OFFSETS, PHASOR_ERROR, chunk_counts, chunk_output,
                     float32_trig_bound, nakagami_reference, optimal_snr, phase_reference)


def correlated_snr(v_amp: float, phi_v: float, g_vec: np.ndarray, h_vec: np.ndarray,
                   roots: tuple, scheme: int,
                   eta: np.ndarray, gamma_bar: float) -> float:
    """Received SNR of one realization under the chosen phase-control scheme.

    The per-realization oracle, written from the scheme definitions:
    ``g_vec`` / ``h_vec`` are i.i.d. complex draws; correlation enters
    through the factor roots ``((arrival_az, arrival_el), (departure_az,
    departure_el))`` of ``build_correlation``.  Scheme 2 cancels the full
    correlated phases; scheme 1 only the phases of the uncorrelated draws.
    """
    if g_vec.shape != h_vec.shape:
        raise ValueError("channel vectors must have equal length")
    arrival, departure = roots
    g_t = g_vec @ np.kron(*departure)    # row convention: g~^T = g^T R_D^(1/2)
    h_t = np.kron(*arrival) @ h_vec
    if scheme == 2:
        theta = phi_v - (np.angle(g_t) + np.angle(h_t))
    elif scheme == 1:
        theta = phi_v - (np.angle(g_vec) + np.angle(h_vec))
    else:
        raise ValueError("scheme must be 1 or 2")
    reflected = np.sum(g_t * eta * np.exp(1j * theta) * h_t)
    return float(gamma_bar * np.abs(v_amp * np.exp(1j * phi_v) + reflected) ** 2)


def spread(mean_az=0.6, std_az=0.1, mean_el=0.9, std_el=0.08):
    return AngleSpread(mean_az=mean_az, std_az=std_az, mean_el=mean_el, std_el=std_el)


def small_corr(n_az=4, n_el=4, d_az=0.5, d_el=0.5):
    return CorrelationConfig(n_az=n_az, n_el=n_el, d_az=d_az, d_el=d_el,
                             aoa=spread(), aod=spread(mean_az=-0.4, mean_el=1.1))


class TestFactorMatrices:
    def test_unit_diagonal(self):
        cfg = small_corr()
        for mat in (corr_matrix_elevation(cfg, cfg.aoa), corr_matrix_azimuth(cfg, cfg.aoa)):
            np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-14)

    def test_hermitian_by_construction(self):
        cfg = small_corr()
        for mat in (corr_matrix_elevation(cfg, cfg.aod), corr_matrix_azimuth(cfg, cfg.aod)):
            np.testing.assert_allclose(mat, mat.conj().T, atol=0.0)

    def test_offdiagonal_decay_with_spacing(self):
        entries = []
        for d_el in (0.5, 2.0, 8.0, 32.0):
            cfg = small_corr(d_el=d_el)
            mat = corr_matrix_elevation(cfg, cfg.aoa)
            entries.append(abs(mat[0, 1]))
        assert all(b < a for a, b in zip(entries, entries[1:]))
        assert entries[-1] < 1e-6

    def test_elevation_entries_match_direct_evaluation(self):
        cfg = small_corr(d_el=0.5)
        psi, delta = math.pi / 4, 0.1
        sp = AngleSpread(mean_az=0.0, std_az=0.0, mean_el=psi, std_el=delta)
        mat = corr_matrix_elevation(cfg, sp)
        for x in range(4):
            for y in range(4):
                c = 2 * math.pi * 0.5 * (y - x)
                expected = (np.exp(1j * c * math.cos(psi))
                            * math.exp(-0.5 * (delta * c) ** 2 * math.sin(psi) ** 2))
                assert mat[x, y] == pytest.approx(expected, rel=1e-12)

    def test_azimuth_entries_match_direct_evaluation(self):
        cfg = small_corr(d_az=0.5)
        sp = cfg.aoa
        mat = corr_matrix_azimuth(cfg, sp)
        for r in range(4):
            for t in range(4):
                u = 2 * math.pi * 0.5 * (t - r)
                a1 = u * math.sin(sp.mean_el)
                a2 = sp.std_el * u * math.cos(sp.mean_el)
                a3 = (a2 * sp.std_az * math.sin(sp.mean_az)) ** 2 + 1.0
                expected = (a3 ** -0.5
                            * math.exp(-(a2**2 * math.cos(sp.mean_az) ** 2
                                         + (a1 * sp.std_az) ** 2 * math.sin(sp.mean_az) ** 2)
                                       / (2 * a3))
                            * np.exp(1j * a1 * math.cos(sp.mean_az) / a3))
                assert mat[r, t] == pytest.approx(expected, rel=1e-12)

    def test_zero_spread_gives_pure_phase(self):
        cfg = small_corr()
        sp = AngleSpread(mean_az=0.7, std_az=0.0, mean_el=0.9, std_el=0.0)
        for mat in (corr_matrix_elevation(cfg, sp), corr_matrix_azimuth(cfg, sp)):
            np.testing.assert_allclose(np.abs(mat), 1.0, atol=1e-12)


class TestBuildCorrelation:
    def test_kronecker_shape(self):
        cfg = small_corr(n_az=5, n_el=3)
        for az, el in build_correlation(cfg):
            assert az.shape == (5, 5) and el.shape == (3, 3)
            assert np.kron(az, el).shape == (15, 15)

    def test_sqrt_reconstruction(self):
        cfg = small_corr(n_az=5, n_el=3)
        for spread, side in zip((cfg.aoa, cfg.aod), build_correlation(cfg)):
            r = np.kron(corr_matrix_azimuth(cfg, spread), corr_matrix_elevation(cfg, spread))
            root = np.kron(*side)
            np.testing.assert_allclose(root, root.conj().T, atol=1e-14)
            err = np.linalg.norm(root @ root - r) / np.linalg.norm(r)
            assert err < 1e-10

    @pytest.mark.parametrize("factor", [
        [[1.0, math.nan], [math.nan, 1.0]],
        [[1.0, math.inf], [math.inf, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1
    ])
    def test_factor_without_a_root_is_a_numerical_error(self, factor):
        with pytest.raises(NumericalConsistencyError):
            _hermitian_sqrt(np.array(factor, dtype=complex))

    def test_spread_beyond_the_float_range_is_a_numerical_error(self):
        # (std_el * u)^2 overflows, which leaves NaN in the azimuth factor
        cfg = replace(small_corr(), aoa=spread(std_el=1e306))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(corr_matrix_azimuth(cfg, cfg.aoa)))
        with pytest.raises(NumericalConsistencyError):
            build_correlation(cfg)

    # square, rectangular (50 -> 10 x 5, 96 -> 12 x 8), two-wide (122 -> 61 x 2)
    # and one-wide (127 -> 127 x 1) tilings
    @pytest.mark.parametrize("n", [16, 36, 64, 100, 144, 50, 96, 122, 127])
    def test_factored_leg_equals_full_root_product(self, n):
        corr = CorrelationConfig.square_surface(n, 1.0, 0.1, spread(), spread(-0.4))
        rng = np.random.default_rng(n)
        # one row; 300 rows, which split grids of 12 or more on the azimuth
        # axis into slabs; 1000 rows, which leave a partial last slab on every
        # grid at least two wide but 4 x 4
        for rows in (1, 300, 1000):
            x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
            for az, el in build_correlation(corr):
                for p, q in ((az, el), (az.T, el.T)):
                    full = x @ np.kron(p, q)
                    np.testing.assert_allclose(_kron_right(x.copy(), p, q), full,
                                               rtol=1e-12, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("n", [16, 50, 96, 122, 144])
    def test_chunk_products_stay_within_the_cap(self, n, monkeypatch):
        # every product a chunk makes on a grid at least two wide stays at or
        # below 2**15 multiply-adds, where OpenBLAS keeps it on the calling
        # thread, in about a + b calls
        sizes = []

        def matmul(a, b, **kwargs):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            calls.append(math.prod(a.shape[:-2]))
            return real_matmul(a, b, **kwargs)

        calls, real_matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", matmul)
        (n_az, n_el), count = CorrelationConfig.tiling(n), montecarlo._chunk_size(n)
        p, q = np.eye(n_az, dtype=complex), np.eye(n_el, dtype=complex)
        _kron_right(np.ones((count, n), dtype=complex), p, q)
        assert max(sizes) <= 1 << 15
        slabs = -(-count // max(1, (1 << 15) // n_az**2))
        assert sum(calls) == n_az + n_el * slabs < 2 * count

    def test_square_surface_factorization(self):
        cfg = CorrelationConfig.square_surface(36, 1.0, 0.1, spread(), spread())
        assert (cfg.n_az, cfg.n_el) == (6, 6)
        assert cfg.d_az == pytest.approx((1.0 / 6) / 0.1)
        cfg = CorrelationConfig.square_surface(50, 1.0, 0.1, spread(), spread())
        assert (cfg.n_az, cfg.n_el) == (10, 5)
        assert cfg.n_total == 50
        assert [CorrelationConfig.tiling(n) for n in (1, 2039, 999_983, 10**6)] == [
            (1, 1), (2039, 1), (999_983, 1), (1000, 1000)]


def identity_roots(n):
    eye = (np.eye(n, dtype=complex), np.eye(1, dtype=complex))
    return eye, eye


class TestCorrelatedSnr:
    def test_identity_correlation_recovers_cophased_sum(self):
        rng = np.random.default_rng(31)
        n = 9
        eta = np.full(n, 0.9)
        g = nakagami_sample(2.0, 1.0, rng, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        h = nakagami_sample(3.0, 0.5, rng, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        v_amp, phi_v = 1.3, 0.4
        roots = identity_roots(n)
        s1 = correlated_snr(v_amp, phi_v, g, h, roots, 1, eta, 2.0)
        s2 = correlated_snr(v_amp, phi_v, g, h, roots, 2, eta, 2.0)
        direct = optimal_snr(v_amp, np.abs(g), np.abs(h), eta, 2.0)
        assert s1 == pytest.approx(direct, rel=1e-12)
        assert s2 == pytest.approx(direct, rel=1e-12)

    def test_scheme_two_dominates_every_realization(self):
        cfg = small_corr()
        roots = build_correlation(cfg)
        n = cfg.n_total
        rng = np.random.default_rng(7)
        eta = np.full(n, 0.9)
        worst = 0.0
        for _ in range(2000):
            g = nakagami_sample(2.0, 1.0, rng, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            h = nakagami_sample(2.5, 1.0, rng, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            v_amp = float(nakagami_sample(1.0, 1.0, rng, 1)[0])
            phi_v = float(rng.uniform(-np.pi, np.pi))
            s1 = correlated_snr(v_amp, phi_v, g, h, roots, 1, eta, 1.0)
            s2 = correlated_snr(v_amp, phi_v, g, h, roots, 2, eta, 1.0)
            worst = max(worst, s1 - s2)
        assert worst <= 1e-9

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            correlated_snr(1.0, 0.0, np.ones(2, complex), np.ones(2, complex),
                           identity_roots(2), 3, np.ones(2), 1.0)


def unit_cfg(n, shapes=(1.8, 16.0 / 7.0, 25.0 / 9.0)):
    m_v, m_g, m_h = shapes
    return SystemConfig(n_elements=n, eta=0.9, v=LinkParams(m_v, 0.02),
                        g=LinkParams(m_g, 0.05), h=LinkParams(m_h, 0.05),
                        gamma_bar_db=10.0)


def chunk_draws(cfg, seed, index, count, trig_dtype=np.float32):
    """The draws of one scheme chunk in stream order, as the reference
    Nakagami amplitudes and uniform variates: v, then (amplitude, unit
    phasor) of each leg with the phasor evaluated in ``trig_dtype``.  The
    direct-link phase cancels, so the kernel draws none."""
    rng = chunk_rng(seed, index)
    shape = (count, cfg.n_elements)
    v = nakagami_reference(cfg.v.m, cfg.v.zeta, rng, count)

    def leg(m, zeta):
        amp = nakagami_reference(m, zeta, rng, shape)
        phase = phase_reference(np.pi, rng, shape)
        u = np.empty(shape, dtype=complex)
        u.real, u.imag = np.cos(phase, dtype=trig_dtype), np.sin(phase, dtype=trig_dtype)
        return amp, u

    return v, leg(cfg.g.m, cfg.g.zeta), leg(cfg.h.m, cfg.h.zeta)


def full_chunk_snr(cfg, roots, seed, index, count):
    """The scheme kernel as plain expressions on the whole chunk at once:
    each leg is one (count x N) complex128 array, drawn, correlated and
    turned back as the kernel does it.  The complex products stay in place
    where the kernel's are: numpy's complex multiply can round the last bit
    differently in place than into a new array."""
    rng = chunk_rng(seed, index)
    shape = (count, cfg.n_elements)
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)

    def leg(m, zeta, p, q):
        amp = nakagami_sample(m, zeta, rng, shape)
        phase = uniform_phase(math.pi, rng, shape)
        u = np.empty(shape, dtype=complex)
        np.cos(phase, out=u.real, dtype=np.float32, casting="same_kind")
        np.sin(phase, out=u.imag, dtype=np.float32, casting="same_kind")
        rows = _kron_right(u * amp, p, q)
        rows *= np.conjugate(u)
        return rows

    (arr_az, arr_el), (dep_az, dep_el) = roots
    terms = leg(cfg.g.m, cfg.g.zeta, dep_az, dep_el)
    terms *= leg(cfg.h.m, cfg.h.zeta, arr_az.T, arr_el.T)
    terms *= cfg.eta
    return np.stack([np.abs(v + terms.sum(axis=1)) ** 2, (v + np.abs(terms).sum(axis=1)) ** 2])


class TestSchemeKernel:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("offset", CHUNK_EDGE_OFFSETS)
    @pytest.mark.parametrize("n", [15, 144])
    def test_chunk_edges_join_the_full_chunk_expressions(self, n, offset, workers):
        corr = CorrelationConfig.square_surface(n, 1.0, 0.1, spread(), spread(-0.4))
        cfg, roots = unit_cfg(n), build_correlation(corr)
        size = montecarlo._chunk_size(n)
        trials = 2 * size + offset
        snr = montecarlo.map_chunks(functools.partial(_scheme_snr_chunk, cfg, roots),
                                    SimPlan(trials=trials, seed=23, workers=workers), n, (2,))
        np.testing.assert_array_equal(snr, np.concatenate(
            [full_chunk_snr(cfg, roots, 23, index, count)
             for index, count in chunk_counts(trials, size)], axis=1))

    @pytest.mark.parametrize("shapes", [(1.8, 16.0 / 7.0, 25.0 / 9.0), (2.0, 3.0, 4.0)],
                             ids=["gamma", "erlang"])
    def test_matches_the_oracle_per_realization(self, shapes):
        corr = small_corr()
        n, roots = corr.n_total, build_correlation(corr)
        cfg = unit_cfg(n, shapes)
        seed, index, count = 23, 2, 400
        snr = chunk_output(functools.partial(_scheme_snr_chunk, cfg, roots),
                           chunk_rng(seed, index), count, (2,))
        v, (a_g, u_g), (a_h, u_h) = chunk_draws(cfg, seed, index, count)
        g, h = a_g * u_g, a_h * u_h
        # the kernel turns each term back by conj(u_g) conj(u_h); rounded to
        # float32, u is unit-modulus only to about 2**-24, and the oracle
        # turns by exact unit phasors, so that gain enters through eta
        eta = cfg.eta * np.abs(u_g) * np.abs(u_h)
        phi_v = np.random.default_rng(1).uniform(-np.pi, np.pi, count)
        for scheme in (1, 2):  # the kernel's rows are at unit transmit SNR
            oracle = [correlated_snr(v[r], phi_v[r], g[r], h[r], roots, scheme, eta[r], 1.0)
                      for r in range(count)]
            np.testing.assert_allclose(snr[scheme - 1], oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [16, 144])
    def test_float32_phasors_stay_within_their_ulp_bound(self, n):
        corr = CorrelationConfig.square_surface(n, 1.0, 0.1, spread(), spread(-0.4))
        cfg, (arrival, departure) = unit_cfg(n), build_correlation(corr)
        seed, index, count = 23, 0, 300
        fast = chunk_output(functools.partial(_scheme_snr_chunk, cfg, (arrival, departure)),
                            chunk_rng(seed, index), count, (2,))
        v, (a_g, u_g), (a_h, u_h) = chunk_draws(cfg, seed, index, count, np.float64)
        dep = np.kron(*departure)
        arr = np.kron(*arrival).T
        terms = cfg.eta * ((a_g * u_g) @ dep * u_g.conj()) * ((a_h * u_h) @ arr * u_h.conj())
        exact = np.array([np.abs(v + terms.sum(axis=1)) ** 2,
                          (v + np.abs(terms).sum(axis=1)) ** 2])
        # A leg term l_n = (x @ K)_n conj(u_n), x_k = a_k u_k, is bounded by
        # A_n = (a @ |K|)_n.  Each phasor moves by at most e = sqrt(2)
        # PHASOR_ERROR, so l_n by at most e A_n (1 + e) + A_n e = e_l A_n with
        # e_l = e (2 + e), and a term eta l_g,n l_h,n by at most
        # e_l (2 + e_l) eta A_g,n A_h,n; a modulus moves no more than its term.
        reach = (cfg.eta * (a_g @ np.abs(dep)) * (a_h @ np.abs(arr))).sum(axis=1)
        e = math.sqrt(2.0) * PHASOR_ERROR
        e_l = e * (2.0 + e)
        bound = float32_trig_bound(v, reach, e_l * (2.0 + e_l))
        assert np.all(np.abs(fast - exact) <= bound)


class TestSchemeRates:
    def test_estimates_do_not_depend_on_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 512)
        corr = small_corr()
        runs = [simulate_scheme_rates(unit_cfg(corr.n_total), corr,
                                      SimPlan(trials=1800, seed=5, workers=w))
                for w in (1, 2, 3)]  # four chunks
        assert runs[0] == runs[1] == runs[2]

    def test_vectorized_dominance_and_separation(self):
        n = 64
        corr = CorrelationConfig.square_surface(n, 1.0, 0.1, spread(), spread(-0.4))
        rates = simulate_scheme_rates(unit_cfg(n), corr, SimPlan(trials=20_000, seed=11))
        # scheme 2 beats scheme 1 at 3-sigma on a dense packed surface
        gap = rates[2].value - rates[1].value
        noise = ((rates[2].ci_high - rates[2].ci_low)
                 + (rates[1].ci_high - rates[1].ci_low)) / 2
        assert gap > 1.5 * noise

    def test_gap_grows_with_packing(self):
        gaps = []
        for n in (16, 64, 144):
            corr = CorrelationConfig.square_surface(n, 1.0, 0.1, spread(), spread(-0.4))
            rates = simulate_scheme_rates(unit_cfg(n), corr,
                                          SimPlan(trials=8_000, seed=13))
            gaps.append(rates[2].value - rates[1].value)
        assert gaps[0] < gaps[-1]

    def test_grid_size_mismatch_rejected(self):
        corr = CorrelationConfig.square_surface(16, 1.0, 0.1, spread(), spread())
        with pytest.raises(ValueError):
            simulate_scheme_rates(unit_cfg(9), corr, SimPlan(trials=10, seed=1))
