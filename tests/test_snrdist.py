import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, ndtr

from irslink.channel import LinkParams, SystemConfig
from irslink.cli import validate_config
from irslink.cltapprox import TruncatedNormal, w_stats
from irslink.errors import NumericalConsistencyError
from irslink.montecarlo import SimPlan, simulate_snr_samples
from irslink.snrdist import SnrCdfParams, envelope_cdf, envelope_pdf, snr_cdf, snr_pdf
from oracles import (ClosedForm, ProductPdfParams, closed_envelope_pdf,
                     closed_envelope_pdf_scalar, closed_snr_cdf,
                     optimal_phases, optimal_snr, product_pdf, snr_cdf_quadrature)


def unit_config(n, m_v, m_g, m_h, eta=0.9, gamma_bar_db=0.0):
    return SystemConfig(n_elements=n, eta=eta, v=LinkParams(m_v, 1.0 / m_v),
                        g=LinkParams(m_g, 1.0 / m_g), h=LinkParams(m_h, 1.0 / m_h),
                        gamma_bar_db=gamma_bar_db)


def nakagami_pdf(x, m, kappa):
    return (2.0 * m**m * x ** (2 * m - 1) / (math.gamma(m) * kappa**m)
            * np.exp(-m * x * x / kappa))


def convolution_cdf(r, m_v, kappa_v, tn):
    """Independent oracle: P(v + W <= r) by adaptive quadrature (``epsabs=0``)
    of f_v(x) F_W(r - x) over [0, r], with F_W the truncated normal CDF from
    ``scipy.special.ndtr`` and breakpoints about the reflected mean."""
    log_c = math.log(2.0) + m_v * math.log(m_v / kappa_v) - gammaln(m_v)
    below, mass = ndtr(tn.z_bar), ndtr(-tn.z_bar)

    def integrand(x):
        cdf_w = (ndtr((r - x - tn.mu_bar) / tn.sigma_bar) - below) / mass
        return math.exp(log_c + (2.0 * m_v - 1.0) * math.log(x) - m_v * x * x / kappa_v) * cdf_w

    points = [x for x in (r - tn.mu_bar - tn.sigma_bar, r - tn.mu_bar,
                          r - tn.mu_bar + tn.sigma_bar) if 0.0 < x < r]
    return quad(integrand, 0.0, r, points=points or None, epsabs=0.0, epsrel=1e-12,
                limit=400)[0]


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
    return SnrCdfParams.from_config(unit_config(16, 1.5, 2.0, 3.0))


# The transmit SNR the PDF tests carry the law of R^2 = snr / gamma_bar to.
GAMMA_BAR_153 = 10 ** 0.3


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
            # quad's default absolute tolerance, 1.49e-8, exceeds the integral at
            # 0.6 mu_bar (1.4e-9): ask for relative accuracy alone
            oracle, _ = quad(
                lambda u: nakagami_pdf(u, params_234.m_v, params_234.kappa_v) * xi_norm
                * math.exp(-(r - u - tn.mu_bar) ** 2 / (2 * tn.sigma2_bar)),
                0, r, epsabs=0.0, epsrel=1e-12, limit=300)
            assert envelope_pdf(r, params_234) == pytest.approx(oracle, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("m_v", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_array_equals_point_by_point(self, m_v, n):
        # the closed-form reference, as arrays and with scalar cal_i
        closed = ClosedForm(SnrCdfParams.from_config(
            validate_config({"n_elements": n, "fading": {"m_v": m_v}})[0]))
        mu = closed.law.tn.mu_bar
        grid = np.concatenate([[-1.0, 0.0, mu, np.nan], np.linspace(1e-9, 3 * mu, 996)])
        np.testing.assert_array_equal(closed_envelope_pdf(grid, closed),
                                      closed_envelope_pdf_scalar(grid, closed))
        np.testing.assert_array_equal(closed_envelope_pdf(grid.reshape(4, 250), closed),
                                      closed_envelope_pdf_scalar(grid, closed).reshape(4, 250))
        assert (closed_envelope_pdf(0.5 * mu, closed)
                == closed_envelope_pdf_scalar(0.5 * mu, closed))
        assert closed_envelope_pdf(-1.0, closed) == 0.0
        # the library's density keeps the same contract
        law = closed.law
        points = np.array([envelope_pdf(r, law) for r in grid])
        assert np.isnan(points[3]) and np.all(points[:2] == 0.0) and np.all(points[4:] >= 0.0)
        np.testing.assert_array_equal(envelope_pdf(grid, law), points)
        np.testing.assert_array_equal(envelope_pdf(grid.reshape(4, 250), law),
                                      points.reshape(4, 250))
        assert isinstance(envelope_pdf(0.5 * mu, law), float)

    def test_shapes_off_the_half_integers_give_a_valid_law(self):
        for m_v in (0.75, 1.7):
            params = SnrCdfParams.from_config(unit_config(8, m_v, 1.0, 1.0))
            mu = params.tn.mu_bar
            head, _ = quad(lambda r: envelope_pdf(r, params), 0, mu, limit=300)
            tail, _ = quad(lambda r: envelope_pdf(r, params), mu, np.inf, limit=300)
            assert head + tail == pytest.approx(1.0, abs=1e-9)
            grid = np.linspace(0.0, 4.0 * mu, 400)
            cdf = envelope_cdf(grid, params)
            assert cdf[0] == 0.0 and np.all(np.diff(cdf) >= 0.0) and cdf[-1] <= 1.0
            for frac in (0.5, 1.0, 1.5):
                oracle = convolution_cdf(frac * mu, m_v, params.kappa_v, params.tn)
                assert envelope_cdf(frac * mu, params) == pytest.approx(oracle, abs=2e-6)


def _closed_against_quadrature(m_v, n, fractions):
    params = SnrCdfParams.from_config(unit_config(n, m_v, 2.0, 3.0))
    ys = np.array(fractions) * params.tn.mu_bar**2
    closed = snr_cdf(ys, params)
    reference = snr_cdf_quadrature(ys, params)
    assert closed == pytest.approx(reference, abs=1e-6, rel=1e-6)


class TestSnrCdf:

    def test_limits(self, params_234):
        assert snr_cdf(1e-12, params_234) == pytest.approx(0.0, abs=1e-9)
        big = (params_234.tn.mu_bar + 40 * params_234.tn.sigma_bar) ** 2
        assert snr_cdf(big, params_234) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_nondecreasing(self, params_234):
        mean_snr = params_234.tn.mu_bar**2
        ys = np.linspace(1e-3 * mean_snr, 4.0 * mean_snr, 1000)
        vals = snr_cdf(ys, params_234)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_closed_matches_quadrature_method(self, params_234):
        mean_snr = params_234.tn.mu_bar**2
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
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_half_integer_closed_matches_quadrature_method_above_mean(self, m_v, n):
        _closed_against_quadrature(m_v, n, [1.2, 2.0])

    def test_array_equals_per_point_calls(self, params_234, params_153):
        # the grid holds 0, the reflected mean (the piece boundary) and both sides
        for params in (params_234, params_153):
            mean_snr = params.tn.mu_bar**2
            ys = np.concatenate([np.linspace(0.0, 3.0 * mean_snr, 31), [mean_snr]])
            np.testing.assert_array_equal(snr_cdf(ys, params),
                                          [snr_cdf(y, params) for y in ys])
            np.testing.assert_array_equal(snr_cdf(ys.reshape(4, 8), params),
                                          snr_cdf(ys, params).reshape(4, 8))
        assert isinstance(snr_cdf(1.0, params_153), float)

    @pytest.mark.parametrize("m_v", [2.0, 2.5, 3.0])
    def test_single_element_is_a_valid_law(self, m_v):
        # at N=1 in the default geometry W is far from normal and xi - 1 is
        # 5.8e-3; the law still has mass 1, and the closed form (mass xi)
        # leaves [0, 1] beyond the slack on the same grid
        cfg, _ = validate_config({"n_elements": 1, "fading": {"m_v": m_v}}, "snrcdf")
        params = SnrCdfParams.from_config(cfg)
        ys = snrcdf_grid(params)
        cdf = snr_cdf(ys, params)
        assert np.all(cdf > 0.0) and np.all(np.diff(cdf) > 0.0) and cdf[-1] < 1.0
        assert snr_cdf(1e6 * ys[-1], params) == pytest.approx(1.0, abs=1e-12)
        for y in ys[::40]:
            oracle = convolution_cdf(math.sqrt(y), m_v, params.kappa_v, params.tn)
            assert snr_cdf(y, params) == pytest.approx(oracle, rel=1e-9, abs=0.0)
        with pytest.raises(NumericalConsistencyError):
            closed_snr_cdf(ys, ClosedForm(params))

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
        assert envelope_cdf(5e-324, params) == 0.0  # a node below the float range
        for frac in (0.4, 0.8, 1.0, 1.3):
            r = frac * params.tn.mu_bar
            oracle = convolution_cdf(r, 0.5, cfg.v.kappa, params.tn)
            assert envelope_cdf(r, params) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("m_v", [1e6, 1e10, 1e12])
    def test_large_shapes_tend_to_a_fixed_direct_amplitude(self, m_v):
        # at fixed kappa_v, v concentrates at E v = sqrt(kappa_v) (1 - 1/(8 m_v)
        # + 1/(128 m_v^2) + ...) with variance kappa_v / (4 m_v) + O(m_v^-2), so
        # the CDF at E v + w is F_W(w) + f_W'(w) kappa_v / (8 m_v) up to O(m_v^-2)
        p = replace(default_law(4, 2.0)[1], m_v=m_v)
        tn = p.tn
        mean_v = math.sqrt(p.kappa_v) * (1.0 - 1.0 / (8.0 * m_v) + 1.0 / (128.0 * m_v**2))
        for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
            density_w = math.exp(-0.5 * a * a) / (math.sqrt(2.0 * math.pi) * tn.sigma_bar
                                                  * ndtr(-tn.z_bar))
            expected = ((ndtr(a) - ndtr(tn.z_bar)) / ndtr(-tn.z_bar)
                        - density_w * a / tn.sigma_bar * p.kappa_v / (8.0 * m_v))
            r = mean_v + tn.mu_bar + a * tn.sigma_bar
            assert envelope_cdf(r, p) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_consistency_guard_raises(self):
        params = SnrCdfParams.from_config(unit_config(8, 1.0, 1.0, 2.0))
        object.__setattr__(params, "kappa_v", -0.3)  # poison the parameter pack
        with pytest.raises((NumericalConsistencyError, ValueError)):
            snr_cdf(np.array([1.0]), params)


def default_law(n, m_v, **fading):
    cfg, _ = validate_config({"n_elements": n, "fading": {"m_v": m_v, **fading}})
    return cfg, SnrCdfParams.from_config(cfg)


def snrcdf_grid(params):
    """The y = snr / gamma_bar points of the ``snrcdf`` curve of ``cfg``."""
    mean_db = 20 * math.log10(envelope_scale(params))
    return 10 ** (np.linspace(mean_db - 12.0, mean_db + 6.0, 121) / 10)


def envelope_scale(params):
    """A scale of R: the reflected mean plus the RMS direct amplitude."""
    return params.tn.mu_bar + math.sqrt(params.kappa_v)


class TestLawAgainstClosedForm:

    @pytest.mark.parametrize("m_v", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n,m_g,m_h", [(16, 3.0, 4.0), (64, 3.0, 4.0), (16, 3.0, 3.0),
                                           (64, 3.0, 3.0), (64, 1.0, 2.0)])
    def test_equals_the_closed_form_where_the_models_coincide(self, m_v, n, m_g, m_h):
        # where xi - 1 is below the float resolution the closed form is the
        # same law; it takes the difference of two tails of order one, so it
        # carries an absolute error of some 1e-17 next to the law's 1e-12 relative
        _, params = default_law(n, m_v, m_g=m_g, m_h=m_h)
        assert params.tn.xi - 1.0 < 1e-15
        ys = snrcdf_grid(params)
        closed = closed_snr_cdf(ys, ClosedForm(params))
        body = (closed >= 1e-6) & (closed <= 1.0 - 1e-6)
        assert body.sum() >= 10
        np.testing.assert_allclose(snr_cdf(ys, params)[body], closed[body], rtol=1e-12,
                                   atol=1e-16)

    @pytest.mark.parametrize("m_v,gamma_bar_db,expected", [
        (2.5, 42.0, "2.22405406677061e-92"),
        (3.0, 21.0, "1.49004524665817e-68"),
    ])
    def test_deep_lower_tail_equals_mpmath(self, m_v, gamma_bar_db, expected):
        # outage at a 10 dB threshold, N=64, deep below the reflected mean: the
        # closed form reads 3.58e-92 (the normal's mass below w = 0) and
        # 1.49004529e-68 (cancellation) here
        mp = pytest.importorskip("mpmath")
        _, p = default_law(64, m_v)
        y = 10 ** ((10.0 - gamma_bar_db) / 10)
        with mp.workdps(30):
            m, kappa, mu, sigma, r = (mp.mpf(v) for v in (p.m_v, p.kappa_v, p.tn.mu_bar,
                                                          p.tn.sigma_bar, math.sqrt(y)))
            c = 2 * (m / kappa) ** m / mp.gamma(m)
            below = mp.ncdf(-mu / sigma)
            value = mp.quad(lambda x: c * x ** (2 * m - 1) * mp.exp(-m * x * x / kappa)
                            * (mp.ncdf((r - x - mu) / sigma) - below),
                            mp.linspace(0, r, 101)) / mp.ncdf(mu / sigma)
        assert float(value) == pytest.approx(float(expected), rel=1e-12)
        assert snr_cdf(y, p) == pytest.approx(float(value), rel=1e-9, abs=0.0)


_SHAPES = [round(0.5 + 0.2 * k, 1) for k in range(13)] + [3.0]
_LAW_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


class TestLawProperties:

    @given(n=st.sampled_from([1, 2, 4, 16]), m_v=st.sampled_from(_SHAPES))
    @_LAW_SETTINGS
    def test_cdf_is_monotone_with_mass_one(self, n, m_v):
        _, params = default_law(n, m_v)
        r = np.linspace(0.0, 4.0 * envelope_scale(params), 500)
        cdf = envelope_cdf(r, params)
        assert cdf[0] == 0.0 and np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert envelope_cdf(1e3 * envelope_scale(params), params) == pytest.approx(1.0,
                                                                                  abs=1e-12)

    @given(n=st.sampled_from([1, 2, 4]), m_v=st.sampled_from(_SHAPES),
           frac=st.floats(0.05, 2.5))
    @_LAW_SETTINGS
    def test_equals_adaptive_quadrature(self, n, m_v, frac):
        _, params = default_law(n, m_v)
        r = frac * envelope_scale(params)
        oracle = convolution_cdf(r, m_v, params.kappa_v, params.tn)
        assert envelope_cdf(r, params) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @given(n=st.sampled_from([1, 2, 4, 16]), m_v=st.sampled_from(_SHAPES),
           frac=st.floats(0.05, 2.5))
    @_LAW_SETTINGS
    def test_density_integrates_to_the_cdf(self, n, m_v, frac):
        _, params = default_law(n, m_v)
        r = frac * envelope_scale(params)
        assert snr_cdf_quadrature(r * r, params) == pytest.approx(envelope_cdf(r, params),
                                                                  rel=1e-9, abs=1e-15)


class TestSnrPdf:

    # the SNR at transmit SNR gb has CDF snr_cdf(snr / gb) and density
    # snr_pdf(snr / gb) / gb
    def test_finite_difference_consistency(self, params_153):
        gb = GAMMA_BAR_153
        mean_snr = gb * params_153.tn.mu_bar**2
        for frac in (0.5, 0.9, 1.2):
            y = frac * mean_snr
            h = 1e-5 * y
            deriv = (snr_cdf((y + h) / gb, params_153)
                     - snr_cdf((y - h) / gb, params_153)) / (2 * h)
            assert snr_pdf(y / gb, params_153) / gb == pytest.approx(deriv, rel=1e-4)

    def test_normalizes(self, params_153):
        gb = GAMMA_BAR_153
        mean_snr = gb * params_153.tn.mu_bar**2
        val, _ = quad(lambda y: snr_pdf(y / gb, params_153) / gb, 1e-12, mean_snr, limit=400)
        tail, _ = quad(lambda y: snr_pdf(y / gb, params_153) / gb, mean_snr, np.inf, limit=400)
        assert val + tail == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self, params_153):
        mean_snr = params_153.tn.mu_bar**2
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
