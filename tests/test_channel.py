import math

import numpy as np
import pytest
from scipy.special import gammaln

from irslink.channel import LinkParams, Modulation, SystemConfig, nakagami_sample, path_loss
from irslink.config import validate_config
from oracles import rician_to_nakagami


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 42.0, 3.5) == pytest.approx(10 ** -4.2, rel=1e-12)

    def test_zero_exponent_constant(self):
        vals = {path_loss(d, 42.0, 0.0) for d in (1.0, 10.0, 250.0)}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(10 ** -4.2, rel=1e-12)

    def test_hundred_meters(self):
        # 42 dB offset plus 10 * 3.5 * log10(100) = 70 dB of distance loss
        assert path_loss(100.0, 42.0, 3.5) == pytest.approx(10 ** -11.2, rel=1e-12)

    def test_strictly_decreasing(self):
        ds = np.linspace(1.0, 500.0, 50)
        gains = [path_loss(d, 42.0, 3.5) for d in ds]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 42.0, 3.5)


class TestLinkParams:
    def test_kappa_is_derived(self):
        lp = LinkParams(m=2.5, zeta=0.3)
        assert lp.kappa == pytest.approx(2.5 * 0.3, rel=0)

    def test_shape_floor(self):
        with pytest.raises(ValueError):
            LinkParams(m=0.4, zeta=1.0)
        with pytest.raises(ValueError):
            LinkParams(m=1.0, zeta=0.0)


class TestNakagamiSampling:
    def test_rayleigh_power(self):
        rng = np.random.default_rng(11)
        x = nakagami_sample(1.0, 1.0, rng, 10**6)
        assert np.mean(x**2) == pytest.approx(1.0, rel=0.01)

    def test_one_sided_gaussian_mean(self):
        rng = np.random.default_rng(12)
        # m = 1/2 is |N(0, kappa)| with kappa = m*zeta = 1: mean sqrt(2/pi)
        x = nakagami_sample(0.5, 2.0, rng, 10**6)
        assert np.mean(x) == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.005)
        assert np.mean(x**2) == pytest.approx(1.0, rel=0.01)

    def test_mean_matches_moment_formula(self):
        m, zeta = 3.0, 2.0 / 3.0  # kappa = 2
        rng = np.random.default_rng(13)
        x = nakagami_sample(m, zeta, rng, 10**6)
        expected = math.exp(gammaln(m + 0.5) - gammaln(m)) * math.sqrt(m * zeta / m)
        assert np.mean(x) == pytest.approx(expected, rel=0.005)

    @pytest.mark.parametrize("m,zeta", [(0.5, 1.0), (1.0, 0.25), (2.0, 3.0), (4.5, 0.1)])
    def test_second_moment_within_one_percent(self, m, zeta):
        rng = np.random.default_rng(int(m * 10 + zeta * 100))
        x = nakagami_sample(m, zeta, rng, 10**6)
        assert np.mean(x**2) == pytest.approx(m * zeta, rel=0.01)

    def test_seed_determinism(self):
        a = nakagami_sample(2.0, 1.0, np.random.default_rng(7), 1000)
        b = nakagami_sample(2.0, 1.0, np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a, b)

    def test_rejects_small_shape(self):
        with pytest.raises(ValueError):
            nakagami_sample(0.3, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("zeta,size", [(0.7, None), (0.7, 1000)])
    def test_stream_equals_gamma_with_scale(self, zeta, size):
        # a standard Gamma draw scaled by zeta is how numpy forms gamma(m, zeta)
        drawn = nakagami_sample(2.5, zeta, np.random.default_rng(3), size)
        np.testing.assert_array_equal(
            drawn, np.sqrt(np.random.default_rng(3).gamma(2.5, zeta, size)))


class TestRicianMap:
    def test_rayleigh_limit(self):
        assert rician_to_nakagami(0.0) == pytest.approx(1.0, rel=0)

    def test_known_points(self):
        assert rician_to_nakagami(2.0) == pytest.approx(1.8, rel=1e-14)
        assert rician_to_nakagami(4.0) == pytest.approx(25.0 / 9.0, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rician_to_nakagami(-0.1)


class TestSystemConfig:
    def test_geometry_constructor(self):
        # the default geometry: 100 m direct leg, 60 m surface legs, zeta0 -42 dB, exponent 3.5
        cfg, _ = validate_config({"n_elements": 8})
        assert (cfg.n_elements, cfg.eta) == (8, 0.9)
        assert (cfg.v.m, cfg.g.m, cfg.h.m) == (2.0, 3.0, 4.0)
        assert cfg.v.zeta == path_loss(100.0, -42.0, 3.5)
        assert cfg.h.zeta == cfg.g.zeta == path_loss(60.0, -42.0, 3.5)
        assert cfg.g.kappa == 3.0 * path_loss(60.0, -42.0, 3.5)

    def test_eta_bounds_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(n_elements=2, eta=1.2, v=LinkParams(1, 1),
                         g=LinkParams(1, 1), h=LinkParams(1, 1))

    def test_surface_needs_an_element(self):
        with pytest.raises(ValueError):
            SystemConfig(n_elements=0, eta=0.9, v=LinkParams(1, 1),
                         g=LinkParams(1, 1), h=LinkParams(1, 1))

    def test_gamma_bar_conversion(self):
        cfg = SystemConfig(n_elements=1, eta=0.5, v=LinkParams(1, 1),
                           g=LinkParams(1, 1), h=LinkParams(1, 1), gamma_bar_db=23.0)
        assert cfg.gamma_bar == pytest.approx(10 ** 2.3)

    def test_modulation_validation(self):
        with pytest.raises(ValueError):
            Modulation(alpha=0.0, beta=2.0)
