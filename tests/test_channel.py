import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from irslink.channel import (ERLANG_MAX_SHAPE, LinkParams, Modulation, SystemConfig,
                             gamma_power, nakagami_draw, nakagami_sample, path_loss,
                             uniform_phase)
from irslink.config import validate_config
from irslink.montecarlo import chunk_rng
from oracles import erlang_reference, nakagami_reference, rician_to_nakagami

ERLANG_SHAPES = range(1, ERLANG_MAX_SHAPE + 1)


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
            nakagami_sample(0.3, 1.0, np.random.default_rng(0), 10)

    @pytest.mark.parametrize("m", [2.5, ERLANG_MAX_SHAPE + 1])
    @pytest.mark.parametrize("zeta,size", [(0.7, (40, 3)), (0.7, 1000)])
    def test_stream_equals_gamma_with_scale(self, m, zeta, size):
        # a standard Gamma draw scaled by zeta is how numpy forms gamma(m, zeta)
        drawn = nakagami_sample(m, zeta, np.random.default_rng(3), size)
        np.testing.assert_array_equal(
            drawn, np.sqrt(np.random.default_rng(3).gamma(m, zeta, size)))

    @pytest.mark.parametrize("m,draw", [(0.5, "gamma"), (1, "erlang"), (2.0, "erlang"),
                                        (ERLANG_MAX_SHAPE, "erlang"),
                                        (ERLANG_MAX_SHAPE + 1, "gamma"), (2.5, "gamma"),
                                        (math.inf, "gamma")])
    def test_integer_shapes_up_to_the_bound_take_the_erlang_draw(self, m, draw):
        assert nakagami_draw(m) == draw

    @pytest.mark.parametrize("m", ERLANG_SHAPES)
    @pytest.mark.parametrize("size", [(2, 3), 1, 7, (3000, 7)])
    def test_erlang_stream_equals_its_unblocked_reference(self, m, size):
        # component-major: the m uniform arrays of the whole size, one after another
        drawn = nakagami_sample(m, 0.3, chunk_rng(5, 1), size)
        np.testing.assert_array_equal(drawn, nakagami_reference(m, 0.3, chunk_rng(5, 1), size))
        assert drawn.shape == np.empty(size).shape
        np.testing.assert_array_equal(gamma_power(m, chunk_rng(5, 1), size),
                                      erlang_reference(m, chunk_rng(5, 1), size))

    def test_erlang_draw_reads_m_uniforms_per_element(self):
        rng = chunk_rng(9, 0)
        nakagami_sample(3, 1.0, rng, (100, 4))
        again = chunk_rng(9, 0)
        again.random(100 * 4 * 3)
        assert rng.random() == again.random()

    @pytest.mark.parametrize("m", ERLANG_SHAPES)
    def test_erlang_power_is_gamma_distributed(self, m):
        zeta, n = 0.4, 10**6
        power = nakagami_sample(m, zeta, chunk_rng(100 + m, 0), n) ** 2
        law = stats.gamma(m, scale=zeta)
        assert stats.kstest(power, law.cdf).pvalue > 1e-3
        # within 3 standard errors: Var(sample variance) ~ (mu_4 - sigma^4) / n,
        # with the central fourth moment mu_4 = 3 m (m + 2) zeta^4 of Gamma(m, zeta)
        assert abs(power.mean() - law.mean()) <= 3.0 * math.sqrt(law.var() / n)
        spread = math.sqrt((3 * m * (m + 2) - m**2) * zeta**4 / n)
        assert abs(power.var() - law.var()) <= 3.0 * spread

    @pytest.mark.parametrize("m", ERLANG_SHAPES)
    @pytest.mark.parametrize("uniform", [0.0, 1.0 - 2.0**-53])
    def test_erlang_power_stays_finite_at_the_uniform_ends(self, m, uniform):
        class ConstantUniforms:
            def random(self, size=None, out=None):
                out = np.empty(size) if out is None else out
                out[...] = uniform
                return out

        power = nakagami_sample(m, 1.0, ConstantUniforms(), 10) ** 2
        assert np.all(np.isfinite(power))
        # 1 - u lies in (0, 1]: u = 0 gives -log 1 = 0, the largest u gives
        # the largest power, -m log 2**-53
        expected = 0.0 if uniform == 0.0 else m * 53 * math.log(2.0)
        np.testing.assert_allclose(power, expected, rtol=1e-15, atol=0)


# tau of every phase draw: pi for the correlated legs' phases, pi / 2**bits
# for the phase errors at every width validate_config accepts
PHASE_TAUS = [math.pi] + [math.pi / 2**bits for bits in range(1, 65)]


@pytest.mark.parametrize("tau", PHASE_TAUS)
def test_phase_draws_equal_numpys_uniform(tau):
    drawn = uniform_phase(tau, chunk_rng(6, 2), (500, 200))
    np.testing.assert_array_equal(drawn, chunk_rng(6, 2).uniform(-tau, tau, (500, 200)))


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
