import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from irslink.channel import (ERLANG_MAX_SHAPE, LinkParams, Modulation, SystemConfig,
                             _signed_power, nakagami_draw, nakagami_sample, path_loss,
                             uniform_phase)
from irslink.config import validate_config
from irslink.montecarlo import chunk_rng
from oracles import erlang_reference, nakagami_reference, phase_reference, rician_to_nakagami

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
        log_product, sign = _signed_power(m, chunk_rng(5, 1), size)
        assert sign == -1.0
        np.testing.assert_array_equal(-log_product, erlang_reference(m, chunk_rng(5, 1), size))

    @pytest.mark.parametrize("size", [(100, 4), 7])
    def test_erlang_draw_reads_one_block_of_words_per_component(self, size):
        # each of the m components is one block of ceil(n / 2) raw words
        rng = chunk_rng(9, 0)
        nakagami_sample(3, 1.0, rng, size)
        again = chunk_rng(9, 0)
        again.bit_generator.random_raw(3 * -(-int(np.prod(size)) // 2))
        assert rng.bit_generator.random_raw() == again.bit_generator.random_raw()

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
    @pytest.mark.parametrize("word", [0, 2**64 - 1])
    def test_erlang_power_stays_finite_at_the_extreme_words(self, m, word):
        # all-zero words give every uniform 2**-32, the largest power
        # -m log 2**-32; all-one words give 1 - 2**-32, the smallest, about
        # m 2**-32, still above 0
        log_product, sign = _signed_power(m, ExtremeWords(word), 10)
        power = sign * log_product
        assert np.all(np.isfinite(power)) and np.all(power > 0.0)
        expected = 32 * m * math.log(2.0) if word == 0 else m * 2.0**-32
        np.testing.assert_allclose(power, expected, rtol=1e-9, atol=0)
        amplitude = nakagami_sample(m, 1.0, ExtremeWords(word), 10)
        np.testing.assert_array_equal(amplitude, np.sqrt(power))


class ExtremeWords:
    """A generator whose bit generator returns one raw word again and again."""

    def __init__(self, word: int):
        self.bit_generator = self
        self.word = word

    def random_raw(self, size=None):
        return np.full(size, self.word, dtype=np.uint64)


# tau of every phase draw: pi for the correlated legs' phases, pi / 2**bits
# for the phase errors at every width validate_config accepts
PHASE_TAUS = [math.pi] + [math.pi / 2**bits for bits in range(1, 65)]


class TestUniformPhase:
    @pytest.mark.parametrize("tau", PHASE_TAUS)
    def test_phase_stream_equals_its_plain_reference(self, tau):
        for size in ((500, 201), 7):
            np.testing.assert_array_equal(uniform_phase(tau, chunk_rng(6, 2), size),
                                          phase_reference(tau, chunk_rng(6, 2), size))

    def test_a_power_of_two_in_tau_scales_every_draw_exactly(self):
        # what lets one draw at the widest interval serve every narrower width
        widest = uniform_phase(math.pi, chunk_rng(6, 3), (200, 50))
        for bits in range(1, 65):
            np.testing.assert_array_equal(
                uniform_phase(math.pi / 2**bits, chunk_rng(6, 3), (200, 50)),
                widest * 2.0**-bits)

    @pytest.mark.parametrize("tau", PHASE_TAUS)
    def test_phases_lie_strictly_inside_the_interval_at_the_extreme_words(self, tau):
        for word in (0, 2**64 - 1):
            drawn = uniform_phase(tau, ExtremeWords(word), 9)
            assert np.all(-tau < drawn) and np.all(drawn < tau)

    @pytest.mark.parametrize("bits", [0, 1])
    def test_phases_are_uniform(self, bits):
        # KS against uniform(-tau, tau), and the mean and variance within 3
        # standard errors: Var(sample variance) ~ (mu_4 - sigma^4) / n with
        # mu_4 = tau^4 / 5 and sigma^2 = tau^2 / 3; each width its own stream
        n, tau = 10**6, math.pi / 2**bits
        drawn = uniform_phase(tau, chunk_rng(40, bits), n)
        assert stats.kstest(drawn, stats.uniform(-tau, 2.0 * tau).cdf).pvalue > 1e-3
        assert abs(drawn.mean()) <= 3.0 * math.sqrt(tau**2 / 3.0 / n)
        spread = math.sqrt((tau**4 / 5.0 - tau**4 / 9.0) / n)
        assert abs(drawn.var() - tau**2 / 3.0) <= 3.0 * spread


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
