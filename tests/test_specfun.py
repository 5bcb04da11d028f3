import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from irslink.specfun import (JParams, cal_i, cal_j, cal_j_between, gamma_upper, gaussian_q,
                             log_gaussian_q)
from oracles import cal_i_scalar


class TestGammaPair:
    def test_exponential_case(self):
        assert gamma_upper(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_half_at_zero(self):
        assert gamma_upper(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_against_quadrature(self):
        val, _ = quad(lambda t: t**1.5 * math.exp(-t), 1.3, np.inf)
        assert gamma_upper(2.5, 1.3) == pytest.approx(val, rel=1e-10)

    def test_array_argument(self):
        z = np.array([0.0, 0.4, 3.0])
        np.testing.assert_array_equal(gamma_upper(2.5, z), [gamma_upper(2.5, zi) for zi in z])
        with pytest.raises(ValueError):
            gamma_upper(2.5, np.array([1.0, -0.1]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_upper(0.0, 1.0)

    @given(q=st.floats(0.25, 50.0), z=st.floats(0.0, 200.0))
    @settings(max_examples=200, deadline=None)
    def test_partition_identity(self, q, z):
        total = gamma_upper(q, z) + gammainc(q, z) * gamma_fn(q)
        assert total == pytest.approx(float(gamma_fn(q)), rel=1e-12)


class TestGaussianQ:
    def test_symmetry_at_zero(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_lower_tail_saturates(self):
        assert gaussian_q(-30.0) == pytest.approx(1.0, abs=1e-15)

    def test_five_percent_point(self):
        # oracle: complementary-error-function quadrature
        val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 1.6449, np.inf)
        assert gaussian_q(1.6449) == pytest.approx(val, rel=1e-10)
        assert gaussian_q(1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_complement(self):
        for x in np.linspace(-4, 4, 17):
            assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8, 8, 200)
        vals = gaussian_q(xs)
        assert np.all(np.diff(vals) < 0)

    def test_log_tail(self):
        assert log_gaussian_q(10.0) == pytest.approx(math.log(gaussian_q(10.0)), rel=1e-10)
        assert np.isfinite(log_gaussian_q(60.0))


class TestCalI:
    def test_half_gaussian(self):
        assert cal_i(0, 0.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_linear_weight(self):
        assert cal_i(1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_negative_start_quadrature(self):
        val, _ = quad(lambda t: t * t * math.exp(-t * t), -1.1, np.inf)
        assert cal_i(2, -1.1) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_continuous_at_origin(self, k):
        eps = 1e-12
        assert cal_i(k, -eps) == pytest.approx(cal_i(k, eps), abs=1e-10)

    def test_full_gaussian_limit(self):
        assert cal_i(0, -40.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            cal_i(-1, 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_array_equals_point_by_point(self, k):
        xs = np.concatenate([[-40.0, -1e-12, 0.0, 1e-12], np.linspace(-6.0, 6.0, 301)])
        expected = [cal_i_scalar(k, x) for x in xs]
        np.testing.assert_array_equal(cal_i(k, xs), expected)
        np.testing.assert_array_equal([cal_i(k, float(x)) for x in xs], expected)
        np.testing.assert_array_equal([cal_i(k, np.asarray(x)) for x in xs], expected)
        np.testing.assert_array_equal(cal_i(k, xs.reshape(5, 61)),
                                      np.reshape(expected, (5, 61)))
        assert isinstance(cal_i(k, -1.1), float) and isinstance(cal_i(k, 1.1), float)


def _j_quad(k, z, p, hi=np.inf):
    """``cal_j_between(k, z, hi, p)`` by quadrature of its defining integrand."""
    q = (k + 1) / 2.0
    val, _ = quad(lambda t: t ** (p.m_tilde_v - k) * math.exp(-p.delta * t * t)
                  * gamma_upper(q, t * t), z, hi, epsabs=1e-12, epsrel=1e-10, limit=300)
    return val


class TestJParams:
    def test_invariants(self):
        p = JParams(3, 2.0)
        assert p.scale == pytest.approx(3.0)
        with pytest.raises(ValueError):
            JParams(m_tilde_v=-1, delta=1.0)
        with pytest.raises(ValueError):
            JParams(m_tilde_v=1, delta=0.0)   # scale must exceed 1


class TestCalJ:
    def test_basic_quadrature_value(self):
        # k=0, m_tilde=1, delta=1: int_0^inf t e^{-t^2} Gamma(1/2, t^2) dt
        p = JParams(1, 1.0)
        expected = _j_quad(0, 0.0, p)
        assert cal_j(0, 0.0, p) == pytest.approx(expected, rel=1e-8)

    def test_even_closed_form_agrees(self):
        # even k with integer index: closed form vs quadrature to 1e-8
        s2a = 1.9  # scale = 2*sigma2*a
        p = JParams(3, s2a - 1.0)  # m_v = 2
        closed = cal_j(2, 0.7, p)
        ref = _j_quad(2, 0.7, p)
        assert closed == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("m_tilde", [0, 1, 3, 4, 5])
    @pytest.mark.parametrize("delta", [0.4, 3.0, 14.0])
    def test_closed_forms_match_quadrature(self, m_tilde, delta):
        p = JParams(m_tilde, delta)
        for k in range(m_tilde + 1):
            for z in (0.0, 0.35, 1.1):
                ref = _j_quad(k, z, p)
                val = cal_j(k, z, p)
                assert val == pytest.approx(ref, rel=2e-8, abs=1e-13), (k, z)

    def test_tail_vanishes(self):
        p = JParams(4, 2.5)
        k = p.m_tilde_v
        z = 10.0 / math.sqrt(p.delta)
        bound = (math.exp(-p.delta * z * z) * gamma_fn((k + 1) / 2.0)
                 / (2 * p.delta * z * z)) * 2.0
        assert cal_j(k, z, p) <= bound

    def test_k_exceeding_degree_rejected(self):
        p = JParams(2, 1.0)
        with pytest.raises(ValueError):
            cal_j(3, 0.0, p)

    def test_between_matches_difference(self):
        p = JParams(3, 5.0)
        for k in range(4):
            diff = cal_j(k, 0.2, p) - cal_j(k, 0.9, p)
            assert cal_j_between(k, 0.2, 0.9, p) == pytest.approx(diff, rel=1e-9)
            ref = _j_quad(k, 0.2, p, hi=0.9)
            assert cal_j_between(k, 0.2, 0.9, p) == pytest.approx(ref, rel=1e-8)

    def test_half_integer_even_k_closed_form(self):
        # m_tilde even (half-odd-integer shape): even k takes the erfc /
        # Owen's T closed form and matches the integral
        p = JParams(4, 2.0)  # m_v = 2.5
        for k in (0, 2, 4):
            assert cal_j(k, 0.5, p) == pytest.approx(_j_quad(k, 0.5, p), rel=1e-8)

    @pytest.mark.parametrize("m_tilde", [0, 1, 4, 5])
    def test_arrays_equal_elementwise_calls(self, m_tilde):
        p = JParams(m_tilde, 2.5)
        z = np.array([0.0, 0.2, 0.9, 3.0])
        for k in range(m_tilde + 1):
            np.testing.assert_array_equal(cal_j(k, z, p), [cal_j(k, zi, p) for zi in z])
            np.testing.assert_array_equal(cal_j_between(k, z, 3.5, p),
                                          [cal_j_between(k, zi, 3.5, p) for zi in z])
            # a negative lower limit has no closed form and is rejected
            with pytest.raises(ValueError):
                cal_j(k, np.array([-0.4, 0.2]), p)
            with pytest.raises(ValueError):
                cal_j_between(k, -0.4, 3.5, p)
            grid = z.reshape(2, 2)
            np.testing.assert_array_equal(cal_j_between(k, 0.1, grid + 0.1, p),
                                          [[cal_j_between(k, 0.1, zi + 0.1, p) for zi in row]
                                           for row in grid])
        assert isinstance(cal_j(0, 0.5, p), float)
        assert isinstance(cal_j_between(0, 0.5, 0.7, p), float)

    def test_between_rejects_reversed_limits(self):
        p = JParams(2, 1.0)
        with pytest.raises(ValueError):
            cal_j_between(0, np.array([0.1, 0.8]), 0.5, p)
