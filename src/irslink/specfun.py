"""Numerically robust special functions and custom Gaussian-tail integrals.

The metrics use the Gaussian tail probability ``gaussian_q`` (and its stable
log) and ``cal_i(k, x)``, the integral of t^k exp(-t^2) over [x, inf), for
the truncated-normal moments.  The rest builds the paper's closed form of the
SNR law, which the tests use as the reference for ``irslink.snrdist``:

* the upper incomplete gamma integral ``gamma_upper``,
* ``cal_j(k, z)``  = integral of t^(mt-k) exp(-Delta t^2) Gamma((k+1)/2, t^2)
  over [z, inf), parameterized by :class:`JParams`.

Every ``cal_j`` order has a closed form on z >= 0, evaluated over an array of
lower limits: odd k expands the incomplete gamma factor into a finite
exponential sum; even k with odd mt integrates by parts; even k with even mt
(half-integer m_v) splits Gamma(k/2 + 1/2, t^2) into an erfc term, reduced by
parts to Owen's T function, plus a finite exponential sum.  Negative lower
limits are rejected.  The test-suite checks each closed form against adaptive
quadrature of the defining integral (``tests/test_specfun.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

__all__ = [
    "JParams",
    "gamma_upper",
    "gaussian_q",
    "log_gaussian_q",
    "cal_i",
    "cal_j",
    "cal_j_between",
]

# libm's exp, elementwise: numpy's exp kernel depends on the host's SIMD level
# and can differ from libm in the last bit.  The closed forms below (the tests'
# reference) take exp from libm and powers from float_power, so that an array
# of limits gives each limit's scalar value bit for bit.
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _exp(x):
    return np.asarray(_libm_exp(x), dtype=float)


@dataclass(frozen=True)
class JParams:
    """Fixed parameters of the tail integral family ``cal_j``.

    ``m_tilde_v`` is the polynomial degree budget (2*m_v - 1 of the
    direct-link shape) and ``delta`` the Gaussian decay rate left after
    splitting off the incomplete-gamma factor; the total decay rate is
    ``scale = delta + 1``, which must exceed 1.
    """

    m_tilde_v: int
    delta: float

    def __post_init__(self):
        if self.m_tilde_v < 0 or self.m_tilde_v != int(self.m_tilde_v):
            raise ValueError(f"m_tilde_v must be a nonnegative integer, got {self.m_tilde_v}")
        if not self.scale > 1.0:
            raise ValueError(f"scale = delta + 1 must exceed 1, got {self.scale}")

    @property
    def scale(self) -> float:
        return self.delta + 1.0


def gamma_upper(q: float, z):
    """Upper incomplete gamma integral over [z, inf) of t^(q-1) e^-t.

    ``z`` may be an array; a float comes back for a scalar.
    """
    if q <= 0:
        raise ValueError(f"gamma_upper requires q > 0, got q={q}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError(f"gamma_upper requires z >= 0, got z={z.min()}")
    out = _gamma_tail(q, z)
    return out if out.ndim else float(out)


def _gamma_tail(q: float, z):
    # gamma_upper without the argument checks, for the closed forms
    return sc.gammaincc(q, z) * sc.gamma(q)


def gaussian_q(x, out=None):
    """Standard normal tail probability P(Z > x), written into the float64
    array ``out`` if it is given (``out`` may be ``x`` itself)."""
    if out is None:  # no out= keywords: they would double the cost of a scalar call
        return 0.5 * sc.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    sc.erfc(np.divide(x, math.sqrt(2.0), out=out), out=out)
    out *= 0.5
    return out


def log_gaussian_q(x):
    """log of ``gaussian_q``, stable far into both tails."""
    return sc.log_ndtr(-np.asarray(x, dtype=float))


def cal_i(k: int, x):
    """Gaussian-weighted monomial tail: integral of t^k e^{-t^2}, t in [x, inf).

    For x >= 0 this is half an upper incomplete gamma; for x < 0 the part
    left of the origin folds back with sign (-1)^k through the lower
    incomplete gamma, so both branches match continuously at x = 0.
    ``x`` may be an array; a float comes back for a scalar.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"cal_i requires integer k >= 0, got {k}")
    k = int(k)
    q = (k + 1) / 2.0
    x = np.asarray(x, dtype=float)
    xx = x * x
    out = np.where(x >= 0, 0.5 * _gamma_tail(q, xx),
                   0.5 * sc.gamma(q) + 0.5 * (-1.0) ** k * (sc.gammainc(q, xx) * sc.gamma(q)))
    return out if out.ndim else float(out)


def _cal_j_odd(k: int, z, p: JParams):
    # Expand Gamma((k+1)/2, t^2) as a finite exponential sum; needs
    # (k+1)/2 to be a positive integer, i.e. odd k.
    d_o = (k + 1) // 2
    d_e = (p.m_tilde_v - k + 1) / 2.0  # may be half-integer; only an exponent
    x = p.scale * z * z
    total = 0.0
    for i in range(d_o):
        total += _gamma_tail(d_e + i, x) / (math.factorial(i) * p.scale ** (d_e + i))
    return math.factorial(d_o - 1) / 2.0 * total


def _cal_j_even(k: int, z, p: JParams):
    # Integration by parts against the antiderivative of t^(mt-k) e^{-d t^2};
    # needs (mt - k + 1)/2 to be a positive integer, i.e. odd mt.
    d_e = (p.m_tilde_v - k + 1) // 2
    kp = (k + 1) / 2.0
    decay = _exp(-p.delta * z * z)
    head = _gamma_tail(kp, z * z)
    x = p.scale * z * z
    total = 0.0
    for j in range(d_e):
        boundary = np.float_power(z, 2 * j) * decay * head
        tail = _gamma_tail(kp + j, x) / p.scale ** (kp + j)
        total += (boundary - tail) / (p.delta ** (d_e - j) * math.factorial(j))
    return math.factorial(d_e - 1) / 2.0 * total


def _erfc_moment(n: int, z, p: JParams):
    """E_n(z) = integral of t^(2n) e^{-delta t^2} erfc(t) over [z, inf).

    E_0(z) = 2 sqrt(pi/delta) [Q(h)/2 - T(h, 1/sqrt(delta))] with
    h = z sqrt(2 delta) and T Owen's T function; integration by parts
    against t e^{-delta t^2} steps up from E_{j-1} to E_j.
    """
    d, s = p.delta, p.scale
    h = z * math.sqrt(2.0 * d)
    e = 2.0 * math.sqrt(math.pi / d) * (0.5 * gaussian_q(h) - sc.owens_t(h, 1.0 / math.sqrt(d)))
    edge = sc.erfc(z) * _exp(-d * z * z) / (2.0 * d)
    x = s * z * z
    for j in range(1, n + 1):
        e = (np.float_power(z, 2 * j - 1) * edge + (2 * j - 1) / (2.0 * d) * e
             - _gamma_tail(j, x) / (2.0 * d * math.sqrt(math.pi) * s ** j))
    return e


def _cal_j_erfc(k: int, z, p: JParams):
    # Even k = 2q with even mt = 2n + k (half-integer m_v):
    # Gamma(q+1/2, t^2) = Gamma(q+1/2) erfc(t)
    #                     + e^{-t^2} sum_{i<q} Gamma(q+1/2)/Gamma(i+3/2) t^(2i+1),
    # which leaves E_n(z) plus Gamma tails of t^(2n+2i+1) e^{-scale t^2}.
    q, n = k // 2, (p.m_tilde_v - k) // 2
    g = sc.gamma(q + 0.5)
    x = p.scale * z * z
    total = g * _erfc_moment(n, z, p)
    for i in range(q):
        total += (g / sc.gamma(i + 1.5) * 0.5 * _gamma_tail(n + i + 1, x)
                  / p.scale ** (n + i + 1))
    return total


def _closed_tail(k: int, p: JParams):
    """The closed form of ``cal_j(k, .)`` on z >= 0."""
    if k % 2 == 1:
        return _cal_j_odd
    return _cal_j_even if p.m_tilde_v % 2 == 1 else _cal_j_erfc


def cal_j(k: int, z, p: JParams):
    """Tail integral of t^(mt-k) e^{-delta t^2} Gamma((k+1)/2, t^2) on [z, inf).

    ``z`` may be an array of limits z >= 0; a float comes back for a scalar.
    """
    return cal_j_between(k, z, None, p)


def cal_j_between(k: int, z_lo, z_hi, p: JParams):
    """``cal_j(k, z_lo) - cal_j(k, z_hi)``, the integral over [z_lo, z_hi];
    ``z_hi=None`` leaves the tail ``cal_j(k, z_lo)``.

    ``z_lo`` and ``z_hi`` broadcast against each other.  The closed forms
    subtract two tails, so the difference keeps their absolute accuracy but
    loses relative accuracy where it is small against them.
    """
    if k < 0 or k != int(k) or k > p.m_tilde_v:
        raise ValueError(f"cal_j requires an integer k in 0..{p.m_tilde_v}, got {k}")
    k, z_lo = int(k), np.asarray(z_lo, dtype=float)
    if np.any(z_lo < 0):
        raise ValueError(f"cal_j requires lower limits z >= 0, got z={z_lo.min()}")
    tail = _closed_tail(k, p)
    # far outside the float64 range the closed forms overflow to inf or nan,
    # which the probability checks of the callers turn into errors
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = tail(k, z_lo, p)
        if z_hi is not None:
            z_hi = np.asarray(z_hi, dtype=float)
            if np.any(z_hi < z_lo):
                raise ValueError("cal_j_between requires z_lo <= z_hi")
            out = out - tail(k, z_hi, p)
    return out if np.ndim(out) else float(out)
