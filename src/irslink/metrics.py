"""Closed-form link performance metrics.

Outage probability and its high-SNR asymptote (diversity order, array and
coding gains), Jensen rate bounds and their large-array limit under the
1/N^2 power-scaling law, the single-point upper bound on the average symbol
error rate, and the rate bounds under quantized reflection phases.

Every asymptotic constant is assembled in log space: the outage-floor
constant grows like a Gamma-function power of the element count and
overflows float64 well below the element counts of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .cltapprox import (TruncatedNormal, gamma_ratio_t, quantized_w_stats, w_mean_var,
                        w_moment, w_stats)
from .errors import ConfigError, NumericalConsistencyError
from .snrdist import SnrCdfParams, snr_cdf
from .specfun import _exp, log_gaussian_q

__all__ = [
    "AsymptoticResult",
    "RateBounds",
    "outage_probability",
    "asymptotic_outage",
    "rate_bounds",
    "asymptotic_rate",
    "ser_upper_bound",
    "asymptotic_ser",
    "quantized_rate_bounds",
]


def outage_probability(cfg: SystemConfig, gamma_th, gamma_bar):
    """P(optimized SNR <= gamma_th) at the transmit SNR(s) ``gamma_bar``, a
    float or an array: the CDF of R^2 (``snrdist.snr_cdf``) at gamma_th / gamma_bar."""
    gamma_th, gamma_bar = np.asarray(gamma_th, dtype=float), np.asarray(gamma_bar, dtype=float)
    if np.any(gamma_th <= 0) or np.any(gamma_bar <= 0):
        raise ValueError("gamma_th and gamma_bar must be positive")
    return snr_cdf(gamma_th / gamma_bar, SnrCdfParams.from_config(cfg))


@dataclass(frozen=True)
class AsymptoticResult:
    """Diversity order plus the gain constants of the high-SNR floor.

    Omega_op is kept as its natural log: it can overflow float64 for large
    element counts.
    """

    g_d: float
    log_omega_op: float
    o_c: float
    g_c: float


def _exp_or_inf(log_value: float) -> float:
    """exp of a log-space quantity; inf where it exceeds the float64 range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _log_omega_op(cfg: SystemConfig) -> tuple[float, float]:
    """(log Omega_op, G_d) for the outage floor Omega_op*(g_th/g_bar)^G_d."""
    m_g, m_h = cfg.g.m, cfg.h.m
    if m_g == m_h:
        raise ConfigError(
            "asymptotic gain constants need m_g != m_h (equal shapes hit a "
            "Gamma pole); the diversity order is still m_v + m*N -- estimate "
            "the slope via Monte-Carlo instead")
    m_a, m_b = min(m_g, m_h), max(m_g, m_h)
    if 2.0 * m_b - 2.0 * m_a - 1.0 <= 0:
        raise ConfigError(
            f"asymptotic constants undefined for m_b - m_a <= 1/2 "
            f"(got m_a={m_a}, m_b={m_b})")
    m_v, kappa_v = cfg.v.m, cfg.v.kappa
    n = cfg.n_elements
    g_d = m_v + m_a * n

    # Direct-link density coefficient near the origin.
    log_total = (math.log(2.0) + sc.gammaln(2.0 * m_v) + m_v * math.log(m_v)
                 - sc.gammaln(m_v) - m_v * math.log(kappa_v))
    # Coefficient of one element's product-amplitude transform tail; the
    # kappa product is symmetric in which leg is weaker.
    eta, kk = cfg.eta, cfg.g.kappa * cfg.h.kappa
    if not (eta * eta * kk > 0 and math.isfinite(kk)):
        raise NumericalConsistencyError("eta^2 kappa_g kappa_h leaves the float64 range")
    m_c = 0.5 * (m_a + m_b)
    log_psi = (math.log(4.0) + m_c * math.log(m_a * m_b)
               - m_c * math.log(eta * eta * kk)
               - sc.gammaln(m_a) - sc.gammaln(m_b))
    tau = 2.0 * math.sqrt(m_a * m_b / (kk * eta * eta))
    log_total += n * (0.5 * math.log(math.pi) + log_psi
                      + (m_a - m_b) * math.log(2.0 * tau)
                      + sc.gammaln(2.0 * m_a) + sc.gammaln(2.0 * m_b - 2.0 * m_a)
                      - sc.gammaln(m_b - m_a + 0.5))
    log_total -= sc.gammaln(2.0 * g_d + 1.0)
    return log_total, g_d


def asymptotic_outage(cfg: SystemConfig, gamma_th: float
                      ) -> tuple[AsymptoticResult, Callable[[float], float]]:
    """High-SNR outage floor; returns the constants and an evaluator in gamma_bar.

    The evaluator returns inf where the floor exceeds the float64 range.
    """
    if gamma_th <= 0:
        raise ValueError("gamma_th must be positive")
    log_om, g_d = _log_omega_op(cfg)
    o_c = math.exp(-math.log(gamma_th) - log_om / g_d)
    g_c = _coding_gain(cfg, log_om, g_d)
    result = AsymptoticResult(g_d=g_d, log_omega_op=log_om, o_c=o_c, g_c=g_c)

    def evaluator(gamma_bar: float) -> float:
        return _exp_or_inf(log_om + g_d * (math.log(gamma_th) - math.log(gamma_bar)))

    return result, evaluator


def _coding_gain(cfg: SystemConfig, log_om: float, g_d: float) -> float:
    alpha, beta = cfg.modulation.alpha, cfg.modulation.beta
    log_gc = math.log(beta) - (math.log(alpha) + (g_d - 1.0) * math.log(2.0)
                               + log_om + sc.gammaln(g_d + 0.5)
                               - 0.5 * math.log(math.pi)) / g_d
    return math.exp(log_gc)


def asymptotic_ser(cfg: SystemConfig
                   ) -> tuple[AsymptoticResult, Callable[[float], float]]:
    """High-SNR average-SER floor (G_c * gamma_bar)^-G_d with shared G_d.

    The evaluator returns inf where the floor exceeds the float64 range.
    """
    log_om, g_d = _log_omega_op(cfg)
    g_c = _coding_gain(cfg, log_om, g_d)
    # Array gain is threshold-specific; report it at unit threshold.
    o_c = math.exp(-log_om / g_d)
    result = AsymptoticResult(g_d=g_d, log_omega_op=log_om, o_c=o_c, g_c=g_c)
    if not 0.0 < g_c < math.inf:
        raise NumericalConsistencyError(f"coding gain {g_c} leaves the float64 range")
    log_gc = math.log(g_c)

    def evaluator(gamma_bar: float) -> float:
        return _exp_or_inf(-g_d * (log_gc + math.log(gamma_bar)))

    return result, evaluator


@dataclass(frozen=True)
class RateBounds:
    """Jensen bounds on the average rate; floats, or arrays over gamma_bar."""

    lower: float | np.ndarray
    upper: float | np.ndarray

    def __post_init__(self):
        if not np.all((0.0 <= self.lower) & (self.lower <= self.upper)):
            raise NumericalConsistencyError(
                f"rate bounds out of order: {self.lower} > {self.upper}")


# libm's log2 elementwise, for the reason specfun takes exp from libm
_libm_log2 = np.frompyfunc(math.log2, 1, 1)


def _direct_moment(cfg: SystemConfig, alpha: int) -> float:
    m, kappa = cfg.v.m, cfg.v.kappa
    return math.exp(sc.gammaln(m + alpha / 2.0) - sc.gammaln(m)) * (kappa / m) ** (alpha / 2.0)


def _truncated_moments(tn: TruncatedNormal) -> list[float]:
    """E[W^j] for j = 0..4 of the truncated normal ``tn``."""
    mu, s2 = w_mean_var(tn)
    return [1.0, mu, mu**2 + s2, w_moment(tn, 3), w_moment(tn, 4)]


def _moment_bounds(cfg: SystemConfig, e_r: list[float], s2_i: float, gamma_bar) -> RateBounds:
    """Jensen bounds log2(1 + E[snr]^3 / E[snr^2]) <= E[log2(1 + snr)] <= log2(1 + E[snr])
    for snr/gamma_bar = (v + W_R)^2 + W_I^2, from E[W_R^j] = ``e_r[j]`` (j = 0..4)
    and W_I zero-mean normal of variance ``s2_i``, all independent.  Continuous
    phases are W_R = W and s2_i = 0, which leaves the W_I terms exactly 0."""
    e_v = [1.0] + [_direct_moment(cfg, j) for j in (1, 2, 3, 4)]
    e_vr2 = e_v[2] + 2.0 * e_v[1] * e_r[1] + e_r[2]
    e_vr4 = sum(math.comb(4, j) * e_v[j] * e_r[4 - j] for j in range(5))
    gb = np.asarray(gamma_bar, dtype=float)
    mean_snr = gb * (e_vr2 + s2_i)
    mean_sq = gb * gb * (e_vr4 + 2.0 * e_vr2 * s2_i + 3.0 * s2_i**2)
    lower = np.asarray(_libm_log2(1.0 + np.float_power(mean_snr, 3) / mean_sq), dtype=float)
    upper = np.asarray(_libm_log2(1.0 + mean_snr), dtype=float)
    if not gb.ndim:
        lower, upper = float(lower), float(upper)
    return RateBounds(lower=lower, upper=upper)


def rate_bounds(cfg: SystemConfig, gamma_bar) -> RateBounds:
    """Jensen lower/upper bounds on the average achievable rate at the
    transmit SNR(s) ``gamma_bar``, a float or an array."""
    return _moment_bounds(cfg, _truncated_moments(w_stats(cfg)), 0.0, gamma_bar)


def asymptotic_rate(cfg: SystemConfig, energy_scaled_snr: float) -> float:
    """Large-array rate limit under transmit power scaled down by N^2.

    ``energy_scaled_snr`` is the element-count-free SNR gamma_bar * N^2 held
    fixed along the scaling; the limit depends only on the statistics of one
    element.
    """
    if energy_scaled_snr < 0:
        raise ValueError("energy_scaled_snr must be nonnegative")
    t = gamma_ratio_t(cfg.g.m, cfg.h.m, 0.5)
    mu_inf_sq = cfg.eta**2 * cfg.g.kappa * cfg.h.kappa * t * t / (cfg.g.m * cfg.h.m)
    return math.log2(1.0 + energy_scaled_snr * mu_inf_sq)


def _ser_log_objective(theta, beta_gb, cfg: SystemConfig, tn: TruncatedNormal):
    """Log of the single-angle integrand whose maximum gives the SER bound;
    ``theta`` and ``beta_gb`` (beta * gamma_bar) broadcast against each other."""
    m_v, kappa_v = cfg.v.m, cfg.v.kappa
    s2 = tn.sigma2_bar
    u1 = m_v / kappa_v + beta_gb / (2.0 * np.sin(theta) ** 2)
    z1 = 0.5 / s2 + beta_gb / (2.0 * np.cos(theta) ** 2)
    z2 = tn.mu_bar / (2.0 * s2)
    return (z2 * z2 / z1 - m_v * np.log(u1) - 0.5 * np.log(z1)
            + log_gaussian_q(-z2 * np.sqrt(2.0 / z1)))


def _maximize_objective(fun, params: np.ndarray, lo: float, hi: float, grid: int = 2048,
                        tol: float = 1e-10) -> np.ndarray:
    """Maximizers over [lo, hi] of ``fun(theta, p)`` for every entry p of
    ``params``: a grid scan of all entries as one (entries x grid) array, then
    rescans of each entry's best bracket [x[i-1], x[i+1]] on 64 nodes, all
    entries in one (entries x 64) array per level, until every bracket is at
    most ``tol`` wide (about 5 levels from the scan).  Returns the midpoints
    of the last brackets."""
    xs = np.linspace(lo, hi, grid)
    vals = fun(xs, params[:, None])
    if not np.all(np.isfinite(vals)):
        raise NumericalConsistencyError("SER bound objective is not finite on the scan grid")
    i = np.argmax(vals, axis=1)
    a, b = xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, grid - 1)]
    nodes, rows = np.linspace(0.0, 1.0, 64), np.arange(params.size)
    while np.any(b - a > tol):
        xs = a[:, None] + (b - a)[:, None] * nodes
        i = np.argmax(fun(xs, params[:, None]), axis=1)
        a, b = xs[rows, np.maximum(i - 1, 0)], xs[rows, np.minimum(i + 1, nodes.size - 1)]
    return 0.5 * (a + b)


def ser_upper_bound(cfg: SystemConfig, gamma_bar):
    """Single-point upper bound on the average symbol error rate at the
    transmit SNR(s) ``gamma_bar``, a float or an array.

    Bounds the exact half-axis angular integral of the SER by the peak of
    its integrand; exact at zero SNR where the bound equals alpha/2.
    """
    tn = w_stats(cfg)
    gb = np.asarray(gamma_bar, dtype=float)
    eps = 1e-9
    # the scan rejects an objective that is not finite on its grid
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta_gb = cfg.modulation.beta * gb.reshape(-1)
        theta_u = _maximize_objective(lambda theta, bg: _ser_log_objective(theta, bg, cfg, tn),
                                      beta_gb, eps, math.pi / 2.0 - eps)
    s2 = tn.sigma2_bar
    log_bound = (math.log(cfg.modulation.alpha / 2.0) + math.log(tn.xi)
                 + cfg.v.m * math.log(cfg.v.m / cfg.v.kappa)
                 - 0.5 * math.log(2.0 * s2)
                 - tn.mu_bar**2 / (2.0 * s2)
                 + _ser_log_objective(theta_u, beta_gb, cfg, tn))
    # min(exp(x), 1) as exp(min(x, 0)): equal, and it cannot overflow
    bound = _exp(np.minimum(log_bound, 0.0)).reshape(gb.shape)
    return bound if bound.ndim else float(bound)


def quantized_rate_bounds(cfg: SystemConfig, bits: int, gamma_bar) -> RateBounds:
    """Jensen rate bounds under b-bit phase quantization at the transmit
    SNR(s) ``gamma_bar``, a float or an array: W_R keeps the truncated-normal
    moments, W_I is the zero-mean normal of ``quantized_w_stats``."""
    qs = quantized_w_stats(cfg, bits)
    return _moment_bounds(cfg, _truncated_moments(qs.real_part), qs.imag_part.sigma2_bar,
                          gamma_bar)
