"""Closed-form link performance metrics.

Outage probability and its high-SNR floor, Jensen rate bounds and their
large-array limit under the 1/N^2 power-scaling law, the single-point SER
bound (the peak of one concave log-integrand) and its high-SNR floor, and the
rate bounds under quantized reflection phases.

The floors' constants (``AsymptoticResult``) stay logs from start to finish,
and only the floor evaluator exponentiates: Omega_op grows like a
Gamma-function power of the element count and overflows float64 well below
the element counts of interest.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .cltapprox import TruncatedNormal, gamma_ratio_t, quantized_w_stats, w_moment, w_stats
# Not called here: the benchmark tracer wraps this name in this module.
from .cltapprox import w_mean_var  # noqa: F401
from .errors import ConfigError, NumericalConsistencyError
from .snrdist import SnrCdfParams, snr_cdf

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
    """Diversity order G_d plus the natural logs of the high-SNR floors'
    constants, Omega_op (outage) and the coding gain G_c (SER), either of which
    can leave the float64 range where the floor itself does not."""

    g_d: float
    log_omega_op: float
    log_g_c: float


def _floor_values(log_floor, gamma_bar):
    """exp(``log_floor(log gamma_bar)``) at the transmit SNR(s) ``gamma_bar``,
    a float or an array, point by point with libm's log and exp; inf where a
    value exceeds the float64 range."""
    gb = np.asarray(gamma_bar, dtype=float)
    values = np.full(gb.shape, math.inf)
    for i, g in enumerate(gb.flat):
        with contextlib.suppress(OverflowError):
            values.flat[i] = math.exp(log_floor(math.log(g)))
    return values if values.ndim else float(values)


def _asymptote(cfg: SystemConfig) -> AsymptoticResult:
    """The constants of both high-SNR floors, G_d = m_v + m_a N, log Omega_op
    and log G_c, each formed in log space.  Raises ``ConfigError`` where they
    are undefined (m_g == m_h, or m_b - m_a <= 1/2)."""
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
    log_eta2_kk = 2.0 * math.log(cfg.eta) + math.log(cfg.g.kappa) + math.log(cfg.h.kappa)
    m_c = 0.5 * (m_a + m_b)
    log_psi = (math.log(4.0) + m_c * math.log(m_a * m_b) - m_c * log_eta2_kk
               - sc.gammaln(m_a) - sc.gammaln(m_b))
    # 2 tau = 4 sqrt(m_a m_b / (eta^2 kappa_g kappa_h))
    log_2tau = math.log(4.0) + 0.5 * (math.log(m_a * m_b) - log_eta2_kk)
    log_total += n * (0.5 * math.log(math.pi) + log_psi + (m_a - m_b) * log_2tau
                      + sc.gammaln(2.0 * m_a) + sc.gammaln(2.0 * m_b - 2.0 * m_a)
                      - sc.gammaln(m_b - m_a + 0.5))
    log_total -= sc.gammaln(2.0 * g_d + 1.0)

    alpha, beta = cfg.modulation.alpha, cfg.modulation.beta
    log_g_c = math.log(beta) - (math.log(alpha) + (g_d - 1.0) * math.log(2.0)
                                + log_total + sc.gammaln(g_d + 0.5)
                                - 0.5 * math.log(math.pi)) / g_d
    return AsymptoticResult(g_d=g_d, log_omega_op=log_total, log_g_c=log_g_c)


def asymptotic_outage(cfg: SystemConfig, gamma_th: float, gamma_bar
                      ) -> tuple[AsymptoticResult, float | np.ndarray]:
    """High-SNR outage floor Omega_op (gamma_th / gamma_bar)^G_d, with its
    constants, at the transmit SNR(s) ``gamma_bar``, a float or an array; inf
    where a value exceeds the float64 range.  Raises ``ConfigError`` where the
    constants are undefined (m_g == m_h, or m_b - m_a <= 1/2)."""
    if gamma_th <= 0:
        raise ValueError("gamma_th must be positive")
    result = _asymptote(cfg)
    log_om, g_d = result.log_omega_op, result.g_d
    return result, _floor_values(lambda log_gb: log_om + g_d * (math.log(gamma_th) - log_gb),
                                 gamma_bar)


def asymptotic_ser(cfg: SystemConfig, gamma_bar
                   ) -> tuple[AsymptoticResult, float | np.ndarray]:
    """High-SNR average-SER floor (G_c gamma_bar)^-G_d, with the outage
    floor's G_d, and its constants; inf where a value exceeds the float64 range."""
    result = _asymptote(cfg)
    g_d, log_gc = result.g_d, result.log_g_c
    return result, _floor_values(lambda log_gb: -g_d * (log_gc + log_gb), gamma_bar)


@dataclass(frozen=True)
class RateBounds:
    """Jensen bounds on the average rate; floats, or arrays over gamma_bar."""

    lower: float | np.ndarray
    upper: float | np.ndarray

    def __post_init__(self):
        if not np.all((0.0 <= self.lower) & (self.lower <= self.upper)):
            raise NumericalConsistencyError(
                f"rate bounds out of order: {self.lower} > {self.upper}")


# libm's log2 elementwise: with the cube as two IEEE products, no rate bound
# cell depends on the SIMD level of numpy's log2 or power loops
_libm_log2 = np.frompyfunc(math.log2, 1, 1)


def _direct_moment(cfg: SystemConfig, alpha: int) -> float:
    # Gamma(m + alpha/2) / Gamma(m): exp of a log-Gamma difference loses digits at large m
    m, kappa = cfg.v.m, cfg.v.kappa
    return float(sc.poch(m, alpha / 2.0)) * (kappa / m) ** (alpha / 2.0)


def _truncated_moments(tn: TruncatedNormal) -> list[float]:
    """E[W^j] for j = 0..4 of the truncated normal ``tn``."""
    return [1.0] + [w_moment(tn, j) for j in (1, 2, 3, 4)]


def _moment_bounds(cfg: SystemConfig, e_r: list[float], s2_i: float, gamma_bar) -> RateBounds:
    """Jensen bounds log2(1 + E[snr]^3 / E[snr^2]) <= E[log2(1 + snr)] <= log2(1 + E[snr])
    for snr/gamma_bar = (v + W_R)^2 + W_I^2, from E[W_R^j] = ``e_r[j]`` (j = 0..4)
    and W_I zero-mean normal of variance ``s2_i``, all independent.  Continuous
    phases are W_R = W and s2_i = 0, which leaves the W_I terms exactly 0."""
    e_v = [1.0] + [_direct_moment(cfg, j) for j in (1, 2, 3, 4)]
    e_vr2 = e_v[2] + 2.0 * e_v[1] * e_r[1] + e_r[2]
    e_vr4 = sum(math.comb(4, j) * e_v[j] * e_r[4 - j] for j in range(5))
    e_2 = e_vr2 + s2_i
    e_4 = e_vr4 + 2.0 * e_vr2 * s2_i + 3.0 * s2_i**2
    if not math.isfinite(e_4):
        raise NumericalConsistencyError(f"rate moments out of the float64 range: {e_2}, {e_4}")
    # E[snr]^3 / E[snr^2] = gamma_bar e_2 (e_2^2 / e_4), formed without gamma_bar:
    # e_2^2 <= e_4 (Cauchy-Schwarz), so it is finite wherever gamma_bar e_2 is
    jensen = e_2 * (e_2 * e_2 / e_4)
    gb = np.asarray(gamma_bar, dtype=float)
    lower = np.asarray(_libm_log2(1.0 + gb * jensen), dtype=float)
    upper = np.asarray(_libm_log2(1.0 + gb * e_2), dtype=float)
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
    t = gamma_ratio_t(cfg.g.m, cfg.h.m)
    mu_inf_sq = cfg.eta**2 * cfg.g.kappa * cfg.h.kappa * t * t / (cfg.g.m * cfg.h.m)
    return math.log2(1.0 + energy_scaled_snr * mu_inf_sq)


def _ser_log_objective(s, b, cfg: SystemConfig, tn: TruncatedNormal):
    """Log of the SER integrand at s = sin^2(theta), constants included, for
    B = ``b`` = beta gamma_bar / 2.  With A = m_v / kappa_v,
    C = 1 / (2 sigma2_bar), z = mu_bar C, t = 1 - s and D = B / C:

        L(s) = log(alpha/2) + log xi - m_v log1p(B / (A s)) - log1p(B / (C t)) / 2
               - z^2 B / (C (C t + B)) + log Phi(z sqrt(2 t / (C t + B))),

    where the fourth term is the theta form's z^2 / z1 - z^2 / C, z1 = C + B / t,
    in closed form.  The last two terms round least as -mu_bar^2 B / (t + D)
    and log Phi((mu_bar / sigma_bar) sqrt(t / (t + D))).  Each term is concave in s:
    log1p(B / (A s)), log1p(B / (C t)) and B / (C t + B) are convex, and log Phi
    is concave and increasing in an argument concave and increasing in t (z >= 0).
    So L has one maximum, interior for B > 0 (L' falls from +inf at s = 0 to
    -inf at s = 1); at B = 0, L = log(alpha/2), the zero-SNR cap."""
    a, t, d = cfg.v.m / cfg.v.kappa, 1.0 - s, 2.0 * tn.sigma2_bar * b
    td = t + d
    return (math.log(cfg.modulation.alpha) - math.log(2.0) + math.log(tn.xi)
            - cfg.v.m * np.log1p(b / (a * s)) - 0.5 * np.log1p(d / t)
            - tn.mu_bar**2 * b / td + sc.log_ndtr(-tn.z_bar * np.sqrt(t / td)))


def _maximize_objective(fun, params: np.ndarray, lo: float, hi: float,
                        tol: float = 1e-10) -> np.ndarray:
    """Maximizers over (lo, hi) of ``fun(x, p)``, concave in x, for every entry
    p of ``params``.  Each level scans every entry's bracket on 64 nodes, all
    entries in one (entries x 64) array, and keeps [x[i-1], x[i+1]] around the
    best node x[i], which holds a concave function's maximizer; 7 levels take
    [lo, hi] below ``tol``.  ``lo`` and ``hi`` may evaluate to -inf, any other
    node must be finite.  Returns the midpoints of the last brackets."""
    a, b = np.full(params.size, float(lo)), np.full(params.size, float(hi))
    nodes, rows = np.linspace(0.0, 1.0, 64), np.arange(params.size)
    while np.any(b - a > tol):
        xs = a[:, None] + (b - a)[:, None] * nodes
        vals = fun(xs, params[:, None])
        if not np.all(np.isfinite(vals[:, 1:-1])):
            raise NumericalConsistencyError("SER bound objective is not finite on a scan")
        i = np.argmax(vals, axis=1)
        a, b = xs[rows, np.maximum(i - 1, 0)], xs[rows, np.minimum(i + 1, nodes.size - 1)]
    return 0.5 * (a + b)


def ser_upper_bound(cfg: SystemConfig, gamma_bar):
    """Single-point upper bound on the average symbol error rate at the
    transmit SNR(s) ``gamma_bar``, a float or an array: the peak of the SER
    integrand, exp(max_s L(s)) of ``_ser_log_objective`` capped at 1, which
    bounds its integral over the half axis and equals alpha/2 at zero SNR."""
    tn = w_stats(cfg)
    gb = np.asarray(gamma_bar, dtype=float)
    # the ends s = 0 and s = 1 of the first scan divide by zero into L = -inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half_beta_gb = 0.5 * cfg.modulation.beta * gb.reshape(-1)
        fun = functools.partial(_ser_log_objective, cfg=cfg, tn=tn)
        log_bound = fun(_maximize_objective(fun, half_beta_gb, 0.0, 1.0), half_beta_gb)
    # min(exp(x), 1) as exp(min(x, 0)): equal, and it cannot overflow
    bound = np.exp(np.minimum(log_bound, 0.0)).reshape(gb.shape)
    return bound if bound.ndim else float(bound)


def quantized_rate_bounds(cfg: SystemConfig, bits: int, gamma_bar) -> RateBounds:
    """Jensen rate bounds under b-bit phase quantization at the transmit
    SNR(s) ``gamma_bar``, a float or an array: W_R keeps the truncated-normal
    moments, W_I is the zero-mean normal of ``quantized_w_stats``."""
    qs = quantized_w_stats(cfg, bits)
    return _moment_bounds(cfg, _truncated_moments(qs.real_part), qs.sigma2_imag, gamma_bar)
