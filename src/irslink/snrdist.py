"""Distribution of the phase-optimized received SNR per unit transmit SNR.

Co-phasing every reflected element with the direct channel turns the
received envelope into R = v + W, the direct amplitude plus the truncated
normal reflected sum.  The SNR is gamma_bar * R^2; gamma_bar only scales it,
so the laws here are of R and of R^2 = snr / gamma_bar.  This module holds:

* the co-phasing rule,
* the closed-form envelope PDF of R (piecewise around the reflected mean),
* the piecewise CDF of R and of R^2 assembled from ``cal_i`` / ``cal_j``, one
  array evaluation per piece and order, with no numerical integration,
* the change-of-variables PDF of R^2.

The closed-form CDF is only available when the direct-link shape is a
multiple of 1/2 (so the binomial expansion has an integer degree); other
shapes raise :class:`UnsupportedShapeError` and must be estimated by
Monte-Carlo.  The quadrature of the PDF that the tests compare the CDF
against, and the exact N = 1 product law, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .cltapprox import TruncatedNormal, w_stats
from .errors import NumericalConsistencyError, UnsupportedShapeError
from .specfun import JParams, _exp, cal_i, cal_j, cal_j_between, gamma_upper

__all__ = [
    "SnrCdfParams",
    "optimal_phases",
    "envelope_pdf",
    "envelope_cdf",
    "snr_cdf",
    "snr_pdf",
]

# Numerical slack on CDF values: clamp within it, error beyond it.
_CDF_ERROR = 1e-6


def optimal_phases(phi_v: float, phi_g, phi_h):
    """Per-element reflection phases that co-phase everything with the direct path."""
    phi_g = np.asarray(phi_g, dtype=float)
    phi_h = np.asarray(phi_h, dtype=float)
    if phi_g.shape != phi_h.shape:
        raise ValueError("phase vectors must have equal length")
    theta = phi_v - (phi_h + phi_g)
    # wrap into (-pi, pi]
    return -np.mod(-theta + math.pi, 2.0 * math.pi) + math.pi


@dataclass(frozen=True)
class SnrCdfParams:
    """Derived constants of the closed-form laws of R and R^2 = snr / gamma_bar."""

    m_v: float
    kappa_v: float
    tn: TruncatedNormal

    def __post_init__(self):
        if abs(2.0 * self.m_v - round(2.0 * self.m_v)) > 1e-12:
            raise UnsupportedShapeError(
                f"closed-form SNR distribution needs 2*m_v integer, got m_v={self.m_v}; "
                "use the Monte-Carlo path for other shapes")
        if not 0 < self.delta < math.inf:  # direct and reflected spreads too far apart
            raise NumericalConsistencyError(f"SNR decay rate {self.delta} is not a positive float")

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "SnrCdfParams":
        return cls(m_v=cfg.v.m, kappa_v=cfg.v.kappa, tn=w_stats(cfg))

    @property
    def m_tilde_v(self) -> int:
        return int(round(2.0 * self.m_v - 1.0))

    @property
    def a(self) -> float:
        return self.m_v / self.kappa_v + 0.5 / self.tn.sigma2_bar

    @property
    def delta(self) -> float:
        return 2.0 * self.tn.sigma2_bar * self.a - 1.0

    @property
    def log_lam(self) -> float:
        tn = self.tn
        return (self.m_v * math.log(self.m_v) + math.log(tn.xi)
                - sc.gammaln(self.m_v) - self.m_v * math.log(self.kappa_v)
                - self.m_v * math.log(self.a) - 0.5 * math.log(2.0 * math.pi * tn.sigma2_bar))

    @property
    def j_params(self) -> JParams:
        return JParams(self.m_tilde_v, self.delta)

    def standardized(self, r: float) -> float:
        """(r - mu_bar) / (2 sigma2_bar sqrt(a)), the CDF/PDF argument scale."""
        return (r - self.tn.mu_bar) / (2.0 * self.tn.sigma2_bar * math.sqrt(self.a))


def envelope_pdf(r, p: SnrCdfParams):
    """Closed-form PDF of the received envelope R = v + W (zero for r <= 0)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = ~(r <= 0)  # NaN stays NaN
    z = p.standardized(r[inside])
    mtv = p.m_tilde_v
    total = 0.0
    for k in range(mtv + 1):
        total += math.comb(mtv, k) * np.float_power(z, mtv - k) * cal_i(k, -z)
    out[inside] = 2.0 * _exp(p.log_lam - p.delta * z * z) * total
    return out if out.shape else float(out)


def _cdf_below_mean(r: np.ndarray, p: SnrCdfParams) -> np.ndarray:
    # Integrate the standardized envelope density from r up to the
    # reflected mean: each k-term is a finite-interval tail difference.
    mtv = p.m_tilde_v
    jp = p.j_params
    z_r = -p.standardized(r)          # in [0, z_0)
    z_0 = -p.standardized(0.0)
    total = 0.0
    for k in range(mtv + 1):
        total += (math.comb(mtv, k) * (-1.0) ** (mtv - k)
                  * cal_j_between(k, z_r, z_0, jp))
    scale = 2.0 * math.sqrt(p.a) * p.tn.sigma2_bar
    return math.exp(p.log_lam) * scale * total


def _cdf_above_mean(r: np.ndarray, p: SnrCdfParams) -> np.ndarray:
    # One minus the upper tail; the even-k boundary term integrates the
    # complete-gamma part of the density, the cal_j term the rest.
    mtv = p.m_tilde_v
    jp = p.j_params
    z = p.standardized(r)
    total = 0.0
    for k in range(mtv + 1):
        if k % 2 == 0:
            q = (mtv - k + 1) / 2.0
            boundary = (sc.gamma((k + 1) / 2.0) * p.delta ** (-q)
                        * gamma_upper(q, p.delta * z * z))
        else:
            boundary = 0.0
        total += math.comb(mtv, k) * (boundary - (-1.0) ** k * cal_j(k, z, jp))
    scale = 2.0 * math.sqrt(p.a) * p.tn.sigma2_bar
    return 1.0 - math.exp(p.log_lam) * scale * total


def _check_probability(raw: np.ndarray, where: str) -> np.ndarray:
    bad = (raw < -_CDF_ERROR) | (raw > 1.0 + _CDF_ERROR) | np.isnan(raw)
    if bad.any():
        raise NumericalConsistencyError(
            f"{where} evaluated to {float(raw[bad].flat[0])!r}, outside [0,1] "
            "beyond the 1e-6 slack")
    return np.clip(raw, 0.0, 1.0)


def envelope_cdf(r, p: SnrCdfParams):
    """CDF of the envelope, evaluated over the whole array of r at once: one
    ``cal_j`` call per k for the pieces below and above the reflected mean."""
    r = np.asarray(r, dtype=float)
    raw = np.zeros(r.shape)
    positive = ~(r <= 0)              # NaN stays in, and fails the check
    below = positive & (r <= p.tn.mu_bar)
    above = positive & ~below
    if below.any():
        raw[below] = _cdf_below_mean(r[below], p)
    if above.any():
        raw[above] = _cdf_above_mean(r[above], p)
    out = _check_probability(raw, "envelope_cdf")
    return out if out.shape else float(out)


def snr_cdf(y, p: SnrCdfParams):
    """CDF of R^2 = snr / gamma_bar at y: P(snr <= t) is the CDF at t / gamma_bar."""
    y = np.asarray(y, dtype=float)
    return envelope_cdf(np.sqrt(np.maximum(y, 0.0)), p)


def snr_pdf(y, p: SnrCdfParams):
    """PDF of R^2 at y = snr / gamma_bar, the envelope density carried through
    r = sqrt(y); the SNR has density ``snr_pdf(snr / gamma_bar) / gamma_bar``."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("snr_pdf requires y > 0")
    r = np.sqrt(y)
    val = envelope_pdf(r, p) / (2.0 * r)
    return val if val.shape else float(val)
