"""Truncated-normal statistics of the co-phased reflected sum.

The sum W of the amplitude products eta * g_n * h_n of N identical elements
is approximated, for moderate-to-large element counts, by a normal
distribution truncated to [0, inf).  This module computes the pre-truncation
parameters (mu_bar, sigma2_bar), each N times the moment of one product, from
the leg shapes and spreads, the post-truncation mean/variance/moments, and the
statistics of the real and imaginary parts under uniformly distributed
phase-quantization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .errors import NumericalConsistencyError
from .specfun import cal_i, gaussian_q

__all__ = [
    "TruncatedNormal",
    "QuantizedWStats",
    "gamma_ratio_t",
    "w_stats",
    "w_mean_var",
    "w_moment",
    "quantized_w_stats",
]


def gamma_ratio_t(a: float, b: float, i: float) -> float:
    """Gamma(a+i)Gamma(b+i) / (Gamma(a)Gamma(b)), evaluated in log space."""
    return math.exp(sc.gammaln(a + i) + sc.gammaln(b + i) - sc.gammaln(a) - sc.gammaln(b))


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mu_bar, sigma2_bar) restricted to [0, inf).

    ``z_bar`` is the standardized truncation point and ``xi`` the mass
    renormalizer 1/Q(z_bar); both are derived, so xi * Q(z_bar) = 1 holds
    exactly by construction.
    """

    mu_bar: float
    sigma2_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.mu_bar) and 0 < self.sigma2_bar < math.inf):
            raise NumericalConsistencyError(f"reflected-sum statistics out of the float64 "
                                            f"range: {self.mu_bar}, {self.sigma2_bar}")

    @property
    def sigma_bar(self) -> float:
        return math.sqrt(self.sigma2_bar)

    @property
    def z_bar(self) -> float:
        return -self.mu_bar / self.sigma_bar

    @property
    def xi(self) -> float:
        return 1.0 / float(gaussian_q(self.z_bar))


def w_stats(cfg: SystemConfig) -> TruncatedNormal:
    """Pre-truncation mean and variance of the reflected amplitude sum."""
    n, eta = cfg.n_elements, cfg.eta
    t = gamma_ratio_t(cfg.g.m, cfg.h.m, 0.5)
    kgkh = cfg.g.kappa * cfg.h.kappa
    mu = n * (eta * math.sqrt(kgkh / (cfg.g.m * cfg.h.m))) * t
    s2 = n * (eta * eta * kgkh) * (1.0 - t * t / (cfg.g.m * cfg.h.m))
    return TruncatedNormal(mu_bar=mu, sigma2_bar=s2)


def w_mean_var(tn: TruncatedNormal) -> tuple[float, float]:
    """Mean and variance after truncation to [0, inf)."""
    h = tn.xi * (math.exp(-0.5 * tn.z_bar * tn.z_bar) / math.sqrt(2.0 * math.pi))
    mu_w = tn.mu_bar + tn.sigma_bar * h
    sigma2_w = tn.sigma2_bar * (1.0 + tn.z_bar * h - h * h)
    return mu_w, sigma2_w


def w_moment(tn: TruncatedNormal, alpha: int) -> float:
    """Raw moment E[W^alpha] of the truncated normal, alpha in 1..4."""
    if alpha not in (1, 2, 3, 4):
        raise ValueError(f"w_moment supports alpha in 1..4, got {alpha}")
    z = -tn.mu_bar / math.sqrt(2.0 * tn.sigma2_bar)
    total = 0.0
    for i in range(alpha + 1):
        total += (math.comb(alpha, i) * (2.0 * tn.sigma2_bar) ** (i / 2.0)
                  * tn.mu_bar ** (alpha - i) * cal_i(i, z))
    return tn.xi / math.sqrt(math.pi) * total


@dataclass(frozen=True)
class QuantizedWStats:
    """Statistics of the reflected sum under b-bit phase quantization.

    The real part keeps a lower-truncated normal model; the imaginary part
    is zero-mean with the degenerate truncation point, xi = 2.  The two
    variances split the power budget N eta^2 kappa_g kappa_h less the N squared
    element means: sigma2_R + sigma2_I + mu_R^2 / N equals the budget.
    """

    real_part: TruncatedNormal
    imag_part: TruncatedNormal
    tau: float
    bits: int

    def __post_init__(self):
        if self.imag_part.mu_bar != 0.0:
            raise ValueError("imaginary part must be zero-mean")


def quantized_w_stats(cfg: SystemConfig, bits: int) -> QuantizedWStats:
    """Reflected-sum statistics with phase error uniform on [-tau, tau), tau = pi/2^b."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    tau = math.pi / 2**bits
    cos_mean = math.sin(tau) / tau
    cos2_mean = 0.5 + math.sin(2.0 * tau) / (4.0 * tau)
    sin2_mean = 0.5 - math.sin(2.0 * tau) / (4.0 * tau)

    n, eta = cfg.n_elements, cfg.eta
    t = gamma_ratio_t(cfg.g.m, cfg.h.m, 0.5)
    kgkh = cfg.g.kappa * cfg.h.kappa
    per_mu = eta * math.sqrt(kgkh / (cfg.g.m * cfg.h.m)) * t * cos_mean
    power = n * (eta * eta * kgkh)

    # Per-element variance subtraction; subtracting the squared *sum* of
    # means would go negative for every N > 1.
    s2_r = cos2_mean * power - n * per_mu**2
    # sin(2 tau)/(4 tau) rounds to exactly 1/2 once tau^2 is below the
    # float epsilon; keep the degenerate imaginary spread representable
    s2_i = max(sin2_mean * power, np.finfo(float).tiny)
    return QuantizedWStats(
        real_part=TruncatedNormal(mu_bar=n * per_mu, sigma2_bar=s2_r),
        imag_part=TruncatedNormal(mu_bar=0.0, sigma2_bar=s2_i),
        tau=tau,
        bits=bits,
    )

