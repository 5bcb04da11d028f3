"""Truncated-normal law of the co-phased reflected sum.

The sum W of the amplitude products eta * g_n * h_n of N identical elements
is approximated, for moderate-to-large element counts, by a normal
distribution truncated to [0, inf).  This module computes the pre-truncation
parameters (mu_bar, sigma2_bar), each N times the moment of one product, from
the leg shapes and spreads; evaluates the law itself (log density, log CDF
and log tail, :class:`TruncatedNormal`); and gives the post-truncation
mean/variance/moments and the statistics of the real and imaginary parts
under uniformly distributed phase-quantization error.
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

    @property
    def _log_mass(self) -> float:
        # log P(normal >= 0) = -log xi
        return float(sc.log_ndtr(-self.z_bar))

    def log_pdf(self, w):
        """log of the density xi phi((w - mu_bar) / sigma_bar) / sigma_bar, w >= 0."""
        log_norm = -math.log(self.sigma_bar * math.sqrt(2.0 * math.pi)) - self._log_mass
        return log_norm - 0.5 * ((w - self.mu_bar) / self.sigma_bar) ** 2

    def log_cdf(self, w):
        """log of (Phi(a) - Phi(z_bar)) / Q(z_bar), a = (w - mu_bar) / sigma_bar;
        -inf where the probability is 0 (w <= 0)."""
        log_phi = sc.log_ndtr((w - self.mu_bar) / self.sigma_bar)
        log_below = float(sc.log_ndtr(self.z_bar))      # log P(normal < 0)
        with np.errstate(divide="ignore"):
            return (log_phi + np.log(-np.expm1(np.minimum(log_below - log_phi, 0.0)))
                    - self._log_mass)

    def log_sf(self, w):
        """log of Q(a) / Q(z_bar), a = (w - mu_bar) / sigma_bar."""
        return sc.log_ndtr((self.mu_bar - w) / self.sigma_bar) - self._log_mass


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
    is a zero-mean normal of variance ``sigma2_imag`` (0 once tau^2 is below
    the float epsilon, where sin(2 tau)/(4 tau) rounds to 1/2).  The two variances
    split the power budget N eta^2 kappa_g kappa_h less the N squared element
    means: sigma2_R + sigma2_I + mu_R^2 / N equals the budget.
    """

    real_part: TruncatedNormal
    sigma2_imag: float
    tau: float


def quantized_w_stats(cfg: SystemConfig, bits: int) -> QuantizedWStats:
    """Reflected-sum statistics with phase error uniform on [-tau, tau), tau = pi/2^b."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    tau = math.pi / 2**bits
    cos_mean = math.sin(tau) / tau
    cos2_mean = 0.5 + math.sin(2.0 * tau) / (4.0 * tau)
    sin2_mean = 0.5 - math.sin(2.0 * tau) / (4.0 * tau)

    n, eta = cfg.n_elements, cfg.eta
    mu_r = w_stats(cfg).mu_bar * cos_mean
    power = n * (eta * eta * (cfg.g.kappa * cfg.h.kappa))
    # Per-element variance subtraction, N (mu_R / N)^2; subtracting the
    # squared *sum* of means would go negative for every N > 1.
    return QuantizedWStats(
        real_part=TruncatedNormal(mu_bar=mu_r, sigma2_bar=cos2_mean * power - mu_r**2 / n),
        sigma2_imag=sin2_mean * power,
        tau=tau,
    )
