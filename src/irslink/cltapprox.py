"""Truncated-normal law of the co-phased reflected sum.

The sum W of the amplitude products eta * g_n * h_n of N identical elements
is approximated, for moderate-to-large element counts, by a normal
distribution truncated to [0, inf).  This module computes the pre-truncation
parameters (mu_bar, sigma2_bar), each N times the moment of one product, from
the leg shapes and spreads; evaluates the law itself (log density, log CDF
and log tail, :class:`TruncatedNormal`); and gives the post-truncation mean,
variance and moments, all from phi(z_bar) / Q(z_bar), and the statistics of the
real and imaginary parts under uniformly distributed phase-quantization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .errors import NumericalConsistencyError
# Not called here: the benchmark tracer wraps this name in this module, and
# tests/test_tooling.py::test_every_traced_name_resolves pins it.
from .specfun import cal_i  # noqa: F401

__all__ = [
    "TruncatedNormal",
    "QuantizedWStats",
    "gamma_ratio_t",
    "w_stats",
    "w_mean_var",
    "w_moment",
    "quantized_w_stats",
]


# TruncatedNormal.log_cdf integrates the density where its exponent moves by
# at most _NEAR_ZERO_REACH over [0, w]; past that, Phi(a) - Phi(z_bar) loses
# at most a few ulps times |log Phi(a)|.
_NEAR_ZERO_REACH = 0.25
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _near_zero_mean(z: float, d: np.ndarray) -> np.ndarray:
    """Mean of exp(-z s - s^2 / 2) over s in [0, d] for d (|z| + d) <=
    _NEAR_ZERO_REACH: sum_k a_k d^k / (k + 1), a_k the Taylor coefficients
    of that exponential (a_0 = 1, a_1 = -z, (k + 1) a_(k+1) = -z a_k -
    a_(k-1)).  23 terms leave a remainder far below an ulp."""
    a = [1.0, -z]
    for k in range(1, 22):
        a.append((-z * a[k] - a[k - 1]) / (k + 1))
    mean = np.full_like(d, a[-1] / len(a))
    for k in range(len(a) - 2, -1, -1):  # Horner
        mean *= d
        mean += a[k] / (k + 1)
    return mean


def gamma_ratio_t(a: float, b: float, i: float) -> float:
    """Gamma(a+i)Gamma(b+i) / (Gamma(a)Gamma(b)), evaluated in log space; nan
    where a shape's log-Gamma overflows (inf - inf), which the callers' range
    checks report."""
    with np.errstate(invalid="ignore"):
        return math.exp(sc.gammaln(a + i) + sc.gammaln(b + i) - sc.gammaln(a) - sc.gammaln(b))


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mu_bar, sigma2_bar) restricted to [0, inf).

    ``z_bar`` is the standardized truncation point and ``xi`` the mass
    renormalizer 1/Q(z_bar); both are derived, and Q(z_bar) is evaluated one
    way only, in log space (``_log_mass``).
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
        return math.exp(-self._log_mass)

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
        -inf where the probability is 0 (w <= 0).

        The difference cancels where a is near z_bar, so for 0 < w <= d_0
        sigma_bar, with d_0 (|z_bar| + d_0) = _NEAR_ZERO_REACH, the probability
        is instead the integral of the density over [0, w]: phi(z_bar) d M /
        Q(z_bar), d = w / sigma_bar and M the mean of exp(-z_bar s - s^2 / 2)
        over s in [0, d], a polynomial in d (``_near_zero_mean``)."""
        w = np.asarray(w, dtype=float)
        z, sigma, log_mass = self.z_bar, self.sigma_bar, self._log_mass
        log_phi = sc.log_ndtr((w - self.mu_bar) / sigma)
        log_below = float(sc.log_ndtr(z))      # log P(normal < 0)
        with np.errstate(divide="ignore"):
            out = np.asarray(log_phi + np.log(-np.expm1(np.minimum(log_below - log_phi, 0.0)))
                             - log_mass)
        reach = 2.0 * _NEAR_ZERO_REACH / (abs(z) + math.sqrt(z * z + 4.0 * _NEAR_ZERO_REACH))
        near = (w > 0.0) & (w <= reach * sigma)
        d = w[near] / sigma
        out[near] = np.log(d * _near_zero_mean(z, d)) - (0.5 * z * z + _LOG_SQRT_2PI + log_mass)
        return out[()]

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
    """Mean and variance after truncation to [0, inf), from lambda = phi(z_bar) / Q(z_bar);
    sigma2_bar (1 + z_bar lambda - lambda^2) does not cancel as M_2 - M_1^2 does."""
    lam = tn.xi * (math.exp(-0.5 * tn.z_bar * tn.z_bar) / math.sqrt(2.0 * math.pi))
    return tn.mu_bar + tn.sigma_bar * lam, tn.sigma2_bar * (1.0 + tn.z_bar * lam - lam * lam)


def w_moment(tn: TruncatedNormal, alpha: int) -> float:
    """Raw moment E[W^alpha] of the truncated normal, alpha in 1..4, by M_k = mu_bar M_(k-1)
    + (k-1) sigma2_bar M_(k-2) from M_0 = 1 and the mean M_1 (Johnson, Kotz & Balakrishnan)."""
    if alpha not in (1, 2, 3, 4):
        raise ValueError(f"w_moment supports alpha in 1..4, got {alpha}")
    before, moment = 1.0, w_mean_var(tn)[0]
    for k in range(2, alpha + 1):
        before, moment = moment, tn.mu_bar * moment + (k - 1) * tn.sigma2_bar * before
    return moment


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
