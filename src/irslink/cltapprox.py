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


# log rho_m (_log_rho) is its series in 1/m from this shape on.  Against
# mpmath, the difference of log-Gammas below it loses at most 5.4e-14 of the
# value (relative), and the series from it on 4.5e-14.
_SERIES_FROM = 6.0
# c_1, c_3, ..., c_19 of that series, sum c_k m^-k over odd k: c_k = 2 (2^-k
# - 2) B_(k+1) / (k (k+1)), B_n the Bernoulli numbers, from the asymptotic
# expansion of log Gamma(m + 1/2) - log Gamma(m) - log(m) / 2, doubled.
_LOG_RHO_SERIES = (-1 / 4, 1 / 96, -1 / 320, 17 / 7168, -31 / 9216, 691 / 90112,
                   -5461 / 212992, 929569 / 7864320, -3202291 / 4456448,
                   221930581 / 39845888)


def _log_rho(m: float) -> float:
    """log rho_m, rho_m = Gamma(m+1/2)^2 / (m Gamma(m)^2) = E[a]^2 / E[a^2] of
    a Nakagami-m amplitude a: 2 lgamma(m+1/2) - 2 lgamma(m) - log m, which
    cancels as m grows (it is -1/(4m) + ...), so from ``_SERIES_FROM`` on it
    is the series of ``_LOG_RHO_SERIES``."""
    if m < _SERIES_FROM:
        return float(2.0 * sc.gammaln(m + 0.5) - 2.0 * sc.gammaln(m)) - math.log(m)
    x = 1.0 / m
    total = 0.0
    for c in reversed(_LOG_RHO_SERIES):  # Horner in x^2
        total = total * (x * x) + c
    return total * x


def gamma_ratio_t(a: float, b: float) -> float:
    """Gamma(a+1/2)Gamma(b+1/2) / (Gamma(a)Gamma(b)) = sqrt(a rho_a b rho_b)."""
    return math.sqrt(a) * math.sqrt(b) * math.exp(0.5 * (_log_rho(a) + _log_rho(b)))


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
    """Pre-truncation mean and variance of the reflected amplitude sum: N
    times those of one product eta g h, whose second moment is the power
    eta^2 kappa_g kappa_h and whose squared mean is rho_g rho_h times it.
    1 - rho_g rho_h is -expm1(log rho_g + log rho_h), which keeps its digits
    at any shapes, as the difference of the two moments would not."""
    n, eta = cfg.n_elements, cfg.eta
    log_rho = _log_rho(cfg.g.m) + _log_rho(cfg.h.m)
    kgkh = cfg.g.kappa * cfg.h.kappa
    mu = n * (eta * math.sqrt(kgkh)) * math.exp(0.5 * log_rho)
    s2 = n * (eta * eta * kgkh) * -math.expm1(log_rho)
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
    """Statistics of the reflected sum under b-bit phase quantization, whose
    phase errors are uniform on [-tau, tau), tau = pi/2^b.

    The real part keeps a lower-truncated normal model; the imaginary part
    is a zero-mean normal of variance ``sigma2_imag`` (0 once tau^2 is below
    the float epsilon, where sin(2 tau)/(4 tau) rounds to 1/2).  The two variances
    split the power budget N eta^2 kappa_g kappa_h less the N squared element
    means: sigma2_R + sigma2_I + mu_R^2 / N equals the budget.
    """

    real_part: TruncatedNormal
    sigma2_imag: float


def quantized_w_stats(cfg: SystemConfig, bits: int) -> QuantizedWStats:
    """Reflected-sum statistics with phase error uniform on [-tau, tau), tau = pi/2^b."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    tau = math.pi / 2**bits
    cos_mean = math.sin(tau) / tau
    cos2_mean = 0.5 + math.sin(2.0 * tau) / (4.0 * tau)
    sin2_mean = 0.5 - math.sin(2.0 * tau) / (4.0 * tau)

    tn = w_stats(cfg)
    power = cfg.n_elements * (cfg.eta * cfg.eta * (cfg.g.kappa * cfg.h.kappa))
    # Per element, Var(X cos e) = E X^2 Var(cos e) + Var(X) (E cos e)^2: the
    # variance of the N elements' sum without the difference of E X^2 E cos^2 e
    # and (E X E cos e)^2, which cancels as the shapes grow.
    return QuantizedWStats(
        real_part=TruncatedNormal(
            mu_bar=tn.mu_bar * cos_mean,
            sigma2_bar=(cos2_mean - cos_mean**2) * power + cos_mean**2 * tn.sigma2_bar),
        sigma2_imag=sin2_mean * power,
    )
