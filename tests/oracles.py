"""Independent samplers and scalar reference evaluations the tests check the
library against."""

import math

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from irslink.channel import SystemConfig
from irslink.cltapprox import TruncatedNormal, w_stats
from irslink.snrdist import SnrCdfParams, envelope_pdf
from irslink.specfun import log_gaussian_q


# Bound on each component of |float32 phasor - float64 phasor| for a float64
# phase in [-pi, pi): rounding the phase to float32 moves it by at most half
# a float32 spacing, 2**-23 below 4, and cos and sin have slope at most 1;
# numpy's float32 cos and sin are accurate to 1.5 ulp, and an ulp is 2**-24
# below 1 in magnitude.  Widening to float64 is exact.  Together: below 2**-22.
PHASOR_ERROR = 2.0**-22


def float32_trig_bound(gamma_bar, v, reach, per_term):
    """Bound on the change of ``gamma_bar |v + S|^2`` when every term of the
    sum S moves by at most ``per_term`` times its bound and those bounds
    sum to ``reach`` (so |S| <= reach):
    |d |v + S|^2| <= 2 |v + S| |dS| + |dS|^2 <= (2 e + e^2) (v + reach)^2,
    with e = ``per_term``."""
    return gamma_bar * (2.0 * per_term + per_term**2) * (v + reach) ** 2


def truncated_normal_sample(tn: TruncatedNormal, rng: np.random.Generator, size: int):
    """Rejection sampler of the normal truncated to [0, inf); fine while z_bar < 0."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        draw = rng.normal(tn.mu_bar, tn.sigma_bar, int(need * 1.6) + 16)
        draw = draw[draw >= 0.0][:need]
        out[filled:filled + draw.size] = draw
        filled += draw.size
    return out


def ser_upper_bound_scalar(cfg: SystemConfig) -> float:
    """The SER bound by a scalar scan: the objective written with ``math``,
    the 2048-angle grid evaluated one angle at a time, then golden-section
    refinement of the best grid bracket."""
    tn = w_stats(cfg)
    beta_gb = cfg.modulation.beta * cfg.gamma_bar
    m_v, kappa_v, s2 = cfg.v.m, cfg.v.kappa, tn.sigma2_bar

    def objective(theta):
        u1 = m_v / kappa_v + beta_gb / (2.0 * math.sin(theta) ** 2)
        z1 = 0.5 / s2 + beta_gb / (2.0 * math.cos(theta) ** 2)
        z2 = tn.mu_bar / (2.0 * s2)
        return (z2 * z2 / z1 - m_v * math.log(u1) - 0.5 * math.log(z1)
                + float(log_gaussian_q(-z2 * math.sqrt(2.0 / z1))))

    grid, tol, eps = 2048, 1e-10, 1e-9
    xs = np.linspace(eps, math.pi / 2.0 - eps, grid)
    vals = [objective(x) for x in xs]
    if not all(math.isfinite(v) for v in vals):
        raise ArithmeticError("SER bound objective is not finite on the scan grid")
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    log_bound = (math.log(cfg.modulation.alpha / 2.0) + math.log(tn.xi)
                 + m_v * math.log(m_v / kappa_v) - 0.5 * math.log(2.0 * s2)
                 - tn.mu_bar**2 / (2.0 * s2) + objective(0.5 * (a + b)))
    return min(math.exp(log_bound), 1.0)


def cal_i_scalar(k: int, x: float) -> float:
    """``specfun.cal_i`` at one point, branching on the sign of x."""
    q = (k + 1) / 2.0
    if x >= 0:
        return 0.5 * float(sc.gammaincc(q, x * x) * sc.gamma(q))
    return 0.5 * sc.gamma(q) + 0.5 * (-1.0) ** k * float(sc.gammainc(q, x * x) * sc.gamma(q))


def envelope_pdf_scalar(r, p: SnrCdfParams):
    """``snrdist.envelope_pdf`` evaluated point by point with scalar ``cal_i``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mtv = p.m_tilde_v
    for idx in np.ndindex(r.shape):
        ri = r[idx]
        if ri <= 0:
            continue
        z = p.standardized(ri)
        total = 0.0
        for k in range(mtv + 1):
            total += math.comb(mtv, k) * z ** (mtv - k) * cal_i_scalar(k, -z)
        out[idx] = 2.0 * math.exp(p.log_lam - p.delta * z * z) * total
    return out if out.shape else float(out)


def snr_cdf_quadrature(y, p: SnrCdfParams):
    """``snrdist.snr_cdf`` by quadrature of the closed-form envelope PDF from 0
    to sqrt(y / gamma_bar), split at the reflected mean; not clipped."""
    r = np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0) / p.gamma_bar)
    out, mu = np.zeros(r.shape), p.tn.mu_bar
    for idx in np.ndindex(r.shape):
        out[idx] = sum(quad(lambda t: envelope_pdf(t, p), lo, hi, epsabs=1e-12, epsrel=1e-10,
                            limit=300)[0]
                       for lo, hi in ((0.0, min(r[idx], mu)), (mu, r[idx])) if hi > lo)
    return out if out.shape else float(out)
