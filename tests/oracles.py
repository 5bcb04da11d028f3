"""Independent samplers and scalar reference evaluations the tests check the
library against, and reference laws no curve of the library uses."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from irslink.channel import ERLANG_MAX_SHAPE, LinkParams, SystemConfig
from irslink.cltapprox import TruncatedNormal, w_stats
from irslink.errors import NumericalConsistencyError
from irslink.snrdist import SnrCdfParams, _check_probability, envelope_pdf
from irslink.specfun import (JParams, _exp, cal_i, cal_j, cal_j_between, gamma_upper,
                             log_gaussian_q)


# Bound on each component of |float32 phasor - float64 phasor| for a float64
# phase in [-pi, pi): rounding the phase to float32 moves it by at most half
# a float32 spacing, 2**-23 below 4, and cos and sin have slope at most 1;
# numpy's float32 cos and sin are accurate to 1.5 ulp, and an ulp is 2**-24
# below 1 in magnitude.  Widening to float64 is exact.  Together: below 2**-22.
PHASOR_ERROR = 2.0**-22

# Trial counts around a chunk edge of map_chunks, as offsets from two full
# chunks: a last chunk one trial short of full, two full chunks, and a last
# chunk of one trial.
CHUNK_EDGE_OFFSETS = [-1, 0, 1]


def chunk_counts(trials: int, size: int) -> list[tuple[int, int]]:
    """(index, trial count) of each chunk when ``trials`` trials run in
    consecutive chunks of ``size``."""
    return [(index, min(size, trials - start))
            for index, start in enumerate(range(0, trials, size))]


def chunk_output(kernel, rng: np.random.Generator, count: int, rows: tuple[int, ...] = ()):
    """The ``rows + (count,)`` array one call ``kernel(rng, out)`` of a chunk
    kernel writes, as ``montecarlo.map_chunks`` calls it."""
    out = np.empty(rows + (count,))
    kernel(rng, out)
    return out


def rician_to_nakagami(k_factor: float) -> float:
    """Shape of the Nakagami approximation to Rician fading with factor K."""
    if k_factor < 0:
        raise ValueError("Rician K-factor must be nonnegative")
    return (k_factor + 1.0) ** 2 / (2.0 * k_factor + 1.0)


def float32_trig_bound(v, reach, per_term):
    """Bound on the change of the unit-SNR ``|v + S|^2`` when every term of
    the sum S moves by at most ``per_term`` times its bound and those bounds
    sum to ``reach`` (so |S| <= reach):
    |d |v + S|^2| <= 2 |v + S| |dS| + |dS|^2 <= (2 e + e^2) (v + reach)^2,
    with e = ``per_term``."""
    return (2.0 * per_term + per_term**2) * (v + reach) ** 2


def uniform_reference(rng: np.random.Generator, size):
    """The next uniforms of ``irslink.channel``'s stream, an array of shape
    ``size``: the 32-bit halves of ``rng``'s raw words, each word's low half
    ``words & 0xFFFFFFFF``, then its high half ``words >> 32``, with bit 0
    set, times 2**-32; ceil(n / 2) words for n uniforms."""
    count = int(np.prod(size))
    words = rng.bit_generator.random_raw((count + 1) // 2)
    halves = np.empty(2 * words.size, dtype=np.uint64)
    halves[0::2] = words & 0xFFFFFFFF
    halves[1::2] = words >> 32
    return ((halves[:count] | 1) * 2.0**-32).reshape(size)


def erlang_reference(m: int, rng: np.random.Generator, size):
    """Unit-scale Erlang(m) powers in the stream of the Erlang draw of
    ``irslink.channel._signed_power``, the negated log-products it returns,
    written as plain expressions: -log of the left-to-right product of m
    arrays ``uniform_reference(rng, size)``, drawn one after another."""
    product = uniform_reference(rng, size)
    for _ in range(1, m):
        product = product * uniform_reference(rng, size)
    return -np.log(product)


def phase_reference(tau: float, rng: np.random.Generator, size):
    """Phases in the stream of ``irslink.channel.uniform_phase``: (2 u - 1) tau
    of the uniforms u of ``uniform_reference``."""
    return (2.0 * uniform_reference(rng, size) - 1.0) * tau


def gamma_power_reference(m: float, rng: np.random.Generator, size):
    """Unit-scale Gamma(m) powers in the stream of one factor of
    ``irslink.channel.gamma_power_product``, the signed draw ``sign * draws``
    of ``irslink.channel._signed_power``: ``erlang_reference`` for an integer
    1 <= m <= ERLANG_MAX_SHAPE, ``rng.gamma(m, 1.0, size)`` otherwise."""
    if float(m).is_integer() and 1 <= m <= ERLANG_MAX_SHAPE:
        return erlang_reference(int(m), rng, size)
    return rng.gamma(m, 1.0, size)


def nakagami_reference(m: float, zeta: float, rng: np.random.Generator, size):
    """Nakagami-m amplitudes in the stream of ``irslink.channel.nakagami_sample``:
    ``sqrt(zeta * erlang_reference(m, rng, size))`` for an integer
    1 <= m <= ERLANG_MAX_SHAPE, ``sqrt(rng.gamma(m, zeta, size))`` otherwise."""
    if not (float(m).is_integer() and 1 <= m <= ERLANG_MAX_SHAPE):
        return np.sqrt(rng.gamma(m, zeta, size))
    return np.sqrt(zeta * erlang_reference(int(m), rng, size))


def reflected_reference(cfg: SystemConfig, rng: np.random.Generator, shape):
    """Products eta g h in the stream of ``irslink.montecarlo._reflected_products``:
    the root of the product of the unit-scale Gamma powers of g, then h,
    times eta sqrt(zeta_g) sqrt(zeta_h)."""
    power = (gamma_power_reference(cfg.g.m, rng, shape)
             * gamma_power_reference(cfg.h.m, rng, shape))
    return np.sqrt(power) * (cfg.eta * math.sqrt(cfg.g.zeta) * math.sqrt(cfg.h.zeta))


def optimal_phases(phi_v: float, phi_g, phi_h):
    """Per-element reflection phases that co-phase everything with the direct path."""
    phi_g = np.asarray(phi_g, dtype=float)
    phi_h = np.asarray(phi_h, dtype=float)
    if phi_g.shape != phi_h.shape:
        raise ValueError("phase vectors must have equal length")
    theta = phi_v - (phi_h + phi_g)
    # wrap into (-pi, pi]
    return -np.mod(-theta + math.pi, 2.0 * math.pi) + math.pi


def optimal_snr(v_amp: float, g_amp, h_amp, eta, gamma_bar: float) -> float:
    """Maximum received SNR under co-phasing: gamma_bar*(v + sum eta*g*h)^2."""
    g_amp = np.atleast_1d(np.asarray(g_amp, dtype=float))
    h_amp = np.atleast_1d(np.asarray(h_amp, dtype=float))
    eta = np.broadcast_to(np.asarray(eta, dtype=float), g_amp.shape)
    if g_amp.shape != h_amp.shape:
        raise ValueError("amplitude vectors must have equal length")
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    return float(gamma_bar * (v_amp + np.sum(eta * g_amp * h_amp)) ** 2)


@dataclass(frozen=True)
class ProductPdfParams:
    """Exact distribution of one scaled product eta * g * h, the N = 1 law
    the truncated-normal approximation is checked against."""

    g: LinkParams
    h: LinkParams
    eta: float = 1.0

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")

    @property
    def tau_n(self) -> float:
        return 2.0 * math.sqrt(self.g.m * self.h.m / (self.g.kappa * self.h.kappa * self.eta**2))

    @property
    def log_psi(self) -> float:
        mc = 0.5 * (self.g.m + self.h.m)
        return (math.log(4.0) + mc * math.log(self.g.m * self.h.m)
                - mc * math.log(self.eta**2 * self.g.kappa * self.h.kappa)
                - sc.gammaln(self.g.m) - sc.gammaln(self.h.m))


def product_pdf(w, p: ProductPdfParams):
    """PDF of the product of two independent Nakagami amplitudes times eta."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("product_pdf requires w > 0")
    order = p.g.m - p.h.m
    val = (np.exp(p.log_psi + (p.g.m + p.h.m - 1.0) * np.log(w))
           * sc.kv(order, w * p.tau_n))
    return val if val.shape else float(val)


def fit_loglog_slope(x, y, window: tuple[float, float]) -> float:
    """Least-squares slope of log10(y) against x / 10, for x in dB (gamma_bar_db).

    The window is an inclusive x-range; at least three strictly positive
    points must fall inside it.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lo, hi = window
    mask = (x >= lo) & (x <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("slope window must contain at least 3 points")
    y = y[mask]
    if np.any(y <= 0):
        raise ValueError("slope fit requires positive y values in the window")
    slope, _ = np.polyfit(x[mask] / 10.0, np.log10(y), 1)
    return float(slope)


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


def ser_upper_bound_mpmath(cfg: SystemConfig, dps: int = 40) -> float:
    """The SER bound exp(min(max_s L(s), 0)) with L, the log-integrand in
    s = sin^2(theta) of ``metrics._ser_log_objective``, written in mpmath at
    ``dps`` digits and maximized by golden section over (0, 1) to a bracket
    of 1e-30.  Needs mpmath."""
    import mpmath as mp

    tn = w_stats(cfg)
    with mp.workdps(dps):
        a = mp.mpf(cfg.v.m) / cfg.v.kappa
        b = mp.mpf(cfg.modulation.beta) * cfg.gamma_bar / 2
        c = 1 / (2 * mp.mpf(tn.sigma2_bar))
        z = mp.mpf(tn.mu_bar) * c
        log_xi = -mp.log(mp.ncdf(mp.mpf(tn.mu_bar) / mp.sqrt(tn.sigma2_bar)))
        head = mp.log(mp.mpf(cfg.modulation.alpha) / 2) + log_xi

        def objective(s):
            t = 1 - s
            return (head - cfg.v.m * mp.log1p(b / (a * s)) - mp.log1p(b / (c * t)) / 2
                    - z * z * b / (c * (c * t + b))
                    + mp.log(mp.ncdf(z * mp.sqrt(2 * t / (c * t + b)))))

        lo, hi, invphi = mp.mpf(0), mp.mpf(1), (mp.sqrt(5) - 1) / 2
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = objective(x1), objective(x2)
        while hi - lo > mp.mpf("1e-30"):
            if f1 > f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = objective(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = objective(x2)
        return float(mp.exp(min(objective((lo + hi) / 2), 0)))


def cal_i_scalar(k: int, x: float) -> float:
    """``specfun.cal_i`` at one point, branching on the sign of x."""
    q = (k + 1) / 2.0
    if x >= 0:
        return 0.5 * float(sc.gammaincc(q, x * x) * sc.gamma(q))
    return 0.5 * sc.gamma(q) + 0.5 * (-1.0) ** k * float(sc.gammainc(q, x * x) * sc.gamma(q))


@dataclass(frozen=True)
class ClosedForm:
    """Constants of the paper's piecewise closed form of the law of R = v + W.

    It convolves v with the *untruncated* normal for W, scaled by xi, so its
    mass is xi rather than 1, and its binomial expansion needs 2 m_v to be an
    integer.  Where xi - 1 is below the float resolution it is the library
    law (``irslink.snrdist``), and the tests compare the two there.
    """

    law: SnrCdfParams

    def __post_init__(self):
        if abs(2.0 * self.law.m_v - round(2.0 * self.law.m_v)) > 1e-12:
            raise ValueError(f"the closed form needs 2*m_v integer, got m_v={self.law.m_v}")
        if not 0 < self.delta < math.inf:  # direct and reflected spreads too far apart
            raise NumericalConsistencyError(f"SNR decay rate {self.delta} is not a positive float")

    @property
    def m_tilde_v(self) -> int:
        return int(round(2.0 * self.law.m_v - 1.0))

    @property
    def a(self) -> float:
        return self.law.m_v / self.law.kappa_v + 0.5 / self.law.tn.sigma2_bar

    @property
    def delta(self) -> float:
        return 2.0 * self.law.tn.sigma2_bar * self.a - 1.0

    @property
    def log_lam(self) -> float:
        m_v, kappa_v, tn = self.law.m_v, self.law.kappa_v, self.law.tn
        return (m_v * math.log(m_v) + math.log(tn.xi) - sc.gammaln(m_v) - m_v * math.log(kappa_v)
                - m_v * math.log(self.a) - 0.5 * math.log(2.0 * math.pi * tn.sigma2_bar))

    @property
    def j_params(self) -> JParams:
        return JParams(self.m_tilde_v, self.delta)

    def standardized(self, r):
        """(r - mu_bar) / (2 sigma2_bar sqrt(a)), the CDF/PDF argument scale."""
        tn = self.law.tn
        return (r - tn.mu_bar) / (2.0 * tn.sigma2_bar * math.sqrt(self.a))


def closed_envelope_pdf(r, c: ClosedForm):
    """The paper's closed-form PDF of the envelope (zero for r <= 0)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = ~(r <= 0)  # NaN stays NaN
    z = c.standardized(r[inside])
    mtv = c.m_tilde_v
    total = 0.0
    for k in range(mtv + 1):
        total += math.comb(mtv, k) * np.float_power(z, mtv - k) * cal_i(k, -z)
    out[inside] = 2.0 * _exp(c.log_lam - c.delta * z * z) * total
    return out if out.shape else float(out)


def _closed_cdf_below_mean(r, c: ClosedForm):
    # Integrate the standardized envelope density from r up to the
    # reflected mean: each k-term is a finite-interval tail difference.
    mtv, jp = c.m_tilde_v, c.j_params
    z_r, z_0 = -c.standardized(r), -c.standardized(0.0)
    total = 0.0
    for k in range(mtv + 1):
        total += math.comb(mtv, k) * (-1.0) ** (mtv - k) * cal_j_between(k, z_r, z_0, jp)
    return math.exp(c.log_lam) * 2.0 * math.sqrt(c.a) * c.law.tn.sigma2_bar * total


def _closed_cdf_above_mean(r, c: ClosedForm):
    # One minus the upper tail; the even-k boundary term integrates the
    # complete-gamma part of the density, the cal_j term the rest.
    mtv, jp = c.m_tilde_v, c.j_params
    z = c.standardized(r)
    total = 0.0
    for k in range(mtv + 1):
        if k % 2 == 0:
            q = (mtv - k + 1) / 2.0
            boundary = (sc.gamma((k + 1) / 2.0) * c.delta ** (-q)
                        * gamma_upper(q, c.delta * z * z))
        else:
            boundary = 0.0
        total += math.comb(mtv, k) * (boundary - (-1.0) ** k * cal_j(k, z, jp))
    return 1.0 - math.exp(c.log_lam) * 2.0 * math.sqrt(c.a) * c.law.tn.sigma2_bar * total


def closed_snr_cdf(y, c: ClosedForm):
    """The paper's piecewise closed-form CDF of R^2 = snr / gamma_bar: below
    the reflected mean the integral from 0, above it one minus the upper tail;
    clipped to [0, 1] within the 1e-6 slack."""
    r = np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0))
    raw = np.zeros(r.shape)
    below = (r > 0) & (r <= c.law.tn.mu_bar)
    above = r > c.law.tn.mu_bar
    if below.any():
        raw[below] = _closed_cdf_below_mean(r[below], c)
    if above.any():
        raw[above] = _closed_cdf_above_mean(r[above], c)
    out = _check_probability(raw, "closed_snr_cdf")
    return out if out.shape else float(out)


def closed_envelope_pdf_scalar(r, c: ClosedForm):
    """``closed_envelope_pdf`` evaluated point by point with scalar ``cal_i``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mtv = c.m_tilde_v
    for idx in np.ndindex(r.shape):
        ri = r[idx]
        if ri <= 0:
            continue
        z = c.standardized(ri)
        total = 0.0
        for k in range(mtv + 1):
            total += math.comb(mtv, k) * z ** (mtv - k) * cal_i_scalar(k, -z)
        out[idx] = 2.0 * math.exp(c.log_lam - c.delta * z * z) * total
    return out if out.shape else float(out)


def snr_cdf_quadrature(y, p: SnrCdfParams):
    """``snrdist.snr_cdf`` by adaptive quadrature of the library's envelope
    density from 0 to sqrt(y), y = snr / gamma_bar, split at the reflected
    mean; relative accuracy only (``epsabs=0``), not clipped."""
    r = np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0))
    out, mu = np.zeros(r.shape), p.tn.mu_bar
    for idx in np.ndindex(r.shape):
        out[idx] = sum(quad(lambda t: envelope_pdf(t, p), lo, hi, epsabs=0.0, epsrel=1e-11,
                            limit=300)[0]
                       for lo, hi in ((0.0, min(r[idx], mu)), (mu, r[idx])) if hi > lo)
    return out if out.shape else float(out)
