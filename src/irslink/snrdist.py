"""Distribution of the phase-optimized received SNR per unit transmit SNR.

Co-phasing turns the received envelope into R = v + W, the Nakagami direct
amplitude plus the reflected sum, a normal law truncated to [0, inf); the SNR
is gamma_bar * R^2.  One law serves every m_v in [1/2, 1e12] and N >= 1: the
positive integral P(R <= r) = int_0^r f_v(x) F_W(r - x) dx, with F_W in log
space as ``TruncatedNormal.log_cdf`` gives it (past the mean of R, one minus
the same integral of 1 - F_W, ``log_sf``), and the density likewise with f_W
(``log_pdf``), on fixed Gauss rules vectorized over r.  The paper's
closed form (``specfun.cal_j``, m_v a multiple of 1/2 only) is the reference
the tests compare it against (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .channel import SystemConfig
from .cltapprox import TruncatedNormal, w_stats
from .errors import NumericalConsistencyError
# Not called here: the benchmark tracer wraps these names in this module, and
# tests/test_tooling.py::test_every_traced_name_resolves pins them.
from .specfun import cal_i, cal_j, cal_j_between  # noqa: F401

__all__ = ["SnrCdfParams", "envelope_pdf", "envelope_cdf", "snr_cdf", "snr_pdf"]

# Numerical slack on CDF values: clamp within it, error beyond it.
_CDF_ERROR = 1e-6

# Gauss nodes per panel; panel edges at the centre of each leg and _REACH of
# its spreads either side; edges within _SNAP spreads of 0 move to 0.
_NODES = 48
_REACH = 8.0
_SNAP = 0.25

# The largest m_v the law is checked at (to 1e-10 relative): nodes near the mode
# of v are rounded to an ulp of sqrt(kappa_v), which costs about 1e-16 sqrt(m_v).
_MAX_SHAPE = 1e12


@dataclass(frozen=True)
class SnrCdfParams:
    """The two legs of R = v + W: the Nakagami shape and spread of v, and the
    truncated-normal law of W."""

    m_v: float
    kappa_v: float
    tn: TruncatedNormal

    def __post_init__(self):
        if not self.m_v <= _MAX_SHAPE:
            raise NumericalConsistencyError(f"m_v={self.m_v:g} is past {_MAX_SHAPE:g}, "
                                            "the largest shape the law is checked at")

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "SnrCdfParams":
        return cls(m_v=cfg.v.m, kappa_v=cfg.v.kappa, tn=w_stats(cfg))


@functools.cache
def _gauss_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in (0, 1) and log weights of the ``_NODES``-point Gauss rule for
    the integral of t^beta g(t) over [0, 1]: Golub-Welsch on the Jacobi recurrence
    of the weight (1 + s)^beta on [-1, 1] (beta = 0 is Gauss-Legendre)."""
    k = np.arange(1, _NODES, dtype=float)
    s = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    roots, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + roots), np.log(vectors[0] ** 2 / (beta + 1.0))


def _log_gamma_mode(m: float) -> float:
    """m log m - m - log Gamma(m), which is O(log m): from m = 20 by Stirling's
    series (next term 1e-17), where the direct difference loses m log m ulps."""
    if m < 20.0:
        return m * math.log(m) - m - float(sc.gammaln(m))
    series = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
    return 0.5 * math.log(m / (2.0 * math.pi)) - sum(c / m ** (2 * k + 1)
                                                     for k, c in enumerate(series))


def _convolve(r: np.ndarray, p: SnrCdfParams, lower: np.ndarray, log_kernel) -> np.ndarray:
    """The integral over [lower, r] of f_v(x) K(r - x) dx at each r > 0, with
    K = exp(log_kernel(w)), w >= 0, on panels split at the mode of v and at
    r - mu_bar, each with _REACH spreads either side."""
    m, kappa, tn = p.m_v, p.kappa_v, p.tn
    shape, frac = 2.0 * m - 1.0, (2.0 * m - 1.0) % 1.0
    reach = _REACH * np.array([-1.0, 0.0, 1.0])
    w_edges = (r - tn.mu_bar)[:, None] + tn.sigma_bar * reach
    v_scale = math.sqrt(kappa)
    v_spread = v_scale / math.sqrt(2.0 * m)
    v_edges = v_scale * math.sqrt(shape / (2.0 * m)) + v_spread * reach
    # the panel from 0 then holds x^frac: no Gauss-Legendre panel starts just above it
    w_edges[w_edges < _SNAP * tn.sigma_bar] = 0.0
    v_edges[v_edges < _SNAP * v_spread] = 0.0
    edges = np.concatenate([w_edges, np.broadcast_to(v_edges, (r.size, 3)),
                            lower[:, None], r[:, None]], axis=1)
    edges = np.sort(np.clip(edges, lower[:, None], r[:, None]), axis=1)
    width = np.diff(edges, axis=1)
    row, col = np.nonzero(width > 0)
    lo, h = edges[row, col], width[row, col]

    # the panel from 0 takes the Jacobi rule of (x / h)^frac, every other one
    # Gauss-Legendre; rows of the stacked tables: 0 Legendre, 1 Jacobi
    rule = (lo == 0.0).astype(np.intp)
    legendre, jacobi = _gauss_rule(0.0), _gauss_rule(frac)
    x = np.stack([legendre[0], jacobi[0]])[rule] * h[:, None] + lo[:, None]
    # log f_v(x) = log(2 / sqrt(kappa)) + (m log m - m - log Gamma(m)) + shape log t
    # - m (t^2 - 1), t = x / sqrt(kappa): the last two cancel to O(1) near t = 1, each
    # exact to an ulp of t - 1, so no m log m term enters. Jacobi panels drop frac log(x/h).
    panel_log = (math.log(2.0 / v_scale) + _log_gamma_mode(m) + np.log(h)
                 + frac * rule * np.log(h / v_scale))
    # a node that underflows to 0 (r subnormal) would make power 0 times log 0
    t = np.maximum(x / v_scale, np.finfo(float).tiny)
    terms = (log_kernel(r[row, None] - x) + np.stack([legendre[1], jacobi[1]])[rule]
             + panel_log[:, None] + (shape - frac * rule)[:, None] * np.log(t)
             - m * ((t - 1.0) * (t + 1.0)))
    return np.bincount(row, np.exp(terms).sum(axis=1), minlength=r.size)


def _positive_part(r, evaluate):
    """``evaluate`` on the entries r > 0, 0 for r <= 0 and NaN for NaN."""
    r = np.asarray(r, dtype=float)
    out = np.where(np.isnan(r), np.nan, 0.0)
    inside = r > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out[inside] = evaluate(r[inside])
    return out


def envelope_pdf(r, p: SnrCdfParams):
    """PDF of the received envelope R = v + W (zero for r <= 0)."""
    out = _positive_part(r, lambda rr: _convolve(rr, p, np.zeros(rr.shape), p.tn.log_pdf))
    return out if out.shape else float(out)


def _check_probability(raw: np.ndarray, where: str) -> np.ndarray:
    bad = (raw < -_CDF_ERROR) | (raw > 1.0 + _CDF_ERROR) | np.isnan(raw)
    if bad.any():
        raise NumericalConsistencyError(
            f"{where} evaluated to {float(raw[bad].flat[0])!r}, outside [0,1] "
            "beyond the 1e-6 slack")
    return np.clip(raw, 0.0, 1.0)


def envelope_cdf(r, p: SnrCdfParams):
    """CDF of the envelope, evaluated over the whole array of r at once: up to
    about the mean of R, sqrt(kappa_v) + mu_bar, as a sum of positive terms,
    past it as one minus such a sum for the upper tail."""
    m, kappa, tn = p.m_v, p.kappa_v, p.tn
    def evaluate(rr):
        # below: the Gamma CDF of v where F_W(r - x) = 1, up to r - mu_bar - _REACH
        # sigma_bar (moved to 0 like the other edges), then f_v F_W; past: P(v > r) + f_v (1 - F_W)
        upper = rr > tn.mu_bar + math.sqrt(kappa)
        head = rr - tn.mu_bar - _REACH * tn.sigma_bar
        head[upper | (head < _SNAP * tn.sigma_bar)] = 0.0
        small = np.where(upper, sc.gammaincc(m, m / kappa * rr * rr),
                        sc.gammainc(m, m / kappa * head * head))
        small[~upper] += _convolve(rr[~upper], p, head[~upper], tn.log_cdf)
        small[upper] += _convolve(rr[upper], p, head[upper], tn.log_sf)
        return np.where(upper, 1.0 - small, small)

    out = _check_probability(_positive_part(r, evaluate), "envelope_cdf")
    return out if out.shape else float(out)


def snr_cdf(y, p: SnrCdfParams):
    """CDF of R^2 = snr / gamma_bar at y: P(snr <= t) is the CDF at t / gamma_bar."""
    return envelope_cdf(np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)), p)


def snr_pdf(y, p: SnrCdfParams):
    """PDF of R^2 at y = snr / gamma_bar, the envelope density carried through
    r = sqrt(y); the SNR has density ``snr_pdf(snr / gamma_bar) / gamma_bar``."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("snr_pdf requires y > 0")
    r = np.sqrt(y)
    val = envelope_pdf(r, p) / (2.0 * r)
    return val if val.shape else float(val)
