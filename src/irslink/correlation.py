"""Spatially correlated surface channels and the two phase-control schemes.

The surface is a planar grid of elements; arrival and departure angles are
Gaussian around their means in both azimuth and elevation, which yields
separable correlation: a Kronecker product of an azimuth factor and an
elevation factor, each with unit diagonal.  Channels are correlated by
multiplying i.i.d. vectors with the Hermitian square roots, and the root of
a Kronecker product is the Kronecker product of the factors' roots.  Only
the small factor roots are kept: a row vector is correlated as two small
matrix products on its (azimuth x elevation) grid, never through an N x N
matrix.

Scheme-2 co-phases against the correlated entries (the phases the
correlation square roots contribute included), achieving the per-element
modulus sum; Scheme-1 reuses the phases of the uncorrelated draws and pays
the misalignment penalty.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, nakagami_sample
from .errors import NumericalConsistencyError
from .montecarlo import Estimate, SimPlan, _mean_estimate, chunk_rng, map_chunks

__all__ = [
    "AngleSpread",
    "CorrelationConfig",
    "KroneckerRoot",
    "CorrelationMatrices",
    "corr_matrix_azimuth",
    "corr_matrix_elevation",
    "build_correlation",
    "simulate_scheme_rates",
]

_EIG_CLIP = -1e-10


@dataclass(frozen=True)
class AngleSpread:
    """Mean and standard deviation (radians) of azimuth/elevation angles."""

    mean_az: float
    std_az: float
    mean_el: float
    std_el: float

    def __post_init__(self):
        if self.std_az < 0 or self.std_el < 0:
            raise ValueError("angle spreads must be nonnegative")


@dataclass(frozen=True)
class CorrelationConfig:
    """Element grid plus angle statistics for arrivals (aoa) and departures (aod).

    Spacings are in wavelength multiples.
    """

    n_az: int
    n_el: int
    d_az: float
    d_el: float
    aoa: AngleSpread
    aod: AngleSpread

    def __post_init__(self):
        if self.n_az < 1 or self.n_el < 1:
            raise ValueError("grid dimensions must be positive")
        if self.d_az <= 0 or self.d_el <= 0:
            raise ValueError("element spacings must be positive")

    @property
    def n_total(self) -> int:
        return self.n_az * self.n_el

    @classmethod
    def square_surface(cls, n_elements: int, side_m: float, wavelength_m: float,
                       aoa: AngleSpread, aod: AngleSpread) -> "CorrelationConfig":
        """Squarest n_az x n_el tiling (n_az >= n_el) of a side x side surface."""
        n_el = int(math.isqrt(n_elements))
        while n_elements % n_el:
            n_el -= 1
        n_az = n_elements // n_el
        return cls(n_az=n_az, n_el=n_el,
                   d_az=side_m / n_az / wavelength_m,
                   d_el=side_m / n_el / wavelength_m,
                   aoa=aoa, aod=aod)


def corr_matrix_elevation(cfg: CorrelationConfig, spread: AngleSpread) -> np.ndarray:
    """Elevation factor: linear phase ramp damped by the angular spread."""
    n = cfg.n_el
    psi, delta = spread.mean_el, spread.std_el
    diff = np.arange(n)[None, :] - np.arange(n)[None, :].T  # y - x
    c = 2.0 * math.pi * cfg.d_el * diff
    return np.exp(1j * c * math.cos(psi)) * np.exp(-0.5 * (delta * c) ** 2 * math.sin(psi) ** 2)


def corr_matrix_azimuth(cfg: CorrelationConfig, spread: AngleSpread) -> np.ndarray:
    """Azimuth factor: joint Gaussian smearing over both angle spreads."""
    n = cfg.n_az
    omega, nu = spread.mean_az, spread.std_az
    psi, delta = spread.mean_el, spread.std_el
    diff = np.arange(n)[None, :] - np.arange(n)[None, :].T  # t - r
    u = 2.0 * math.pi * cfg.d_az * diff
    a1 = u * math.sin(psi)
    a2 = delta * u * math.cos(psi)
    a3 = (a2 * nu * math.sin(omega)) ** 2 + 1.0
    damp = np.exp(-(a2**2 * math.cos(omega) ** 2 + (a1 * nu) ** 2 * math.sin(omega) ** 2)
                  / (2.0 * a3))
    return a3 ** (-0.5) * damp * np.exp(1j * a1 * math.cos(omega) / a3)


def _hermitian_sqrt(r: np.ndarray) -> np.ndarray:
    """Hermitian root of a correlation factor; a factor float64 cannot carry
    (non-finite entries, or clearly negative eigenvalues) is an error."""
    if not np.all(np.isfinite(r)):
        raise NumericalConsistencyError("correlation factor has non-finite entries")
    vals, vecs = np.linalg.eigh(r)
    if np.min(vals) < _EIG_CLIP * max(1.0, float(np.max(np.abs(vals)))):
        raise NumericalConsistencyError(
            f"correlation factor is not PSD: min eigenvalue {np.min(vals):.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class KroneckerRoot:
    """Hermitian root ``kron(az, el)`` of one side's correlation, kept as the
    Hermitian roots of its azimuth and elevation factors."""

    az: np.ndarray
    el: np.ndarray


@dataclass(frozen=True)
class CorrelationMatrices:
    """Roots of the arrival (R_A) and departure (R_D) correlation."""

    arrival: KroneckerRoot
    departure: KroneckerRoot


def build_correlation(cfg: CorrelationConfig) -> CorrelationMatrices:
    """Hermitian roots of the azimuth and elevation factors of R_A and R_D."""
    # a factor beyond the float64 range has non-finite entries, which
    # _hermitian_sqrt rejects
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return CorrelationMatrices(*(
            KroneckerRoot(az=_hermitian_sqrt(corr_matrix_azimuth(cfg, spread)),
                          el=_hermitian_sqrt(corr_matrix_elevation(cfg, spread)))
            for spread in (cfg.aoa, cfg.aod)))


def _kron_right(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``x @ kron(p, q)`` for the rows of ``x``, written over ``x``: each row,
    laid out as its (len(p) x len(q)) grid X, becomes p^T X q, two small
    matrix products."""
    grid = x.reshape(x.shape[0], p.shape[0], q.shape[0])
    np.matmul(p.T, grid @ q, out=grid)
    return grid.reshape(x.shape)


def _cophased_leg(m: float, zeta: float, rng: np.random.Generator, shape, p: np.ndarray,
                  q: np.ndarray) -> np.ndarray:
    """One leg drawn i.i.d. as rows ``x = a * u`` (Nakagami amplitude a, unit
    phasor u), correlated as ``x @ kron(p, q)`` and turned back by ``conj(u)``.

    u is evaluated at float32 precision (numpy's float32 SIMD cos/sin, widened
    into the complex128 buffer), which is equivalent to perturbing each phase
    by at most about 2**-22 rad; draws and products stay float64, and results
    stay identical for any worker count."""
    amp = nakagami_sample(m, zeta, rng, shape)
    phase = rng.uniform(-math.pi, math.pi, shape)
    u = np.empty(shape, dtype=complex)
    np.cos(phase, out=u.real, dtype=np.float32, casting="same_kind")
    np.sin(phase, out=u.imag, dtype=np.float32, casting="same_kind")
    x = u * amp
    del amp, phase  # keeps at most four (count x N) buffers per leg alive
    rows = _kron_right(x, p, q)
    rows *= np.conjugate(u, out=u)
    return rows


def _scheme_snr_chunk(cfg: SystemConfig, mats: CorrelationMatrices, seed: int,
                      index: int, count: int) -> np.ndarray:
    """Received SNRs of one chunk, rows (scheme 1, scheme 2).

    Scheme 1 turns element n by phi_v - arg g_n - arg h_n of the i.i.d.
    draws.  The direct-link phase phi_v is common to every term and cancels
    in |.|^2, so it is not drawn; what is left is the sum of
    g~_n conj(u_g,n) h~_n conj(u_h,n).  Scheme 2 co-phases every term, so its
    SNR takes the moduli of the same terms.
    """
    rng = chunk_rng(seed, index)
    shape = (count, cfg.n_elements)
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)
    dep, arr = mats.departure, mats.arrival
    # rows g^T -> g^T R_D^(1/2)
    terms = _cophased_leg(cfg.g.m, cfg.g.zeta, rng, shape, dep.az, dep.el)
    # rows h^T -> (R_A^(1/2) h)^T = h^T kron(az, el)^T
    terms *= _cophased_leg(cfg.h.m, cfg.h.zeta, rng, shape, arr.az.T, arr.el.T)
    terms *= cfg.eta
    snr = np.empty((2, count))
    snr[0] = cfg.gamma_bar * np.abs(v + terms.sum(axis=1)) ** 2
    snr[1] = cfg.gamma_bar * (v + np.abs(terms).sum(axis=1)) ** 2
    return snr


def simulate_scheme_rates(cfg: SystemConfig, corr: CorrelationConfig,
                          plan: SimPlan) -> dict[int, Estimate]:
    """Average achievable rate of both schemes over shared channel draws."""
    if corr.n_total != cfg.n_elements:
        raise ValueError("correlation grid size must match n_elements")
    mats = build_correlation(corr)
    snr = map_chunks(functools.partial(_scheme_snr_chunk, cfg, mats, plan.seed), plan.trials,
                     cfg.n_elements, plan.workers)
    rates = np.log2(1.0 + snr)
    return {1: _mean_estimate(rates[0]), 2: _mean_estimate(rates[1])}
