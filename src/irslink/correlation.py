"""Spatially correlated surface channels and the two phase-control schemes.

The surface is a planar grid of elements; arrival and departure angles are
Gaussian around their means in both azimuth and elevation, which yields
separable correlation: a Kronecker product of an azimuth factor and an
elevation factor, each with unit diagonal.  Channels are correlated by
multiplying i.i.d. vectors with the Hermitian square roots, and the root of
a Kronecker product is the Kronecker product of the factors' roots.  Only
the small factor roots are kept, as a plain (azimuth, elevation) pair of
arrays per side, and a chunk's rows are correlated per axis on their
(azimuth x elevation) grids, never through an N x N matrix: the elevation
root as products batched over the azimuth index, then the azimuth root as
products batched over the elevation index, about a + b BLAS calls for an
a x b grid.  On grids at least two wide the products are cut into slabs of
at most 2**15 complex multiply-adds (one row where a^2 is more), below the
size at which OpenBLAS splits a product over threads of its own that contend
with the Monte-Carlo workers; a one-wide grid is the one product of its rows
with the azimuth root.

Scheme-2 co-phases against the correlated entries (the phases the
correlation square roots contribute included), achieving the per-element
modulus sum; Scheme-1 reuses the phases of the uncorrelated draws and pays
the misalignment penalty.

A Monte-Carlo chunk draws and evaluates one leg at a time, in stream order
(v, then the uniform components of g's Gamma power and g's phases, then the
same of h), from the generator ``montecarlo.map_chunks`` hands it, and
writes its two SNR rows into the slice of the run's output it is handed.
Each component of n values is one block of ceil(n / 2) raw words, whose
32-bit halves are uniforms on the midpoints of a 2**-31 grid (see
:mod:`irslink.channel`).  A leg's draws are dropped before its correlation
products, so with the phasors, correlated legs and terms a thread holds at
most about 7 (trials x N) float64 buffers of one chunk, each at most
256 KiB; the calling thread is one of the workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, SystemConfig, nakagami_sample, uniform_phase
from .errors import NumericalConsistencyError
from .montecarlo import Estimate, SimPlan, empirical_rate, map_chunks

__all__ = [
    "AngleSpread",
    "CorrelationConfig",
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

    @staticmethod
    def tiling(n_elements: int) -> tuple[int, int]:
        """Squarest (n_az, n_el) grid of ``n_elements``, n_az >= n_el."""
        n_el = math.isqrt(n_elements)
        while n_elements % n_el:
            n_el -= 1
        return n_elements // n_el, n_el

    @classmethod
    def square_surface(cls, n_elements: int, side_m: float, wavelength_m: float,
                       aoa: AngleSpread, aod: AngleSpread) -> "CorrelationConfig":
        """Squarest n_az x n_el tiling (n_az >= n_el) of a side x side surface."""
        n_az, n_el = cls.tiling(n_elements)
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


def build_correlation(cfg: CorrelationConfig) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``((arrival_az, arrival_el), (departure_az, departure_el))``: the
    Hermitian roots of the azimuth and elevation factors of R_A and R_D, so
    that ``kron(az, el)`` is the root of that side's correlation."""
    # a factor beyond the float64 range has non-finite entries, which
    # _hermitian_sqrt rejects
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return tuple((_hermitian_sqrt(corr_matrix_azimuth(cfg, spread)),
                      _hermitian_sqrt(corr_matrix_elevation(cfg, spread)))
                     for spread in (cfg.aoa, cfg.aod))


# Most complex multiply-adds in one product of ``_kron_right`` on a grid at
# least two wide: OpenBLAS (0.3.31) hands a complex product of 2**16 or more
# to threads of its own, which then contend with the Monte-Carlo workers.
_PRODUCT_CAP = 1 << 15


def _kron_right(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``x @ kron(p, q)`` for the rows of ``x``, with p and q the roots of
    two unit-diagonal factors; x is spent.

    Each row, laid out as its (a x b) grid X with a = len(p) and b = len(q),
    becomes p^T X q, applied per axis to every row at once: q as a products
    (rows x b) @ q batched over the azimuth index, whose result is copied
    transposed into x's own buffer as (b, rows, a), then p as products
    (rows x a) @ p batched over the elevation index, copied back in (rows,
    a, b) order.  So a chunk makes about a + b BLAS calls, not two per row,
    and holds one scratch array of x's size.  The products batched over the
    elevation index are split into slabs of at most ``_PRODUCT_CAP``
    multiply-adds (one row where a^2 is more), which keeps them off
    OpenBLAS's threads; a square grid's full chunk needs no split.  A
    one-wide grid (b = 1) has q = [[1]], the root of a 1 x 1 unit factor,
    and is the single product x @ p, which ran faster than any split of it.
    """
    count, a, b = x.shape[0], p.shape[0], q.shape[0]
    if b == 1:
        return x @ p
    grid = x.reshape(count, a, b)
    by_az = np.matmul(grid.transpose(1, 0, 2), q)
    by_el = grid.reshape(b, count, a)
    by_el[...] = by_az.transpose(2, 1, 0)
    out = by_az.reshape(b, count, a)
    slab = max(1, _PRODUCT_CAP // (a * a))
    for start in range(0, count, slab):
        np.matmul(by_el[:, start:start + slab], p, out=out[:, start:start + slab])
    grid[...] = out.transpose(1, 2, 0)
    return grid.reshape(x.shape)


def _turned_leg(leg: LinkParams, rng: np.random.Generator, shape: tuple[int, int],
                p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows ``x = amp * u`` of one leg, drawn from ``rng`` as its Nakagami
    amplitudes, then its phases uniform on (-pi, pi) with u their unit
    phasors, correlated as ``x @ kron(p, q)`` and turned back by ``conj(u)``.

    The amplitudes and phases are dropped once x is formed.  u is evaluated
    at float32 precision (numpy's float32 SIMD cos/sin) into a complex64
    array, which holds it exactly, and widened where it multiplies; that is
    equivalent to perturbing each phase by at most about 2**-22 rad, while
    draws and products stay float64."""
    amp = nakagami_sample(leg.m, leg.zeta, rng, shape)
    phase = uniform_phase(math.pi, rng, shape)
    u = np.empty(shape, dtype=np.complex64)
    np.cos(phase, out=u.real, dtype=np.float32, casting="same_kind")
    np.sin(phase, out=u.imag, dtype=np.float32, casting="same_kind")
    del phase
    x = u * amp
    del amp
    rows = _kron_right(x, p, q)
    rows *= np.conjugate(u, out=u)
    return rows


def _scheme_snr_chunk(cfg: SystemConfig, roots: tuple[tuple[np.ndarray, np.ndarray], ...],
                      rng: np.random.Generator, out: np.ndarray) -> None:
    """Received SNRs per unit transmit SNR of one chunk, written into the
    rows (scheme 1, scheme 2) of ``out``.

    Scheme 1 turns element n by phi_v - arg g_n - arg h_n of the i.i.d.
    draws.  The direct-link phase phi_v is common to every term and cancels
    in |.|^2, so it is not drawn; what is left is the sum of
    g~_n conj(u_g,n) h~_n conj(u_h,n).  Scheme 2 co-phases every term, so its
    SNR takes the moduli of the same terms.
    """
    count = out.shape[-1]
    shape = (count, cfg.n_elements)
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)
    (arr_az, arr_el), (dep_az, dep_el) = roots
    # rows g^T -> g^T R_D^(1/2)
    terms = _turned_leg(cfg.g, rng, shape, dep_az, dep_el)
    # rows h^T -> (R_A^(1/2) h)^T = h^T kron(az, el)^T
    terms *= _turned_leg(cfg.h, rng, shape, arr_az.T, arr_el.T)
    terms *= cfg.eta
    out[0] = np.abs(v + terms.sum(axis=1)) ** 2
    out[1] = (v + np.abs(terms).sum(axis=1)) ** 2


def simulate_scheme_rates(cfg: SystemConfig, corr: CorrelationConfig,
                          plan: SimPlan) -> dict[int, Estimate]:
    """Average rate of both schemes at ``cfg.gamma_bar`` over shared channel draws."""
    if corr.n_total != cfg.n_elements:
        raise ValueError("correlation grid size must match n_elements")
    snr = map_chunks(functools.partial(_scheme_snr_chunk, cfg, build_correlation(corr)), plan,
                     cfg.n_elements, (2,))
    return {s: empirical_rate(cfg.gamma_bar * snr[s - 1]) for s in (1, 2)}
