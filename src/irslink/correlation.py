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
root as one product over every grid line of the chunk, then the azimuth
root as one more, two BLAS calls per leg.  OpenBLAS splits products that
large over threads of its own, which contend with the Monte-Carlo workers:
a caller that runs several workers should hold OpenBLAS to one thread, as
``cli.main`` does, or the correlation products at N = 128 to 144 run up to
twice as slow.

Scheme-2 co-phases against the correlated entries (the phases the
correlation square roots contribute included), achieving the per-element
modulus sum; Scheme-1 reuses the phases of the uncorrelated draws and pays
the misalignment penalty.

A Monte-Carlo chunk draws and evaluates one leg at a time, in stream order
(v, then the uniform components of g's Gamma power and g's phases, then the
same of h), from the generator ``montecarlo.map_chunks`` hands it, and
writes its rows into the slice of the run's output it is handed.  Each
component of n values is one block of ceil(n / 2) raw words, whose 32-bit
halves are uniforms on the midpoints of a 2**-31 grid (see
:mod:`irslink.channel`).  A leg's draws are dropped before its correlation
products, so with the phasors, correlated legs and terms a thread holds at
most about 7 (trials x N) float64 buffers of one chunk, each at most
256 KiB; the calling thread is one of the workers.

The rows are the two SNRs, then v, Re S, sum |t_n|^2 and sum |t_n|^4 of
the scheme terms t_n and their sum S: the control variates of both schemes'
rates are formed from those four (:func:`fit_scheme_rates`), and their exact
means take O(a^2 + b^2) from the factor roots
(:func:`scheme_control_means`).  Scheme 1's mean SNR follows from them, and
with it a Jensen bound on its rate (:func:`scheme1_rate_bound`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LinkParams, SystemConfig, nakagami_sample, uniform_phase
from .cltapprox import w_stats
from .errors import NumericalConsistencyError
from .metrics import direct_moment, log2_1p_product
from .montecarlo import (ControlVariates, Estimate, SimPlan, control_variate_cells, empirical_rate,
                         map_chunks)

__all__ = [
    "AngleSpread",
    "CorrelationConfig",
    "corr_matrix_azimuth",
    "corr_matrix_elevation",
    "build_correlation",
    "simulate_scheme_rates",
    "scheme_control_means",
    "scheme1_rate_bound",
    "fit_scheme_rates",
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


def _kron_right(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``x @ kron(p, q)`` for the rows of ``x``, with p and q the roots of
    two unit-diagonal factors; x is spent.

    Each row, laid out as its (a x b) grid X with a = len(p) and b = len(q),
    becomes p^T X q, applied per axis to every row at once in two products:
    the (rows a x b) @ q of every row's grid lines into one scratch array,
    copied transposed into x's own buffer as (rows, b, a), then the (rows b
    x a) @ p of those into the scratch, copied back in (rows, a, b) order.
    So a chunk makes two BLAS calls per leg and holds one scratch array of
    x's size.
    """
    count, a, b = x.shape[0], p.shape[0], q.shape[0]
    scratch = np.matmul(x.reshape(count * a, b), q)
    x.reshape(count, b, a)[...] = scratch.reshape(count, a, b).transpose(0, 2, 1)
    np.matmul(x.reshape(count * b, a), p, out=scratch.reshape(count * b, a))
    x.reshape(count, a, b)[...] = scratch.reshape(count, b, a).transpose(0, 2, 1)
    return x


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
    """One chunk's rows per unit transmit SNR, written into the rows of
    ``out``: the SNRs of scheme 1 and scheme 2, then the rows the controls
    are formed from, v, S_r = Re S, sum |t_n|^2 and sum |t_n|^4.

    Scheme 1 turns element n by phi_v - arg g_n - arg h_n of the i.i.d.
    draws.  The direct-link phase phi_v is common to every term and cancels
    in |.|^2, so it is not drawn; what is left is S, the sum of the terms
    t_n = eta g~_n conj(u_g,n) h~_n conj(u_h,n), and the SNR |v + S|^2.
    Scheme 2 co-phases every term, so its SNR (v + sum |t_n|)^2 takes the
    moduli of the same terms.  Sums of squares that leave the float64 range
    are infinite, a control the fit drops.
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
    s = terms.sum(axis=1)
    out[0] = np.abs(v + s) ** 2
    moduli = np.abs(terms)
    out[1] = (v + moduli.sum(axis=1)) ** 2
    out[2] = v
    out[3] = s.real
    with np.errstate(over="ignore"):
        moduli *= moduli
        moduli.sum(axis=1, out=out[4])
        moduli *= moduli
        moduli.sum(axis=1, out=out[5])


def simulate_scheme_rates(cfg: SystemConfig, roots: tuple[tuple[np.ndarray, np.ndarray], ...],
                          plan: SimPlan) -> np.ndarray:
    """The ``(6, trials)`` rows of one draw that the rates of both schemes
    are estimated from (:func:`fit_scheme_rates`), per unit transmit SNR:
    the SNRs of scheme 1 and scheme 2 over shared channel draws, then v,
    S_r, sum |t_n|^2 and sum |t_n|^4 (``_scheme_snr_chunk``), with the
    factor roots ``roots`` of ``build_correlation``."""
    if any(len(az) * len(el) != cfg.n_elements for az, el in roots):
        raise ValueError("correlation grid size must match n_elements")
    return map_chunks(functools.partial(_scheme_snr_chunk, cfg, roots), plan, cfg.n_elements,
                      (6,))


def _quartic_sums(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k |K_kn|^4 of each column n of K = kron(p, q): the Kronecker
    product of the factors' column sums, in O(a^2 + b^2)."""
    return np.kron((np.abs(p) ** 4).sum(axis=0), (np.abs(q) ** 4).sum(axis=0))


def scheme_control_means(cfg: SystemConfig,
                         roots: tuple[tuple[np.ndarray, np.ndarray], ...]) -> tuple[float, ...]:
    """Exact means of the controls v, v^2, S_r, v S_r, |S|^2, sum |t_n|^2 and
    sum |t_n|^4 of a scheme draw (:func:`_scheme_snr_chunk`), from the factor
    roots of ``build_correlation`` in O(a^2 + b^2), never through an N x N
    matrix.

    A leg's correlated entry g~_n = sum_k x_k K_kn, with x_k = a_k u_k
    i.i.d. and circular, has E g~_n conj(u_n) = E a K_nn and, as each column
    of the root of a unit-diagonal factor has unit norm, E |g~_n|^2 = kappa
    and E |g~_n|^4 = 2 kappa^2 + sum_k |K_kn|^4 (E a^4 - 2 kappa^2), with
    E a^4 = kappa^2 (1 + 1/m).  So with c_n = (K_D)_nn (K_A)_nn, E X = eta
    E g E h and P = eta^2 kappa_g kappa_h: E S = E X sum c_n, E |S|^2 = N P +
    (E X)^2 ((sum c_n)^2 - sum c_n^2), E sum |t_n|^2 = N P and E sum |t_n|^4
    = P^2 sum_n (2 + q_g,n (1/m_g - 1)) (2 + q_h,n (1/m_h - 1)), q_n =
    sum_k |K_kn|^4 of the leg's root.  The diagonal of a Kronecker product is
    the Kronecker product of the diagonals, and the quartic column sums are
    those of the factors (``_quartic_sums``)."""
    (arr_az, arr_el), (dep_az, dep_el) = roots
    n, g, h = cfg.n_elements, cfg.g, cfg.h
    c = np.kron(np.diag(dep_az).real * np.diag(arr_az).real,
                np.diag(dep_el).real * np.diag(arr_el).real)
    sum_c, sum_c2 = float(c.sum()), float((c * c).sum())
    e_x = w_stats(replace(cfg, n_elements=1)).mu_bar  # the mean of one product eta g h
    power = cfg.eta * cfg.eta * (g.kappa * h.kappa)
    quartic = float(((2.0 + _quartic_sums(dep_az, dep_el) * (1.0 / g.m - 1.0))
                     * (2.0 + _quartic_sums(arr_az.T, arr_el.T) * (1.0 / h.m - 1.0))).sum())
    e_v, e_s = direct_moment(cfg, 1), e_x * sum_c
    return (e_v, cfg.v.kappa, e_s, e_v * e_s, n * power + e_x * e_x * (sum_c * sum_c - sum_c2),
            n * power, power * power * quartic)


def scheme1_rate_bound(cfg: SystemConfig, means: tuple[float, ...]) -> float:
    """Jensen's upper bound log2(1 + gamma_bar E snr_1) on scheme 1's mean
    rate at ``cfg.gamma_bar``, with E snr_1 = kappa_v + 2 E v E S + E |S|^2
    from the control means ``means`` (:func:`scheme_control_means`).
    Scheme 2 has no such bound here: E snr_2 = E (v + sum |t_n|)^2 needs
    E |t_n| |t_m|, which has no closed form for correlated legs."""
    e_snr = means[1] + 2.0 * means[3] + means[4]
    return float(log2_1p_product(np.asarray(cfg.gamma_bar), e_snr))


def fit_scheme_rates(cfg: SystemConfig, means: tuple[float, ...],
                     rows: np.ndarray) -> list[list[tuple[Estimate, float]]]:
    """Per scheme, the one cell of a draw of :func:`simulate_scheme_rates`
    at ``cfg.gamma_bar``: the control-variate estimate of the mean rate and
    the plain half-width.  The controls v, v^2, S_r, v S_r, |S|^2 =
    snr_1 - v (v + 2 S_r), sum |t_n|^2 and sum |t_n|^4, with the exact means
    ``means``, are fitted once and serve both schemes; snr_1 lies in their
    span, so it is no control of its own."""
    snr1, snr2, v, s_r, t2, t4 = rows
    # an infinite or undefined control is dropped by the fit
    with np.errstate(over="ignore", invalid="ignore"):
        controls = ControlVariates.fit(
            np.stack([v, v * v, s_r, v * s_r, snr1 - v * (v + 2.0 * s_r), t2, t4]), means)
    return [control_variate_cells(empirical_rate, controls, [(cfg.gamma_bar * snr,)])
            for snr in (snr1, snr2)]
