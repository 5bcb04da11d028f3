"""Monte-Carlo oracle: exact-SNR simulation and plug-in metric estimators.

Sampling is organized in fixed-size chunks of trials.  Chunk ``i`` draws
from its own generator, seeded by ``(seed, i)`` alone, and the chunk size
depends only on the element count, so which thread runs a chunk, and how many
workers there are, never changes a draw: results are bit-identical for any
worker count and chunks can run on a thread pool.

Unit phasors (the cos and sin of a phase) are evaluated at float32 precision
and widened into float64 buffers; every draw, product and sum stays float64.
That is equivalent to perturbing each phase by at most about 2**-22 rad, and
being elementwise it keeps results identical for any worker count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import SystemConfig, nakagami_sample
from .specfun import gaussian_q

__all__ = [
    "BIT_GENERATOR",
    "SimPlan",
    "Estimate",
    "chunk_rng",
    "map_chunks",
    "simulate_snr_samples",
    "reflected_sum_samples",
    "empirical_cdf",
    "empirical_outage",
    "empirical_rate",
    "empirical_rate_ratio",
    "empirical_ber",
    "fit_loglog_slope",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimPlan:
    """How to run one simulation: size, reproducibility, parallelism.

    ``quantization_bits`` lists the phase-quantization widths simulated
    beside continuous (ideal) phases, all from the same amplitude draws.
    """

    trials: int
    seed: int = 0
    workers: int = 1
    quantization_bits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if any(bits < 1 for bits in self.quantization_bits):
            raise ValueError("quantization_bits must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """Scalar plug-in estimate with a 95% confidence interval."""

    value: float
    ci_low: float
    ci_high: float


# The bit generator of every chunk stream; the manifest names it.
BIT_GENERATOR = np.random.SFC64


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator of chunk ``chunk_index``: a ``BIT_GENERATOR`` stream seeded
    by ``SeedSequence(seed, spawn_key=(chunk_index,))``.

    The spawn key gives every chunk a statistically independent stream that
    depends on nothing but (seed, chunk index), never on the thread or the
    order in which chunks run.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(BIT_GENERATOR(ss))


def _chunk_size(n_elements: int) -> int:
    """Trials per chunk: each (trials x N) float64 buffer is about 2 MB, so a
    chunk's buffers stay cache-sized and a run splits into many chunks that
    the workers share evenly.  The streams depend on it."""
    return max(256, (1 << 18) // n_elements)


def map_chunks(kernel: Callable[[int, int], np.ndarray], trials: int, n_elements: int,
               workers: int) -> np.ndarray:
    """``kernel(index, count)`` over consecutive chunks of
    ``_chunk_size(n_elements)`` trials, joined along the last axis.  Chunk
    ``index`` draws from ``chunk_rng(seed, index)``, so the result does not
    depend on ``workers``; with more than one worker the chunks run on a
    thread pool."""
    size = _chunk_size(n_elements)
    bounds = [(i, min(size, trials - start)) for i, start in enumerate(range(0, trials, size))]
    if workers == 1 or len(bounds) == 1:
        parts = [kernel(i, c) for i, c in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda bound: kernel(*bound), bounds))
    return np.concatenate(parts, axis=-1)


def _reflected_products(cfg: SystemConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, N) per-element amplitude products eta g_n h_n of one chunk."""
    prod = nakagami_sample(cfg.g.m, cfg.g.zeta, rng, (count, cfg.n_elements))
    prod *= nakagami_sample(cfg.h.m, cfg.h.zeta, rng, (count, cfg.n_elements))
    prod *= cfg.eta
    return prod


def reflected_sum_samples(cfg: SystemConfig, plan: SimPlan) -> np.ndarray:
    """Samples of the co-phased reflected sum W; no direct link is drawn."""
    def chunk(index: int, count: int) -> np.ndarray:
        return _reflected_products(cfg, chunk_rng(plan.seed, index), count).sum(axis=1)
    return map_chunks(chunk, plan.trials, cfg.n_elements, plan.workers)


def _simulate_chunk(cfg: SystemConfig, plan: SimPlan, index: int, count: int) -> np.ndarray:
    """SNR samples of one chunk: one row for continuous phases, then one per
    quantization width; flat when no width is set.

    The cos and sin of the phase errors run in numpy's float32 SIMD loops,
    which take the float64 errors in small cast blocks and widen the result
    into the float64 buffer, so no (count x N) float32 array is allocated."""
    rng = chunk_rng(plan.seed, index)
    widths = plan.quantization_bits
    rows = np.empty((1 + len(widths), count))
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)
    # In place on (count, N) buffers: at most four are alive per chunk.
    prod = _reflected_products(cfg, rng, count)
    rows[0] = cfg.gamma_bar * (v + prod.sum(axis=1)) ** 2
    if widths:
        # One draw at the widest interval serves every width:
        # uniform(-tau, tau) is -tau + 2 tau u with tau = pi / 2**bits, so
        # scaling by a power of two gives bit for bit the draw a run with
        # that width alone makes after the amplitude draws.
        base = min(widths)
        tau = math.pi / 2**base
        widest = rng.uniform(-tau, tau, (count, cfg.n_elements))
        eps, trig = np.empty_like(widest), np.empty_like(widest)
        for row, bits in enumerate(widths, 1):
            np.multiply(widest, 2.0 ** (base - bits), out=eps)
            np.cos(eps, out=trig, dtype=np.float32, casting="same_kind")
            trig *= prod
            w_re = trig.sum(axis=1)
            np.sin(eps, out=trig, dtype=np.float32, casting="same_kind")
            trig *= prod
            w_im = trig.sum(axis=1)
            rows[row] = cfg.gamma_bar * ((v + w_re) ** 2 + w_im**2)
    return rows if widths else rows[0]


def simulate_snr_samples(cfg: SystemConfig, plan: SimPlan) -> np.ndarray:
    """Exact optimized-SNR samples, with continuous and quantized phases.

    Every trial draws fresh leg amplitudes.  Without quantization widths the
    result is the (trials,) continuous-phase sample.  With widths ``bits`` it
    is a (1 + len(bits), trials) array: row 0 with continuous phases, row k
    with phases quantized to ``bits[k-1]``, where each element gets a phase
    error uniform on [-tau, tau), tau = pi / 2**bits.  Each row equals bit for
    bit the row of a run with that width alone, for any worker count.  The
    phase-error phasors are evaluated at float32 precision, which is
    equivalent to a phase perturbation of at most about 2**-22 rad; row 0
    takes no trig and is exact float64.
    """
    return map_chunks(functools.partial(_simulate_chunk, cfg, plan), plan.trials,
                      cfg.n_elements, plan.workers)


def empirical_cdf(samples: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Right-continuous step CDF of the sample set."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_cdf requires a nonempty sample")
    sorted_s = np.sort(samples)

    def cdf(x):
        return np.searchsorted(sorted_s, np.asarray(x, dtype=float), side="right") / sorted_s.size

    return cdf


def _mean_estimate(values: np.ndarray) -> Estimate:
    n = values.size
    mean = float(values.mean())
    half = _Z95 * float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return Estimate(mean, mean - half, mean + half)


def empirical_outage(samples: np.ndarray, gamma_th: float) -> Estimate:
    """Proportion of trials below threshold, with a binomial 95% CI."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_outage requires a nonempty sample")
    n = samples.size
    p = float(np.count_nonzero(samples <= gamma_th)) / n
    half = _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return Estimate(p, max(p - half, 0.0), min(p + half, 1.0))


def empirical_rate(samples: np.ndarray) -> Estimate:
    """Mean spectral efficiency log2(1 + snr) over the trials."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_rate requires a nonempty sample")
    return _mean_estimate(np.log2(1.0 + samples))


def empirical_rate_ratio(samples: np.ndarray, reference: np.ndarray) -> Estimate:
    """Ratio of the mean rates log2(1 + snr) of two paired samples.

    Trial i of ``samples`` and of ``reference`` share their draws, so the
    interval is the delta-method one of a ratio of paired means:
    R = mean(y) / mean(x) with variance var(y - R x) / (n mean(x)^2).
    Identical samples give R = 1 with a zero-width interval.
    """
    y = np.log2(1.0 + np.asarray(samples, dtype=float))
    x = np.log2(1.0 + np.asarray(reference, dtype=float))
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("empirical_rate_ratio requires two nonempty samples of one shape")
    mean_x = float(x.mean())
    ratio = float(y.mean()) / mean_x
    n = x.size
    half = (_Z95 * float((y - ratio * x).std(ddof=1)) / (math.sqrt(n) * mean_x)
            if n > 1 else 0.0)
    return Estimate(ratio, ratio - half, ratio + half)


def empirical_ber(samples: np.ndarray, alpha: float, beta: float) -> Estimate:
    """Mean conditional symbol error alpha*Q(sqrt(beta*snr)) over the trials.

    Every term lies in [0, alpha], so the normal interval is clipped to it.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_ber requires a nonempty sample")
    est = _mean_estimate(alpha * gaussian_q(np.sqrt(beta * samples)))
    return Estimate(est.value, max(est.ci_low, 0.0), min(est.ci_high, alpha))


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
