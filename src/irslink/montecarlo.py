"""Monte-Carlo oracle: exact-SNR simulation and plug-in metric estimators.

Sampling is organized in fixed-size chunks of trials: ``chunk_plan`` sizes
them by the element count, and ``map_chunks`` alone runs that plan.  It
allocates the run's output once and hands chunk ``i`` a generator seeded by
``(seed, i)`` alone together with the chunk's slice of that output.  A
kernel is a plain function of that generator and slice that writes its
results into the slice, so neither the thread nor the worker count changes
a draw or a bit of a result, and every sample is held once.

The chunk is the one unit of seeding, scheduling and evaluation: a kernel
draws it whole, in stream order, and evaluates it whole.  Its stream is v,
then the uniform arrays of g's Gamma power, then h's (component-major, see
:func:`irslink.channel.gamma_power`), then the widest phase errors.  Each
(trials x N) float64 buffer of a chunk is at most 256 KiB, so a thread's
draws and scratch stay small: h's draw holds 3 such buffers (g's power, its
own and one uniform array), and a chunk holds at most about 4.5 at once with
two quantization widths, and 3.1 without.  With more than one worker the
calling thread runs chunks beside the pool's threads, so a run with ``w``
workers holds at most ``w`` chunks at once and starts at most ``w - 1``
threads.

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
from queue import SimpleQueue
from typing import Callable

import numpy as np
from scipy.special import betaincinv, erfc

from .channel import SystemConfig, gamma_power, nakagami_sample, uniform_phase
from .errors import NumericalConsistencyError

__all__ = [
    "BIT_GENERATOR",
    "SimPlan",
    "Estimate",
    "chunk_rng",
    "chunk_plan",
    "map_chunks",
    "simulate_snr_samples",
    "reflected_sum_samples",
    "empirical_cdf",
    "empirical_outage",
    "empirical_rate",
    "empirical_rate_ratio",
    "empirical_ber",
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
    """Trials per chunk: each (trials x N) float64 buffer is at most 256 KiB,
    or one trial where that is more, so a chunk is drawn and evaluated whole
    in little memory per thread and the workers share many chunks evenly.
    The streams depend on it."""
    return max(1, (1 << 15) // n_elements)


def chunk_plan(trials: int, n_elements: int) -> tuple[int, int]:
    """``(chunk_trials, chunks)``: the trials per chunk and the number of
    chunks in which ``map_chunks`` runs ``trials`` trials of N elements."""
    size = _chunk_size(n_elements)
    return size, -(-trials // size)


def map_chunks(kernel: Callable[[np.random.Generator, np.ndarray], None], plan: SimPlan,
               n_elements: int, rows: tuple[int, ...] = ()) -> np.ndarray:
    """Run the chunks of ``chunk_plan(plan.trials, n_elements)`` into one
    ``rows + (plan.trials,)`` array: ``kernel(chunk_rng(plan.seed, index),
    out[..., start:stop])`` draws and evaluates each chunk of consecutive
    trials whole and writes it into its own slice of that output.  A chunk's
    draws depend on (seed, index) alone, so the result does not depend on
    ``plan.workers``.

    With more than one worker, ``min(plan.workers, chunks)`` threads take
    chunk indices from one queue until it is empty: the caller is one of
    them and a pool holds the others.  So no thread idles while the others
    work, and no caller wakes per chunk to contend with the workers for the
    interpreter lock."""
    size, count = chunk_plan(plan.trials, n_elements)
    out = np.empty(rows + (plan.trials,))

    def work(indices) -> None:
        for index in indices:
            kernel(chunk_rng(plan.seed, index), out[..., index * size:(index + 1) * size])

    threads = min(plan.workers, count)
    if threads == 1:
        work(range(count))
        return out
    indices = SimpleQueue()
    for index in [*range(count), *[None] * threads]:  # one end mark per thread
        indices.put(index)
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(work, iter(indices.get, None)) for _ in range(threads - 1)]
        work(iter(indices.get, None))
        for future in futures:
            future.result()
    return out


def _reflected_products(cfg: SystemConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, N) per-element products eta g_n h_n of one chunk, from the
    unit-scale Gamma powers P_g, then P_h, as eta sqrt(zeta_g zeta_h) sqrt(P_g
    P_h): one root, then one scale, which keeps the leg gains' product in range."""
    prod = gamma_power(cfg.g.m, rng, (count, cfg.n_elements))
    prod *= gamma_power(cfg.h.m, rng, prod.shape)
    np.sqrt(prod, out=prod)
    prod *= cfg.eta * math.sqrt(cfg.g.zeta) * math.sqrt(cfg.h.zeta)
    return prod


def reflected_sum_samples(cfg: SystemConfig, plan: SimPlan) -> np.ndarray:
    """Samples of the co-phased reflected sum W; no direct link is drawn."""
    return map_chunks(
        lambda rng, out: np.sum(_reflected_products(cfg, rng, out.size), axis=1, out=out),
        plan, cfg.n_elements)


def _simulate_chunk(cfg: SystemConfig, widths: tuple[int, ...], rng: np.random.Generator,
                    out: np.ndarray) -> None:
    """SNR samples per unit transmit SNR of one chunk, written into ``out``:
    (v + W)^2 with continuous phases in row 0, then (v + W_R)^2 + W_I^2 per
    quantization width; ``out`` is flat without widths.

    Per width, the scaled phase errors and their cos, then sin, go through
    two chunk-sized float64 scratch buffers; the fewest bits (the drawn
    interval) scale by 1 and read the drawn errors themselves.  The cos and
    sin run in numpy's float32 SIMD loops, widened into the scratch."""
    rows = out if widths else out[np.newaxis]
    count = out.shape[-1]
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)
    prod = _reflected_products(cfg, rng, count)
    rows[0] = (v + prod.sum(axis=1)) ** 2
    if widths:
        # One draw at the widest interval serves every width:
        # uniform(-tau, tau) is -tau + 2 tau u with tau = pi / 2**bits, so
        # scaling by a power of two gives bit for bit the draw a run with
        # that width alone makes after the amplitude draws.
        base = min(widths)
        widest = uniform_phase(math.pi / 2**base, rng, (count, cfg.n_elements))
        eps = np.empty_like(widest)
        trig = np.empty_like(widest)
        for row, bits in enumerate(widths, 1):
            if bits == base:  # the scale is 2**0: the drawn errors themselves
                e = widest
            else:
                e = np.multiply(widest, 2.0 ** (base - bits), out=eps)
            np.cos(e, out=trig, dtype=np.float32, casting="same_kind")
            trig *= prod
            w_re = trig.sum(axis=1)
            np.sin(e, out=trig, dtype=np.float32, casting="same_kind")
            trig *= prod
            w_im = trig.sum(axis=1)
            rows[row] = (v + w_re) ** 2 + w_im**2


def simulate_snr_samples(cfg: SystemConfig, plan: SimPlan) -> np.ndarray:
    """Exact optimized-SNR samples per unit transmit SNR, snr / gamma_bar, with
    continuous and quantized phases: no draw reads gamma_bar.

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
    widths = plan.quantization_bits
    return map_chunks(functools.partial(_simulate_chunk, cfg, widths), plan, cfg.n_elements,
                      (1 + len(widths),) if widths else ())


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
    """Mean of ``values`` with its normal 95% interval; ``values`` is the
    caller's own array of terms, spent as the scratch of the std."""
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return Estimate(mean, mean, mean)
    # std of the values scaled by a power of two to below 1, which is exact:
    # squared deviations of terms below about 1e-154 would underflow
    exponent = int(np.frexp(max(values.max(), -values.min()))[1])
    std = math.ldexp(_spent_std(np.ldexp(values, -exponent, out=values)), exponent)
    half = _Z95 * std / math.sqrt(n)
    return Estimate(mean, mean - half, mean + half)


def _spent_std(values: np.ndarray) -> float:
    """``values.std(ddof=1)``, the same operations in the same order, with
    ``values`` itself as the scratch of the deviations."""
    values -= values.sum() / values.size
    np.multiply(values, values, out=values)
    return math.sqrt(float(values.sum()) / (values.size - 1))


def empirical_outage(samples: np.ndarray, gamma_th: float) -> Estimate:
    """Proportion of the k of n trials below threshold, with the exact
    (Clopper-Pearson) two-sided 95% binomial CI: the 2.5% and 97.5% quantiles
    of Beta(k, n-k+1) and Beta(k+1, n-k), with 0 at k = 0 and 1 at k = n."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_outage requires a nonempty sample")
    n = samples.size
    k = np.count_nonzero(samples <= gamma_th)
    low = float(betaincinv(k, n - k + 1, 0.025)) if k > 0 else 0.0
    high = float(betaincinv(k + 1, n - k, 0.975)) if k < n else 1.0
    return Estimate(float(k) / n, low, high)


def empirical_rate(samples: np.ndarray) -> Estimate:
    """Mean spectral efficiency log2(1 + snr) over the trials."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_rate requires a nonempty sample")
    terms = np.add(1.0, samples)
    return _mean_estimate(np.log2(terms, out=terms))


def empirical_rate_ratio(samples: np.ndarray, reference: np.ndarray) -> Estimate:
    """Ratio of the mean rates log2(1 + snr) of two paired samples.

    Trial i of ``samples`` and of ``reference`` share their draws, so the
    interval is the delta-method one of a ratio of paired means:
    R = mean(y) / mean(x) with variance var(y - R x) / (n mean(x)^2).
    Identical samples give R = 1 with a zero-width interval.  A mean
    reference rate of 0 (every reference SNR below about 2**-53) leaves R
    undefined and raises NumericalConsistencyError.
    """
    y = 1.0 + np.asarray(samples, dtype=float)
    x = 1.0 + np.asarray(reference, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("empirical_rate_ratio requires two nonempty samples of one shape")
    np.log2(y, out=y)
    np.log2(x, out=x)
    mean_x = float(x.mean())
    if mean_x == 0.0:
        raise NumericalConsistencyError("the mean reference rate is 0: no rate ratio")
    ratio = float(y.mean()) / mean_x
    n = x.size
    if n < 2:
        return Estimate(ratio, ratio, ratio)
    y -= np.multiply(ratio, x, out=x)  # y - R x
    half = _Z95 * _spent_std(y) / (math.sqrt(n) * mean_x)
    return Estimate(ratio, ratio - half, ratio + half)


def empirical_ber(samples: np.ndarray, alpha: float, beta: float) -> Estimate:
    """Mean conditional symbol error alpha*Q(sqrt(beta*snr)) over the trials.

    Every term lies in [0, alpha], so the normal interval is clipped to it.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_ber requires a nonempty sample")
    # alpha Q(x) = (alpha / 2) erfc(x / sqrt 2), x = sqrt(beta snr)
    terms = np.multiply(beta, samples)
    np.sqrt(terms, out=terms)
    erfc(np.divide(terms, math.sqrt(2.0), out=terms), out=terms)
    est = _mean_estimate(np.multiply(0.5 * alpha, terms, out=terms))
    return Estimate(est.value, max(est.ci_low, 0.0), min(est.ci_high, alpha))
