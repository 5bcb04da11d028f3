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
then the uniform components of g's Gamma power, then h's, then the widest
phase errors; each component of n values is one block of ceil(n / 2) raw
words, whose 32-bit halves are uniforms on the midpoints of a 2**-31 grid
(see :mod:`irslink.channel`).  Each (trials x N) float64 buffer of a chunk
is at most 256 KiB, so a thread's draws and scratch stay small: h's draw
holds 2.5 such buffers (g's power, its own and one block of words), and a
chunk holds at most about 4.5 at once with two quantization widths, and 2.8
without.  With more than one worker the calling thread runs chunks beside
the pool's threads, so a run with ``w`` workers holds at most ``w`` chunks
at once and starts at most ``w - 1`` threads.  A ``SimPlan`` runs one
worker unless told otherwise; a CLI run without ``workers`` in its config
runs one per CPU this process may run on (:mod:`irslink.config`), with
numpy's OpenBLAS held to one thread so that no BLAS pool spins on the
workers' CPUs (:mod:`irslink.cli`).

Unit phasors (the cos and sin of a phase) are evaluated at float32 precision
and widened into float64 buffers; every draw, product and sum stays float64.
That moves each component of a phasor by at most about 2**-22, and being
elementwise it keeps results identical for any worker count.  It is not a
phase perturbation near 0: the float32 cos of a phase error below about
2**-12 rad is 1, so from about 12 bits on the quantized rows lose none of
the real part's loss to the phase errors.

The estimators are plug-in means with normal 95% intervals, and the rate
and the rate ratio can take control variates with exact means
(:class:`ControlVariates`, fitted once per draw for every estimate of that
draw).  :func:`draw_to_precision` draws the trials such estimates need for
a precision, not a fixed count: from a floor of ``CV_FLOOR_TRIALS``, it
extends a draw by the chunks that follow it, only where an interval is wider
than plain Monte-Carlo's at the configured trials, and fits the chunks it
holds with the new ones, so no chunk is drawn twice.  So ``trials`` is a
count for the ``wdist``, ``snrcdf``, ``outage`` and ``ser`` kinds of
:mod:`irslink.cli`, and a precision and a cap for ``rate``,
``quantization`` and ``correlation``.  The estimators' sums are numpy's
pairwise ones, never a BLAS product, whose order would follow the
alignment of the arrays: an estimate is the same in every run.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from queue import SimpleQueue
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import betaincinv, erfc

from .channel import SystemConfig, gamma_power_product, nakagami_sample, uniform_phase
from .errors import NumericalConsistencyError

__all__ = [
    "BIT_GENERATOR",
    "SimPlan",
    "Estimate",
    "ControlVariates",
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
    "control_variate_cells",
    "draw_to_precision",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimPlan:
    """How to run one simulation: size, reproducibility, parallelism.

    ``quantization_bits`` lists the phase-quantization widths simulated
    beside continuous (ideal) phases, all from the same amplitude draws.
    ``first_chunk`` is the index of the plan's first chunk: a plan that
    starts at chunk k draws the trials that follow the first k whole chunks
    of a longer draw.
    """

    trials: int
    seed: int = 0
    workers: int = 1
    quantization_bits: tuple[int, ...] = ()
    first_chunk: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if any(bits < 1 for bits in self.quantization_bits):
            raise ValueError("quantization_bits must be >= 1")
        if self.first_chunk < 0:
            raise ValueError("first_chunk must be >= 0")


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
    ``rows + (plan.trials,)`` array: ``kernel(chunk_rng(plan.seed,
    plan.first_chunk + i), out[..., start:stop])`` draws and evaluates the
    i-th chunk of consecutive trials whole and writes it into its own slice
    of that output.  A chunk's draws depend on (seed, index) alone, so the
    result does not depend on ``plan.workers``, and a plan that starts at
    chunk k draws the trials of a longer draw that follow its first k chunks.

    ``min(plan.workers, chunks)`` threads take chunk indices from one queue
    until it is empty: the caller is one of them and a pool holds the
    others, so one worker runs every chunk on the calling thread and starts
    none.  No thread idles while the others work, and no caller wakes per
    chunk to contend with the workers for the interpreter lock."""
    size, count = chunk_plan(plan.trials, n_elements)
    out = np.empty(rows + (plan.trials,))

    def work(indices) -> None:
        for index in indices:
            kernel(chunk_rng(plan.seed, plan.first_chunk + index),
                   out[..., index * size:(index + 1) * size])

    threads = min(plan.workers, count)
    indices = SimpleQueue()
    for index in [*range(count), *[None] * threads]:  # one end mark per thread
        indices.put(index)
    # the pool starts at most one thread per submitted task: threads - 1 in
    # all, and none for one worker (max_workers must be positive)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, iter(indices.get, None)) for _ in range(threads - 1)]
        work(iter(indices.get, None))
        for future in futures:
            future.result()
    return out


def _reflected_products(cfg: SystemConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, N) per-element products eta g_n h_n of one chunk, from the
    unit-scale Gamma powers P_g, then P_h, as eta sqrt(zeta_g zeta_h) sqrt(P_g
    P_h): one root, then one scale, which keeps the leg gains' product in range."""
    prod = gamma_power_product(cfg.g.m, cfg.h.m, rng, (count, cfg.n_elements))
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
    """One chunk's samples per unit transmit SNR, written into ``out``: the
    flat SNR (v + W)^2 without widths; with widths, R = v + W with continuous
    phases in row 0, then A = v + W_R and B = W_I per quantization width.

    Per width, the scaled phase errors and their cos, then sin, go through
    two chunk-sized float64 scratch buffers; the fewest bits (the drawn
    interval) scale by 1 and read the drawn errors themselves.  The cos and
    sin run in numpy's float32 SIMD loops, widened into the scratch."""
    rows = out if widths else out[np.newaxis]
    count = out.shape[-1]
    v = nakagami_sample(cfg.v.m, cfg.v.zeta, rng, count)
    prod = _reflected_products(cfg, rng, count)
    np.add(v, prod.sum(axis=1), out=rows[0])
    if not widths:
        np.square(rows[0], out=rows[0])
    else:
        # One draw at the widest interval serves every width: a power of two
        # in tau = pi / 2**bits scales every uniform_phase draw exactly, so
        # it gives bit for bit the draw a run with that width alone makes
        # after the amplitude draws.
        base = min(widths)
        widest = uniform_phase(math.pi / 2**base, rng, (count, cfg.n_elements))
        eps = np.empty_like(widest)
        trig = np.empty_like(widest)
        for k, bits in enumerate(widths):
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
            np.add(v, w_re, out=rows[1 + 2 * k])
            rows[2 + 2 * k] = w_im


def simulate_snr_samples(cfg: SystemConfig, plan: SimPlan) -> np.ndarray:
    """Exact optimized-SNR samples per unit transmit SNR, snr / gamma_bar, with
    continuous and quantized phases: no draw reads gamma_bar.

    Every trial draws fresh leg amplitudes.  Without quantization widths the
    result is the (trials,) continuous-phase SNR sample.  With widths ``bits``
    it is the (1 + 2 len(bits), trials) array of the amplitudes the SNRs are
    the squares of: R = v + W with continuous phases in row 0, then the real
    part A = v + W_R and the imaginary part B = W_I of the sum with phases
    quantized to ``bits[k]`` in rows 1 + 2k and 2 + 2k, where each element
    gets a phase error uniform on (-tau, tau), tau = pi / 2**bits.  R**2 is
    the continuous SNR and A**2 + B**2 the quantized one, and the rows of a
    width equal bit for bit those of a run with that width alone, for any
    worker count.  The phase-error phasors are evaluated at float32 precision,
    which moves each of their components by at most about 2**-22 (see the
    module docstring); R takes no trig and is exact float64.
    """
    widths = plan.quantization_bits
    return map_chunks(functools.partial(_simulate_chunk, cfg, widths), plan, cfg.n_elements,
                      (1 + 2 * len(widths),) if widths else ())


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
    # mean and std of the values scaled exactly by a power of two to below 1: sums of
    # terms near 1e308 would overflow, squared deviations of terms below 1e-154 underflow
    exponent = int(np.frexp(max(values.max(), -values.min()))[1])
    np.ldexp(values, -exponent, out=values)
    mean = math.ldexp(float(values.mean()), exponent)
    if n < 2:
        return Estimate(mean, mean, mean)
    std = math.ldexp(_spent_std(values), exponent)
    half = _Z95 * std / math.sqrt(n)
    return Estimate(mean, mean - half, mean + half)


def _spent_std(values: np.ndarray, ddof: int = 1) -> float:
    """``values.std(ddof=ddof)``, the same operations in the same order, with
    ``values`` itself as the scratch of the deviations."""
    values -= values.sum() / values.size
    np.multiply(values, values, out=values)
    return math.sqrt(float(values.sum()) / (values.size - ddof))


# A control is dropped where the controls kept before it explain all but this
# share of its sample variance: it adds nothing they do not, and its
# coefficient would be noise.  From about 10 bits on, A is R but for a few
# float32 ulps of cos per element, and from about 12 bits on it is R.
_COLLINEAR = 1e-10


def _sweep(gram: np.ndarray, k: int) -> None:
    """Sweep the symmetric ``gram`` on pivot k in place: once a set K of
    pivots is swept, ``gram[K][:, K]`` is minus the inverse of their block, and
    ``gram[j, j]`` of a j outside K the part of its variance they leave."""
    pivot = gram[k, k]
    col = gram[:, k] / pivot
    gram -= np.outer(gram[:, k], col)
    gram[k] = gram[:, k] = col
    gram[k, k] = -1.0 / pivot


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


def empirical_rate(samples: np.ndarray, controls: ControlVariates | None = None) -> Estimate:
    """Mean spectral efficiency log2(1 + snr) over the trials.

    ``controls``, fitted on the same trials, makes it the control-variate
    estimate mean(y) - b . (mean(C) - E C) of the rates y, with b their
    least-squares coefficients on the controls C, and its interval that of
    the residual of y on them, with one degree of freedom less per control
    (as in :func:`empirical_rate_ratio`); without controls it is the plain
    estimate."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_rate requires a nonempty sample")
    if controls is not None and controls.scaled.shape[1:] != samples.shape:
        raise ValueError("empirical_rate requires controls of the samples' trials")
    terms = np.add(1.0, samples)
    np.log2(terms, out=terms)
    if controls is None:
        return _mean_estimate(terms)
    b = controls.coefficients(terms)
    mean = float(terms.mean()) - float((b * controls.offsets).sum())
    n = terms.size
    if n < 2:
        return Estimate(mean, mean, mean)
    controls.subtract(terms, b)
    half = _Z95 * _spent_std(terms, 1 + len(controls.offsets)) / math.sqrt(n)
    return Estimate(mean, mean - half, mean + half)


@dataclass(frozen=True)
class ControlVariates:
    """Controls of one draw, fitted once for the estimates of any number of
    responses of that draw (:func:`empirical_rate_ratio`).

    ``scaled`` holds one row per kept control, centred on its sample mean and
    scaled to unit norm; ``offsets`` are the sample means less the exact
    means, in the same scale; ``inverse`` is the inverse of the kept rows'
    Gram matrix (their correlation matrix).  Build it with :meth:`fit`.
    """

    scaled: np.ndarray
    offsets: np.ndarray
    inverse: np.ndarray

    @classmethod
    def fit(cls, matrix: np.ndarray, means) -> ControlVariates:
        """Fit the controls ``matrix`` (one row per control, one column per
        trial) with exact means ``means``; ``matrix`` is spent as scratch.

        Controls are kept in row order.  One is dropped where it has no
        spread or a value or mean that is not finite, where the ones kept
        before it explain all but ``_COLLINEAR`` of its variance, and once
        trials - 2 are kept, so the residual keeps a degree of freedom."""
        means = np.asarray(means, dtype=float)
        trials = matrix.shape[1]
        centre = matrix.mean(axis=1)
        with np.errstate(invalid="ignore"):  # a row with an infinity, dropped below
            matrix -= centre[:, np.newaxis]
            # by the largest magnitude first, so no square of a row leaves the float64 range
            spread = np.abs(matrix).max(axis=1, initial=0.0)
        usable = np.flatnonzero(np.isfinite(spread) & (spread > 0.0) & np.isfinite(means))
        scaled = matrix[usable]
        scaled /= spread[usable, np.newaxis]
        norms = np.sqrt([_dot(row, row) for row in scaled])
        scaled /= norms[:, np.newaxis]
        scale = spread[usable] * norms
        gram = np.array([[_dot(row, other) for other in scaled] for row in scaled])
        gram.shape = (len(usable), len(usable))
        kept = []
        for j in range(len(usable)):
            if gram[j, j] > _COLLINEAR and len(kept) < trials - 2:
                _sweep(gram, j)
                kept.append(j)
        return cls(scaled=scaled[kept],
                   offsets=(centre[usable] - means[usable])[kept] / scale[kept],
                   inverse=-gram[np.ix_(kept, kept)])

    def coefficients(self, response: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of ``response`` on the scaled controls."""
        products = np.array([_dot(row, response) for row in self.scaled])
        return (self.inverse * products).sum(axis=1)

    def subtract(self, response: np.ndarray, coefficients: np.ndarray) -> None:
        """Subtract from ``response``, in place, the scaled controls weighted
        by ``coefficients``."""
        scratch = np.empty_like(response)
        for coefficient, row in zip(coefficients, self.scaled):
            response -= np.multiply(coefficient, row, out=scratch)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of the products of two 1-d arrays, as numpy's pairwise sum
    takes it: in one order at any address, where a BLAS kernel's order
    follows the alignment of its operands, and so would move bits from one
    run to the next."""
    return float(np.multiply(a, b).sum())


def empirical_rate_ratio(samples: np.ndarray, reference: np.ndarray,
                         controls: ControlVariates | None = None) -> Estimate:
    """Ratio of the mean rates log2(1 + snr) of two paired samples.

    Trial i of ``samples`` and of ``reference`` share their draws, so the
    interval is the delta-method one of a ratio of paired means:
    R = mean(y) / mean(x) with variance var(y - R x) / (n mean(x)^2).
    ``controls``, fitted on the same trials, replaces each mean by its
    control-variate estimate, mean(y) - b_y . (mean(C) - E C) with b_y the
    least-squares coefficients of y on the controls C, and var(y - R x) by
    the variance of its residual on them, with one degree of freedom less
    per control; without controls (or with none kept) it is the plain
    estimate.  Identical samples give R = 1 with a zero-width interval.  A
    mean reference rate of 0 (every reference SNR below about 2**-53) leaves
    R undefined and raises NumericalConsistencyError.
    """
    y = 1.0 + np.asarray(samples, dtype=float)
    x = 1.0 + np.asarray(reference, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("empirical_rate_ratio requires two nonempty samples of one shape")
    if controls is not None and controls.scaled.shape[1:] != x.shape:
        raise ValueError("empirical_rate_ratio requires controls of the samples' trials")
    np.log2(y, out=y)
    np.log2(x, out=x)
    mean_x, mean_y = float(x.mean()), float(y.mean())
    if controls is not None:
        b_y, b_x = controls.coefficients(y), controls.coefficients(x)
        mean_y -= float((b_y * controls.offsets).sum())
        mean_x -= float((b_x * controls.offsets).sum())
    if mean_x == 0.0:
        raise NumericalConsistencyError("the mean reference rate is 0: no rate ratio")
    ratio = mean_y / mean_x
    n = x.size
    if n < 2:
        return Estimate(ratio, ratio, ratio)
    y -= np.multiply(ratio, x, out=x)  # y - R x
    ddof = 1
    if controls is not None:
        controls.subtract(y, b_y - ratio * b_x)
        ddof += len(controls.offsets)
    half = _Z95 * _spent_std(y, ddof) / (math.sqrt(n) * mean_x)
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


def control_variate_cells(estimator: Callable[..., Estimate], controls: ControlVariates,
                          arguments: Iterable[tuple]) -> list[tuple[Estimate, float]]:
    """The cells of a fit of :func:`draw_to_precision`, one per argument
    tuple: the control-variate estimate ``estimator(*args, controls)`` and
    the half-width of the plain one, ``estimator(*args)``."""
    cells = []
    for args in arguments:
        plain = estimator(*args)
        cells.append((estimator(*args, controls), plain.ci_high - plain.value))
    return cells


# Trials of the first draw of draw_to_precision, rounded up to whole chunks:
# the 95% intervals of the control-variate fits of rate, quantization and
# correlation hold their coverage from here on.  Over 400 seeds, against a
# 2**20-trial reference, the cells of the coverage tests cover at 0.9375-0.94
# (rate, N = 16), 0.9525-0.9575 (rate, N = 128), 0.93-0.9625 (quantization,
# N = 16), 0.92-0.94 (N = 32), 0.92-0.95 (N = 128), 0.9425-0.965
# (correlation, N = 16), 0.9475-0.9575 (N = 64) and 0.9275-0.945 (N = 144,
# 2,270 trials); over 1,200 seeds, at 0.936-0.954, 0.938-0.951 and
# 0.942-0.944 (quantization, N = 16, 32, 128) and 0.946 (correlation,
# N = 144).  Below N = 16 a chunk holds more than this, so the first draw is
# one chunk.  For those kinds ``trials`` is a precision and a cap; a run of
# at most this many trials draws them all.
CV_FLOOR_TRIALS = 2_048
# A draw that extends the first aims every half-width at this share of the
# plain one: the ratio read from the first draw moves by a few percent.
CV_EXTENSION_TARGET = 0.9


def draw_to_precision(sample: Callable[[SimPlan], np.ndarray], plan: SimPlan, n_elements: int,
                      fit: Callable[[np.ndarray], list[list[tuple[Estimate, float]]]],
                      groups: tuple[str, str, Sequence]) -> tuple[list[list[Estimate]],
                                                                   list[dict]]:
    """Control-variate estimates from the fewest trials that give every one
    an interval no wider than plain Monte-Carlo's at ``plan.trials``, and
    never more than those trials; with the record of each draw.

    ``sample(p)`` draws the ``p.trials`` trials of N = ``n_elements``
    elements of the plan ``p`` from its chunk ``p.first_chunk`` on, and
    ``fit`` turns the trials drawn so far into groups of cells, each cell a
    pair (control-variate estimate, plain half-width) at those trials; it
    must leave them as they are, since an extension fits them again.  The
    first draw is the first whole chunks of at least ``CV_FLOOR_TRIALS``
    trials, or every trial where that is more.  Where a cell's half-width is
    wider than the plain half-width projected to ``plan.trials``, the run
    draws the chunks that follow, up to the whole chunks projected to bring
    the widest cell to ``CV_EXTENSION_TARGET`` of it, and fits them with the
    chunks it holds; where a cell is still wider, it draws on to
    ``plan.trials``.  Chunk i is always ``chunk_rng(plan.seed, i)``, so every
    fit sees the rows of one draw of its trials from chunk 0, and each draw
    draws its chunks once.  Each decision reads a prefix of the chunks alone,
    so the estimates are the same for any worker count.

    Returns the last fit's estimates, grouped as ``fit`` groups them, and
    one record per draw: the floor, the trials fitted once it is drawn,
    whether it extends an earlier draw, and per group the least variance
    ratio (plain over control-variate, at the same trials) and the greatest
    half-width ratio (control-variate over plain at ``plan.trials``), None
    where no cell gives one (a ratio over a zero half-width is left out).
    ``groups`` = (name, key, labels) lists them under ``name``, each
    labelled ``{key: label}``."""
    trials = plan.trials
    chunk_trials, _ = chunk_plan(trials, n_elements)
    drawn = min(trials, -(-CV_FLOOR_TRIALS // chunk_trials) * chunk_trials)
    name, key, labels = groups
    records, held = [], None
    while True:
        # every draw but the last is whole chunks: the next one starts at a chunk
        start = 0 if held is None else held.shape[-1]
        new = sample(replace(plan, trials=drawn - start, first_chunk=start // chunk_trials))
        held = new if held is None else np.concatenate([held, new], axis=-1)
        del new
        cells = fit(held)
        halves = [[(cv.ci_high - cv.value, plain) for cv, plain in group] for group in cells]
        projected = math.sqrt(drawn / trials)
        records.append({"floor_trials": CV_FLOOR_TRIALS, "fitted_trials": drawn,
                        "extension": bool(records),
                        name: [{key: label, **_precision_record(group, projected)}
                               for label, group in zip(labels, halves)]})
        wider = [cv / (plain * projected) if plain > 0.0 else math.inf
                 for group in halves for cv, plain in group if cv > plain * projected]
        if not wider or drawn == trials:
            return [[cv for cv, _ in group] for group in cells], records
        if len(records) > 1 or max(wider) == math.inf:
            drawn = trials
        else:
            target = drawn * (max(wider) / CV_EXTENSION_TARGET) ** 2
            drawn = min(trials, math.ceil(target / chunk_trials) * chunk_trials)


def _precision_record(halves: list[tuple[float, float]], projected: float) -> dict:
    """One group's figures in a record of :func:`draw_to_precision`, from its
    cells' (control-variate, plain) half-widths."""
    variance = [(plain / cv) ** 2 for cv, plain in halves if cv > 0.0]
    half = [cv / (plain * projected) for cv, plain in halves if plain > 0.0]
    return {"min_variance_ratio": min(variance, default=None),
            "max_half_width_ratio": max(half, default=None)}
