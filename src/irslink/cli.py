"""Experiment runner: figure-style sweeps to CSV plus a JSON manifest.

Kinds (the one positional argument): wdist, snrcdf, outage, rate, ser,
quantization, correlation; ``rate`` runs over gamma_bar_db or n_elements, as
the config's ``sweep.variable`` says.  Output is data only (one CSV per curve,
fixed column schema), never rendered plots.  Exit codes: 0 success, 2
configuration error, 3 numerical consistency failure.

Configuration is a nested YAML file.  :mod:`irslink.config` is its one
reader: it checks every field and returns the link plus the resolved mapping
with each value cast, which the runners read as it stands.  An empty file (or
no ``--config``) yields the documented default configuration, and one that
cannot be read or parsed is a configuration error; a previously written
manifest can be passed back through ``--config`` to reproduce a run
byte-for-byte.

Each kind's runner, ``_run_<kind>(spec, extras)``, computes its curves and
returns them as ``{name: (x_unit, x, columns)}``, adding what it reports to
the manifest's ``extras``; no runner writes a file.  :func:`run_experiment`
is the one writer: once the runner has returned it writes each curve to
``<name>.csv``, then the manifest, which lists them, so a run that fails
writes no CSV and no manifest; an ``--out`` that cannot be made a directory
or written is a configuration error.  ``extras.timings`` has ``config_s``
(reading and checking the config), ``compute_s`` (the runner: closed forms
and Monte-Carlo) and ``write_s`` (the CSVs).

``trials`` is a count for ``wdist``, ``snrcdf``, ``outage`` and ``ser``,
and a precision and a cap for ``rate``, ``quantization`` and
``correlation``: each of their draws first takes the first whole chunks of
at least ``montecarlo.CV_FLOOR_TRIALS`` (2,048) trials, estimates each mean
rate (quantization: each rate ratio) with control variates of exact means,
and draws the chunks that follow, up to ``trials``, only where an interval
is wider than plain Monte-Carlo's at ``trials``, fitting them with those it
holds (``montecarlo.draw_to_precision``).  Each draw is a run of the
manifest with the chunks and trials it added, so ``extras.mc.trials``
counts every trial once, and records under ``control_variates`` the trials
its fit used and its precision.  The three fits (``_rate_fit``,
``_quantization_fit``, ``_correlation_fit``) live here, and the runners and
fits pass the sampler and estimator they look up in this module when they
run, so a wrapper set on ``irslink.cli.simulate_snr_samples``,
``simulate_scheme_rates``, ``empirical_rate`` or ``empirical_rate_ratio``
sees every draw or estimate.

Monte-Carlo runs on one worker per CPU this process may run on unless the
config or ``--workers`` names a count (:mod:`irslink.config`); no count
changes a draw.  :func:`main` first holds numpy's bundled OpenBLAS to one
thread, which leaves every bit as it is: an OpenBLAS pool busy-waits on the
CPUs the workers need for about 100 ms after each threaded call (the SNR
law's Gauss-rule ``eigh``, the correlation roots and products).  The hold
lasts for the process; importing :mod:`irslink` leaves the BLAS alone, and
``artifact.blas.threads`` records the count a run saw.

Every CSV has the header ``CSV_HEADER`` and one row per sweep point; cells are
comma-separated and lines end in CRLF.  The ``x_unit`` cell names the sweep
variable, every other cell is a number written with ``%.12g``, and a value
that is absent (a column the run does not produce, or a blank asymptote) is
an empty cell.  No cell needs quoting.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import SystemConfig, db_to_linear, nakagami_draw
from .config import load_config_file, validate_config
from .cltapprox import w_stats
from .correlation import (AngleSpread, CorrelationConfig, build_correlation, scheme1_rate_bound,
                          scheme_control_means, simulate_scheme_rates)
from .errors import ConfigError, NumericalConsistencyError
from .metrics import (asymptotic_outage, asymptotic_ser, continuous_control_means,
                      outage_probability, quantized_control_means, quantized_rate_bounds,
                      rate_bounds, ser_upper_bound)
from .montecarlo import (BIT_GENERATOR, ControlVariates, Estimate, SimPlan, chunk_plan,
                         control_variate_cells, draw_to_precision, empirical_ber, empirical_cdf,
                         empirical_outage, empirical_rate, empirical_rate_ratio,
                         simulate_snr_samples)
from .montecarlo import reflected_sum_samples as _reflected_sum_samples
from .snrdist import SnrCdfParams, snr_cdf

CSV_HEADER = ["x_unit", "x", "analytic", "asymptotic", "mc", "mc_ci_low", "mc_ci_high"]

KINDS = ("wdist", "snrcdf", "outage", "rate", "ser", "quantization", "correlation")

@dataclass
class ExperimentSpec:
    """One run: ``resolved`` is the checked config mapping that ``config`` (the
    link) and ``plan`` were built from."""

    kind: str
    config: SystemConfig
    plan: SimPlan
    resolved: dict
    output_dir: Path
    use_mc: bool
    # seconds spent reading and checking the config, for extras.timings
    config_s: float = 0.0


@functools.cache
def _git_describe() -> str:
    # Resolved from the package's own directory, so the id names the sources
    # that ran whatever the working directory; once per process.
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"irslink-{__version__}"


@functools.cache
def _simd_dispatch() -> dict | None:
    """CPU dispatch target (e.g. ``X86_V4``) of each numpy loop whose bits
    reach a CSV, keyed ``"<ufunc>/<dtype>"``: float32 sin and cos (the MC
    phasors); float64 exp and log (the Erlang draws and the analytic law),
    expm1 (its log CDF), log1p and exp (the SER bound), log2 (the MC rates) and
    power (the azimuth correlation); complex128 absolute (the scheme SNRs).
    None for a loop numpy does not report, and for the whole map where numpy
    predates ``numpy.lib.introspect``.  One ``opt_func_info`` call per process."""
    loops = ((np.sin, "float32"), (np.cos, "float32"), (np.exp, "float64"),
             (np.expm1, "float64"), (np.log, "float64"), (np.log1p, "float64"),
             (np.log2, "float64"), (np.power, "float64"), (np.absolute, "complex128"))
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name=f"^({'|'.join(f.__name__ for f, _ in loops)})$")

    def target(ufunc, dtype):
        types = ufunc.resolve_dtypes((np.dtype(dtype),) * ufunc.nin + (None,))
        return info.get(ufunc.__name__, {}).get("".join(t.char for t in types), {}).get("current")

    return {f"{ufunc.__name__}/{dtype}": target(ufunc, dtype) for ufunc, dtype in loops}


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas, opened once per process; None where
    numpy bundles none (its name is ``numpy.libs/libscipy_openblas*``)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return next((ctypes.CDLL(str(lib)) for lib in libs.glob("libscipy_openblas*")), None)


def _openblas_function(name: str, restype, *argtypes):
    """The C function ``name`` of numpy's bundled OpenBLAS with its types
    set, or None where the library or the symbol is absent."""
    fn = getattr(_openblas(), name, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, list(argtypes)
    return fn


def _hold_blas_to_one_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread (same bits, no pool spinning
    on the workers' CPUs); a no-op where the library or symbol is absent."""
    set_threads = _openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)


def _blas() -> dict:
    """numpy's BLAS: ``name`` and ``version`` from numpy's build configuration,
    which names the build host's core; ``core``, the one OpenBLAS chose at run
    time, and ``threads``, its thread count now, where numpy's bundled
    OpenBLAS reports them (None otherwise)."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    corename = _openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return {"name": blas.get("name"), "version": blas.get("version"),
            "core": corename().decode() if corename is not None else None,
            "threads": threads() if threads is not None else None}


def _gamma_bars(sweep) -> np.ndarray:
    """The transmit SNRs of a dB sweep, each as ``SystemConfig.gamma_bar`` has it."""
    return np.array([db_to_linear(db) for db in sweep])


def _timed_mc(extras: dict, sampler, cfg: SystemConfig, *args):
    """``sampler(cfg, *args)``, whose last argument is the SimPlan, with its
    trials, chunks (from ``first_chunk`` on) and seconds added to the
    manifest's ``extras.mc``."""
    plan = args[-1]
    started = time.perf_counter()
    result = sampler(cfg, *args)
    seconds = time.perf_counter() - started
    chunk_trials, chunks = chunk_plan(plan.trials, cfg.n_elements)
    mc = extras.setdefault("mc", {"workers": plan.workers, "trials": 0, "chunks": 0,
                                  "seconds": 0.0, "runs": []})
    # the W sampler draws no direct link
    legs = ("g", "h") if sampler is _reflected_sum_samples else ("v", "g", "h")
    mc["runs"].append({"n_elements": cfg.n_elements, "trials": plan.trials,
                       "chunk_trials": chunk_trials, "first_chunk": plan.first_chunk,
                       "chunks": chunks,
                       "draws": {leg: nakagami_draw(getattr(cfg, leg).m) for leg in legs},
                       "seconds": round(seconds, 4)})
    mc["trials"] += plan.trials
    mc["chunks"] += chunks
    mc["seconds"] = round(mc["seconds"] + seconds, 4)
    mc["trials_per_s"] = round(mc["trials"] / mc["seconds"]) if mc["seconds"] else None
    return result


def _mc_columns(estimates) -> dict:
    return {"mc": [e.value for e in estimates], "lo": [e.ci_low for e in estimates],
            "hi": [e.ci_high for e in estimates]}


def _run_wdist(spec: ExperimentSpec, extras: dict) -> dict:
    cfg = spec.config
    tn = w_stats(cfg)
    lo, hi = tn.mu_bar - 5 * tn.sigma_bar, tn.mu_bar + 5 * tn.sigma_bar
    # off W = 0 by at least 1e-9, or by a thousandth of the top of the grid
    # where that is less, so the grid spans the law at any gain
    grid = np.linspace(max(min(1e-9, 1e-3 * hi), lo), hi, 201)
    pdf, cdf = np.exp(tn.log_pdf(grid)), np.exp(tn.log_cdf(grid))
    mc_pdf = mc_cdf = None
    if spec.use_mc:
        samples = _timed_mc(extras, _reflected_sum_samples, cfg, spec.plan)
        hist, edges = np.histogram(samples, bins=80,
                                   range=(float(grid[0]), float(grid[-1])), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        mc_pdf = np.interp(grid, centers, hist)
        mc_cdf = empirical_cdf(samples)(grid)
    extras["mu_bar"], extras["sigma2_bar"], extras["xi"] = tn.mu_bar, tn.sigma2_bar, tn.xi
    return {"wdist_pdf": ("w", grid, {"analytic": pdf, "mc": mc_pdf}),
            "wdist_cdf": ("w", grid, {"analytic": cdf, "mc": mc_cdf})}


def _run_snrcdf(spec: ExperimentSpec, extras: dict) -> dict:
    cfg = spec.config
    params = SnrCdfParams.from_config(cfg)
    # y = snr / gamma_bar in dB about the square of about the mean of R (as
    # envelope_cdf has it): no transmit SNR can under- or overflow the grid
    mean_db = 20 * math.log10(params.tn.mu_bar + math.sqrt(params.kappa_v))
    y_db = np.linspace(mean_db - 12.0, mean_db + 6.0, 121)
    y = 10 ** (y_db / 10)
    analytic = snr_cdf(y, params)
    mc = None
    if spec.use_mc:
        mc = empirical_cdf(_timed_mc(extras, simulate_snr_samples, cfg, spec.plan))(y)
        extras["ks_distance"] = float(np.max(np.abs(mc - analytic)))
    return {"snrcdf": ("gamma_db", cfg.gamma_bar_db + y_db, {"analytic": analytic, "mc": mc})}


def _run_outage(spec: ExperimentSpec, extras: dict) -> dict:
    cfg, gamma_th = spec.config, db_to_linear(spec.resolved["gamma_th_db"])
    return _floor_curves(spec, extras, "outage", "analytic",
                         lambda gamma_bars: outage_probability(cfg, gamma_th, gamma_bars),
                         lambda gamma_bars: asymptotic_outage(cfg, gamma_th, gamma_bars),
                         lambda snr: empirical_outage(snr, gamma_th))


def _run_ser(spec: ExperimentSpec, extras: dict) -> dict:
    cfg, mod = spec.config, spec.config.modulation
    return _floor_curves(spec, extras, "ser", "bound",
                         lambda gamma_bars: ser_upper_bound(cfg, gamma_bars),
                         lambda gamma_bars: asymptotic_ser(cfg, gamma_bars),
                         lambda snr: empirical_ber(snr, mod.alpha, mod.beta))


def _floor_curves(spec: ExperimentSpec, extras: dict, kind: str, name: str,
                  analytic, floor, estimator) -> dict:
    """Curves of one metric over the gamma_bar sweep: ``analytic(gamma_bars)``,
    the high-SNR floor ``floor(gamma_bars) -> (result, values)`` and the MC
    estimate; the manifest records the floor's constants, the coding gain null
    where it leaves the float64 range.  The floor is blank where it exceeds the
    float64 range, and everywhere, with the constants null and the reason
    recorded, where they are undefined (m_g == m_h, or m_b - m_a <= 1/2)."""
    sweep = spec.resolved["sweep"]["values"]
    gamma_bars = _gamma_bars(sweep)
    try:
        result, values = floor(gamma_bars)
        coding_gain = None
        with contextlib.suppress(OverflowError):
            coding_gain = math.exp(result.log_g_c) or None
        extras.update(diversity_order=result.g_d, coding_gain=coding_gain,
                      log10_omega_op=result.log_omega_op / math.log(10))
    except ConfigError as exc:
        extras.update(dict.fromkeys(("diversity_order", "coding_gain", "log10_omega_op")),
                      asymptote_unavailable=str(exc))
        values = np.full(len(gamma_bars), math.inf)
    finite = np.isfinite(values)
    extras["asymptotic_blank_points"] = int(np.count_nonzero(~finite))
    extras["asymptotic_above_one_points"] = int(np.count_nonzero(finite & (values > 1.0)))
    curves = {f"{kind}_{name}": ("gamma_bar_db", sweep, {"analytic": analytic(gamma_bars)}),
              f"{kind}_asymptotic": ("gamma_bar_db", sweep, {
                  "asymptotic": [v if ok else None for v, ok in zip(values, finite)]})}
    if spec.use_mc:
        samples = _timed_mc(extras, simulate_snr_samples, spec.config, spec.plan)
        curves[f"{kind}_mc"] = ("gamma_bar_db", sweep,
                                _mc_columns([estimator(gb * samples) for gb in gamma_bars]))
    return curves


def _to_precision(extras: dict, groups: tuple, fit, sampler, cfg: SystemConfig, *args):
    """``montecarlo.draw_to_precision`` of ``sampler(cfg, *args)``, whose
    last argument is the plan: each draw is timed and recorded as a run of
    the manifest (``_timed_mc``), which also records the draw's precision
    under ``control_variates``."""
    *head, plan = args
    estimates, records = draw_to_precision(
        lambda draw_plan: _timed_mc(extras, sampler, cfg, *head, draw_plan), plan,
        cfg.n_elements, fit, groups)
    for run, record in zip(extras["mc"]["runs"][-len(records):], records):
        run["control_variates"] = record
    return estimates


def _rate_fit(means: tuple[float, float], gamma_bars,
              snr: np.ndarray) -> list[list[tuple[Estimate, float]]]:
    """The fit of one rate draw (``draw_to_precision``): the mean rate at
    each transmit SNR, one group of one cell each, as a control-variate
    estimate and a plain half-width.  The controls R (the root of the drawn
    R^2) and R^2 are fitted once per draw, with their exact means ``means``
    (``continuous_control_means``)."""
    controls = ControlVariates.fit(np.stack([np.sqrt(snr), snr]), means)
    return [control_variate_cells(empirical_rate, controls, [(gb * snr,)]) for gb in gamma_bars]


def _quantization_fit(means: list[tuple[float, ...]], gamma_bars,
                      amplitudes: np.ndarray) -> list[list[tuple[Estimate, float]]]:
    """The fit of one quantization draw (``draw_to_precision``): per width,
    the ratio of its mean rate to the continuous one at each transmit SNR,
    as a control-variate estimate and a plain half-width.  Each width fits
    the controls R, R^2, A, A^2 and B^2 of its amplitudes once, with its
    exact means in ``means`` (``quantized_control_means``); each transmit
    SNR then costs matrix-vector products."""
    r = amplitudes[0]
    reference = r * r
    cells = []
    for k, means_k in enumerate(means):
        a, b = amplitudes[1 + 2 * k], amplitudes[2 + 2 * k]
        samples = a * a + b * b
        controls = ControlVariates.fit(np.stack([r, reference, a, a * a, b * b]), means_k)
        cells.append(control_variate_cells(empirical_rate_ratio, controls, (
            (gb * samples, gb * reference) for gb in gamma_bars)))
    return cells


def _correlation_fit(cfg: SystemConfig, means: tuple[float, ...],
                     rows: np.ndarray) -> list[list[tuple[Estimate, float]]]:
    """The fit of one correlation draw (``draw_to_precision``): per scheme,
    the one cell of the rows of ``simulate_scheme_rates`` at
    ``cfg.gamma_bar``, the control-variate estimate of the mean rate and the
    plain half-width.  The controls v, v^2, S_r, v S_r, |S|^2 =
    snr_1 - v (v + 2 S_r), sum |t_n|^2 and sum |t_n|^4, with the exact means
    ``means`` (``scheme_control_means``), are fitted once and serve both
    schemes; snr_1 lies in their span, so it is no control of its own."""
    snr1, snr2, v, s_r, t2, t4 = rows
    # an infinite or undefined control is dropped by the fit
    with np.errstate(over="ignore", invalid="ignore"):
        controls = ControlVariates.fit(
            np.stack([v, v * v, s_r, v * s_r, snr1 - v * (v + 2.0 * s_r), t2, t4]), means)
    return [control_variate_cells(empirical_rate, controls, [(cfg.gamma_bar * snr,)])
            for snr in (snr1, snr2)]


def _run_quantization(spec: ExperimentSpec, extras: dict) -> dict:
    sweep, quant = spec.resolved["sweep"]["values"], spec.resolved["quantization"]
    gamma_bars, widths = _gamma_bars(sweep), tuple(quant["bits"])
    curves = {}
    for n in quant["n_values"]:
        cfg_n = replace(spec.config, n_elements=n)
        mc = [{}] * len(widths)
        if spec.use_mc:
            means = [quantized_control_means(cfg_n, bits) for bits in widths]
            ratios = _to_precision(extras, ("widths", "bits", widths),
                                   functools.partial(_quantization_fit, means, gamma_bars),
                                   simulate_snr_samples, cfg_n,
                                   replace(spec.plan, quantization_bits=widths))
            mc = [_mc_columns([Estimate(100.0 * e.value, 100.0 * e.ci_low, 100.0 * e.ci_high)
                               for e in width]) for width in ratios]
        cb = rate_bounds(cfg_n, gamma_bars)
        continuous = cb.lower + cb.upper
        if not np.all(continuous > 0.0):
            raise NumericalConsistencyError("the continuous rate bounds are 0: no rate ratio")
        for bits, mc_bits in zip(widths, mc):
            qb = quantized_rate_bounds(cfg_n, bits, gamma_bars)
            analytic = 100.0 * (qb.lower + qb.upper) / continuous
            curves[f"quantization_b{bits}_n{n}"] = ("gamma_bar_db", sweep,
                                                     {"analytic": analytic, **mc_bits})
    return curves


def _correlation_config(resolved: dict, n: int) -> CorrelationConfig:
    cc = resolved["correlation"]
    def spread(block):
        return AngleSpread(*(math.radians(block[f"{stat}_deg"])
                             for stat in ("mean_az", "std_az", "mean_el", "std_el")))
    return CorrelationConfig.square_surface(n, cc["surface_side_m"], cc["wavelength_m"],
                                            aoa=spread(cc["aoa"]), aod=spread(cc["aod"]))


def _run_correlation(spec: ExperimentSpec, extras: dict) -> dict:
    """Scheme 1's Jensen bound (``scheme1_rate_bound``) and both schemes'
    control-variate rates, per N; scheme 2 has no analytic column.  Where a
    factor root leaves the float64 range a run without MC leaves the bound
    blank, with the reason in the manifest, and a run with MC exits 3."""
    n_values = spec.resolved["correlation"]["n_values"]
    bounds, rates = [], []
    for n in n_values:
        cfg = replace(spec.config, n_elements=n)
        try:
            roots = build_correlation(_correlation_config(spec.resolved, n))
            means = scheme_control_means(cfg, roots)
        except NumericalConsistencyError as exc:
            if spec.use_mc:
                raise
            extras["analytic_unavailable"] = str(exc)
            bounds.append(None)
            continue
        bounds.append(scheme1_rate_bound(cfg, means))
        if spec.use_mc:
            rates.append(_to_precision(extras, ("schemes", "scheme", (1, 2)),
                                       functools.partial(_correlation_fit, cfg, means),
                                       simulate_scheme_rates, cfg, roots, spec.plan))
    # each N's estimates are one group per scheme of one cell
    mc = [_mc_columns([schemes[k][0] for schemes in rates]) if spec.use_mc else {}
          for k in (0, 1)]
    return {"correlation_scheme1": ("n_elements", n_values, {"analytic": bounds, **mc[0]}),
            "correlation_scheme2": ("n_elements", n_values, mc[1])}


def _run_rate(spec: ExperimentSpec, extras: dict) -> dict:
    """Jensen rate bounds and the control-variate mean rate over the sweep,
    of gamma_bar_db (one draw) or of n_elements (one draw per N)."""
    cfg, sweep = spec.config, spec.resolved["sweep"]
    unit, sweep = sweep["variable"], sweep["values"]
    # (link, its transmit SNRs in dB): one link over a gamma_bar sweep, or one per N
    points = ([(cfg, sweep)] if unit == "gamma_bar_db"
              else [(replace(cfg, n_elements=n), [cfg.gamma_bar_db]) for n in sweep])
    bounds, estimates = [], []
    for link, dbs in points:
        gamma_bars = _gamma_bars(dbs)
        bounds.append(rate_bounds(link, gamma_bars))
        if spec.use_mc:
            fit = functools.partial(_rate_fit, continuous_control_means(link), gamma_bars)
            estimates += [cell for cell, in _to_precision(extras, ("points", "gamma_bar_db", dbs),
                                                          fit, simulate_snr_samples, link,
                                                          spec.plan)]
    curves = {f"rate_{side}": (unit, sweep, {
        "analytic": np.hstack([getattr(b, side) for b in bounds])}) for side in ("lower", "upper")}
    if spec.use_mc:
        curves["rate_mc"] = (unit, sweep, _mc_columns(estimates))
    return curves


_HEADER_LINE = ",".join(CSV_HEADER)


def _cells(values) -> list[str]:
    return ["" if v is None else "%.12g" % v for v in values]


def _emit(path: Path, x_unit: str, x, analytic=None, asymptotic=None, mc=None, lo=None,
          hi=None) -> None:
    """Write one curve to ``path`` in the format of the module docstring, one
    row per entry of ``x``.  A column left None is blank in every row."""
    blank = [""] * len(x)
    columns = [[x_unit] * len(x), _cells(x)] + [
        blank if col is None else _cells(col) for col in (analytic, asymptotic, mc, lo, hi)]
    rows = [",".join(row) for row in zip(*columns)]
    path.write_text("\r\n".join([_HEADER_LINE, *rows, ""]), newline="")


_RUNNERS = {kind: globals()[f"_run_{kind}"] for kind in KINDS}


def run_experiment(spec: ExperimentSpec) -> Path:
    """Execute one experiment: run its runner, then write its CSVs and the
    manifest; returns the manifest path.  An output directory that cannot be
    made or written is a ConfigError."""
    started = time.time()
    extras: dict[str, object] = {}
    compute_started = time.perf_counter()
    curves = _RUNNERS[spec.kind](spec, extras)
    write_started = time.perf_counter()
    try:
        spec.output_dir.mkdir(parents=True, exist_ok=True)
        files = {name: f"{name}.csv" for name in curves}
        for name, (x_unit, x, columns) in curves.items():
            _emit(spec.output_dir / files[name], x_unit, x, **columns)
        extras["timings"] = {"config_s": round(spec.config_s, 4),
                             "compute_s": round(write_started - compute_started, 4),
                             "write_s": round(time.perf_counter() - write_started, 4)}
        manifest = {
            "experiment": {
                "kind": spec.kind,
                "config": spec.resolved,
                "no_mc": not spec.use_mc,
            },
            # CSVs are byte-identical only under the same bit generator, the same
            # numpy and scipy (numpy's Gamma sampler and ufunc kernels), the same
            # draw per leg shape (extras.mc.runs), the same CPU dispatch level
            # of every SIMD loop in simd_dispatch and the same BLAS core (the
            # eigh and matmul of the law's rule and of the correlation kernel)
            "artifact": {"build": _git_describe(), "version": __version__,
                         "python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "bit_generator": BIT_GENERATOR.__name__,
                         "simd_dispatch": _simd_dispatch(), "blas": _blas()},
            "wall_clock_seconds": round(time.time() - started, 3),
            "files": files,
            "extras": extras,
        }
        path = spec.output_dir / "manifest.json"
        # one line: without indent, json.dumps runs the C encoder
        path.write_text(json.dumps(manifest, sort_keys=True, default=float) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory {spec.output_dir}: {exc}") from None
    return path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslink",
        description="Analytic + Monte-Carlo performance curves for a surface-aided link")
    parser.add_argument("kind", choices=KINDS, help=(
        "experiment to run; rate runs over gamma_bar_db or n_elements, as sweep.variable says"))
    parser.add_argument("--config", help="YAML config (or a manifest.json to reproduce)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--trials", type=int, help=(
        "override the Monte-Carlo trials: the count wdist, snrcdf, outage and ser draw; "
        "rate, quantization and correlation draw at most this many, and stop once every "
        "interval is as narrow as plain Monte-Carlo's at this count"))
    parser.add_argument("--workers", type=int, help=(
        "override the Monte-Carlo worker count (default: one per CPU this process "
        "may run on); it changes no output bit"))
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--no-mc", action="store_true",
                        help="emit analytic curves only, leaving MC columns empty")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _hold_blas_to_one_thread()
    try:
        started = time.perf_counter()
        raw = load_config_file(args.config)
        for key, val in (("seed", args.seed), ("trials", args.trials),
                         ("workers", args.workers)):
            if val is not None:
                raw[key] = val
        cfg, resolved = validate_config(raw, args.kind)
        plan = SimPlan(trials=resolved["trials"], seed=resolved["seed"],
                       workers=resolved["workers"])
        spec = ExperimentSpec(args.kind, cfg, plan, resolved, Path(args.out), not args.no_mc,
                              config_s=time.perf_counter() - started)
        manifest = run_experiment(spec)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalConsistencyError, OverflowError) as exc:
        # OverflowError: a float64 power or factorial of the analytic
        # expressions overflowed, e.g. for very large m_v or leg gains
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    print(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
