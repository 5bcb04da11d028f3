"""Experiment runner: figure-style sweeps to CSV plus a JSON manifest.

Kinds (the one positional argument): wdist, snrcdf, outage, rate, ser,
quantization, correlation, sweep.  Output is data only (one CSV per curve,
fixed column schema), never rendered plots.  Exit codes: 0 success, 2
configuration error, 3 numerical consistency failure.

Configuration is a nested YAML file.  :mod:`irslink.config` is its one
reader: it checks every field and returns the link plus the resolved mapping
with each value cast, which the runners read as it stands.  An empty (or
missing) file yields the documented default configuration; a previously
written manifest can be passed back through ``--config`` to reproduce a run
byte-for-byte.

Every CSV has the header ``CSV_HEADER`` and one row per sweep point; cells are
comma-separated and lines end in CRLF.  The ``x_unit`` cell names the sweep
variable, every other cell is a number written with ``%.12g``, and a value
that is absent (a column the run does not produce, or a blank asymptote) is
an empty cell.  No cell needs quoting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import SystemConfig, db_to_linear
from .config import DEFAULT_CONFIG, load_config_file, validate_config  # noqa: F401
from .cltapprox import w_stats
from .correlation import AngleSpread, CorrelationConfig, simulate_scheme_rates
from .errors import ConfigError, NumericalConsistencyError
from .metrics import (asymptotic_outage, asymptotic_ser, outage_probability,
                      quantized_rate_bounds, rate_bounds, ser_upper_bound)
from .montecarlo import (BIT_GENERATOR, Estimate, SimPlan, _chunk_size, empirical_ber,
                         empirical_cdf, empirical_outage, empirical_rate, empirical_rate_ratio,
                         simulate_snr_samples)
from .montecarlo import reflected_sum_samples as _reflected_sum_samples
from .snrdist import SnrCdfParams, snr_cdf
from .specfun import gaussian_q

CSV_HEADER = ["x_unit", "x", "analytic", "asymptotic", "mc", "mc_ci_low", "mc_ci_high"]

KINDS = ("wdist", "snrcdf", "outage", "rate", "ser", "quantization", "correlation", "sweep")

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
    # seconds per stage for the manifest's extras.timings: config_s is set by
    # the caller, write_s sums the CSV writes
    timings: dict = field(default_factory=lambda: {"config_s": 0.0, "write_s": 0.0})


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
def _trig_dispatch() -> str | None:
    """CPU dispatch target of numpy's float32 sin and cos loops (e.g.
    ``X86_V4``), which evaluate the MC phasors; None where numpy predates
    ``numpy.lib.introspect``.  Once per process."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="^(sin|cos)$", signature="float32")
    return "/".join(sorted({loop["current"] for func in info.values() for loop in func.values()}))


def _gamma_bars(sweep) -> np.ndarray:
    """The transmit SNRs of a dB sweep, each as ``SystemConfig.gamma_bar`` has it."""
    return np.array([db_to_linear(db) for db in sweep])


def _timed_mc(extras: dict, sampler, cfg: SystemConfig, *args):
    """``sampler(cfg, *args)``, whose last argument is the SimPlan, with its
    trials, chunks and seconds added to the manifest's ``extras.mc``."""
    plan = args[-1]
    started = time.perf_counter()
    result = sampler(cfg, *args)
    seconds = time.perf_counter() - started
    chunk_trials = _chunk_size(cfg.n_elements)
    chunks = -(-plan.trials // chunk_trials)
    mc = extras.setdefault("mc", {"workers": plan.workers, "trials": 0, "chunks": 0,
                                  "seconds": 0.0, "runs": []})
    mc["runs"].append({"n_elements": cfg.n_elements, "trials": plan.trials,
                       "chunk_trials": chunk_trials, "chunks": chunks,
                       "seconds": round(seconds, 4)})
    mc["trials"] += plan.trials
    mc["chunks"] += chunks
    mc["seconds"] = round(mc["seconds"] + seconds, 4)
    mc["trials_per_s"] = round(mc["trials"] / mc["seconds"]) if mc["seconds"] else None
    return result


def _mc_columns(estimates) -> dict:
    return {"mc": [e.value for e in estimates], "lo": [e.ci_low for e in estimates],
            "hi": [e.ci_high for e in estimates]}


def _mc_sweep(gamma_bars: np.ndarray, unit_samples: np.ndarray, estimator) -> dict:
    """MC columns of ``estimator(gamma_bar * unit_samples)`` at each transmit SNR."""
    return _mc_columns([estimator(gb * unit_samples) for gb in gamma_bars])


def _asymptote_column(evaluator, gamma_bars: np.ndarray, extras: dict) -> list:
    """High-SNR floor per sweep point; blank where it exceeds the double range."""
    values = [evaluator(gb) for gb in gamma_bars]
    extras["asymptotic_blank_points"] = sum(not math.isfinite(v) for v in values)
    return [v if math.isfinite(v) else None for v in values]


def _run_wdist(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    cfg = spec.config
    tn = w_stats(cfg)
    sd = tn.sigma_bar
    grid = np.linspace(max(1e-9, tn.mu_bar - 5 * sd), tn.mu_bar + 5 * sd, 201)
    xi_phi = tn.xi / math.sqrt(2 * math.pi * tn.sigma2_bar)
    pdf = xi_phi * np.exp(-((grid - tn.mu_bar) ** 2) / (2 * tn.sigma2_bar))
    cdf = 1.0 - tn.xi * gaussian_q((grid - tn.mu_bar) / sd)
    mc_pdf = mc_cdf = None
    if spec.use_mc:
        samples = _timed_mc(extras, _reflected_sum_samples, cfg, spec.plan)
        hist, edges = np.histogram(samples, bins=80,
                                   range=(float(grid[0]), float(grid[-1])), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        mc_pdf = np.interp(grid, centers, hist)
        mc_cdf = empirical_cdf(samples)(grid)
        extras["mc_trials"] = spec.plan.trials
    _emit(spec, files, "wdist_pdf", "w", grid, analytic=pdf, mc=mc_pdf)
    _emit(spec, files, "wdist_cdf", "w", grid, analytic=cdf, mc=mc_cdf)
    extras["mu_bar"], extras["sigma2_bar"], extras["xi"] = tn.mu_bar, tn.sigma2_bar, tn.xi


def _run_snrcdf(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    cfg = spec.config
    params = SnrCdfParams.from_config(cfg)
    mean_db = 10 * math.log10(cfg.gamma_bar * (params.tn.mu_bar**2 + 1e-300))
    grid_db = np.linspace(mean_db - 12.0, mean_db + 6.0, 121)
    y = 10 ** (grid_db / 10)
    analytic = snr_cdf(y / cfg.gamma_bar, params)
    mc = None
    if spec.use_mc:
        samples = cfg.gamma_bar * _timed_mc(extras, simulate_snr_samples, cfg, spec.plan)
        mc = empirical_cdf(samples)(y)
        extras["ks_distance"] = float(np.max(np.abs(mc - analytic)))
    _emit(spec, files, "snrcdf", "gamma_db", grid_db, analytic=analytic, mc=mc)


def _asymptote(extras: dict, fit, **report):
    """Evaluator of the high-SNR floor ``fit() -> (result, evaluator)``, with
    ``report`` (manifest key -> function of the result) added to the extras.
    Where the floor's constants are undefined (m_g == m_h, or m_b - m_a <= 1/2)
    or leave the float64 range, the reported keys are null, the reason is
    recorded, and the evaluator returns inf, which leaves the asymptotic
    column blank."""
    try:
        result, evaluator = fit()
    except (ConfigError, NumericalConsistencyError) as exc:
        extras.update(dict.fromkeys(report), asymptote_unavailable=str(exc))
        return lambda gamma_bar: math.inf
    extras.update({key: get(result) for key, get in report.items()})
    return evaluator


def _run_outage(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    gamma_th = db_to_linear(spec.resolved["gamma_th_db"])
    evaluator = _asymptote(extras, lambda: asymptotic_outage(spec.config, gamma_th),
                           diversity_order=lambda r: r.g_d,
                           log10_omega_op=lambda r: r.log_omega_op / math.log(10))
    _floor_curves(spec, files, extras, "outage", "analytic",
                  lambda gamma_bars: outage_probability(spec.config, gamma_th, gamma_bars),
                  evaluator, lambda snr: empirical_outage(snr, gamma_th))


def _run_ser(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    evaluator = _asymptote(extras, lambda: asymptotic_ser(spec.config),
                           diversity_order=lambda r: r.g_d, coding_gain=lambda r: r.g_c)
    mod = spec.config.modulation
    _floor_curves(spec, files, extras, "ser", "bound",
                  functools.partial(ser_upper_bound, spec.config), evaluator,
                  lambda snr: empirical_ber(snr, mod.alpha, mod.beta))


def _floor_curves(spec: ExperimentSpec, files: dict, extras: dict, kind: str, name: str,
                  analytic, evaluator, estimator) -> None:
    """Curves of one metric over the gamma_bar sweep: ``analytic(gamma_bars)``,
    the values at every point, the high-SNR floor ``evaluator(gamma_bar)`` and
    the MC estimate."""
    sweep = spec.resolved["sweep"]["values"]
    gamma_bars = _gamma_bars(sweep)
    # the column keywords of each curve file, by file-name suffix
    curves = {name: {"analytic": analytic(gamma_bars)},
              "asymptotic": {"asymptotic": _asymptote_column(evaluator, gamma_bars, extras)}}
    if spec.use_mc:
        curves["mc"] = _mc_sweep(gamma_bars, _timed_mc(
            extras, simulate_snr_samples, spec.config, spec.plan), estimator)
    for suffix, columns in curves.items():
        _emit(spec, files, f"{kind}_{suffix}", "gamma_bar_db", sweep, **columns)


def _rate_percent(snr_pair: np.ndarray) -> Estimate:
    """Quantized rate as a percentage of the unquantized one, from the paired
    rows (continuous, quantized) of one draw."""
    ratio = empirical_rate_ratio(snr_pair[1], snr_pair[0])
    return Estimate(100.0 * ratio.value, 100.0 * ratio.ci_low, 100.0 * ratio.ci_high)


def _run_quantization(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    sweep, quant = spec.resolved["sweep"]["values"], spec.resolved["quantization"]
    gamma_bars, widths = _gamma_bars(sweep), tuple(quant["bits"])
    for n in quant["n_values"]:
        cfg_n = replace(spec.config, n_elements=n)
        if spec.use_mc:
            # one draw per N: row 0 with continuous phases, row k at widths[k-1]
            rows = _timed_mc(extras, simulate_snr_samples, cfg_n,
                             replace(spec.plan, quantization_bits=widths))
        cb = rate_bounds(cfg_n, gamma_bars)
        for k, bits in enumerate(widths, 1):
            qb, mc = quantized_rate_bounds(cfg_n, bits, gamma_bars), {}
            analytic = 100.0 * (qb.lower + qb.upper) / (cb.lower + cb.upper)
            if spec.use_mc:
                mc = _mc_sweep(gamma_bars, rows[[0, k]], _rate_percent)
            _emit(spec, files, f"quantization_b{bits}_n{n}", "gamma_bar_db", sweep,
                  analytic=analytic, **mc)


def _correlation_config(resolved: dict, n: int) -> CorrelationConfig:
    cc = resolved["correlation"]
    def spread(block):
        return AngleSpread(*(math.radians(block[f"{stat}_deg"])
                             for stat in ("mean_az", "std_az", "mean_el", "std_el")))
    return CorrelationConfig.square_surface(n, cc["surface_side_m"], cc["wavelength_m"],
                                            aoa=spread(cc["aoa"]), aod=spread(cc["aod"]))


def _run_correlation(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    n_values = spec.resolved["correlation"]["n_values"]
    rates = [_timed_mc(extras, simulate_scheme_rates, replace(spec.config, n_elements=n),
                       _correlation_config(spec.resolved, n), spec.plan)
             for n in n_values] if spec.use_mc else []
    for s in (1, 2):
        mc = _mc_columns([r[s] for r in rates]) if spec.use_mc else {}
        _emit(spec, files, f"correlation_scheme{s}", "n_elements", n_values, **mc)


def _rate_curves(spec: ExperimentSpec, files: dict, extras: dict, prefix: str) -> None:
    """Jensen rate bounds and the MC rate over the sweep (gamma_bar_db or n_elements)."""
    cfg, sweep = spec.config, spec.resolved["sweep"]
    unit, sweep = sweep["variable"], sweep["values"]
    # (link, its transmit SNRs): one link over a gamma_bar sweep, or one per N
    points = ([(cfg, _gamma_bars(sweep))] if unit == "gamma_bar_db"
              else [(replace(cfg, n_elements=n), cfg.gamma_bar) for n in sweep])
    bounds = [rate_bounds(c, gamma_bars) for c, gamma_bars in points]
    for side in ("lower", "upper"):
        _emit(spec, files, f"{prefix}_{side}", unit, sweep,
              analytic=np.hstack([getattr(b, side) for b in bounds]))
    if spec.use_mc:
        estimates = []
        for c, gamma_bars in points:
            unit_samples = _timed_mc(extras, simulate_snr_samples, c, spec.plan)
            estimates += [empirical_rate(gb * unit_samples) for gb in np.atleast_1d(gamma_bars)]
        _emit(spec, files, f"{prefix}_mc", unit, sweep, **_mc_columns(estimates))


_run_rate = functools.partial(_rate_curves, prefix="rate")
_run_sweep = functools.partial(_rate_curves, prefix="sweep_rate")


_HEADER_LINE = ",".join(CSV_HEADER)


def _cells(values) -> list[str]:
    return ["" if v is None else "%.12g" % v for v in values]


def _emit(spec: ExperimentSpec, files: dict, name: str, x_unit: str, x, analytic=None,
          asymptotic=None, mc=None, lo=None, hi=None) -> None:
    """Write curve ``name`` to ``<name>.csv`` in the format of the module
    docstring, one row per entry of ``x``, and list it in the manifest's files.
    A column left None is blank in every row."""
    started = time.perf_counter()
    files[name] = f"{name}.csv"
    blank = [""] * len(x)
    columns = [[x_unit] * len(x), _cells(x)] + [
        blank if col is None else _cells(col) for col in (analytic, asymptotic, mc, lo, hi)]
    rows = [",".join(row) for row in zip(*columns)]
    (spec.output_dir / files[name]).write_text("\r\n".join([_HEADER_LINE, *rows, ""]),
                                              newline="")
    spec.timings["write_s"] += time.perf_counter() - started


_RUNNERS = {kind: globals()[f"_run_{kind}"] for kind in KINDS}


def run_experiment(spec: ExperimentSpec) -> Path:
    """Execute one experiment; returns the manifest path."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    files: dict[str, str] = {}
    extras: dict[str, object] = {}
    spec.timings["write_s"] = 0.0
    run_started = time.perf_counter()
    _RUNNERS[spec.kind](spec, files, extras)
    compute_s = time.perf_counter() - run_started - spec.timings["write_s"]
    extras["timings"] = {key: round(seconds, 4)
                         for key, seconds in {**spec.timings, "compute_s": compute_s}.items()}
    manifest = {
        "experiment": {
            "kind": spec.kind,
            "config": spec.resolved,
            "no_mc": not spec.use_mc,
        },
        # MC columns are byte-identical only under the same bit generator,
        # the same numpy (its gamma, sin and cos kernels) and the same CPU
        # dispatch level of its float32 sin and cos SIMD loops
        "artifact": {"build": _git_describe(), "version": __version__,
                     "python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "bit_generator": BIT_GENERATOR.__name__,
                     "trig_dispatch": _trig_dispatch()},
        "wall_clock_seconds": round(time.time() - started, 3),
        "files": files,
        "extras": extras,
    }
    path = spec.output_dir / "manifest.json"
    # one line: without indent, json.dumps runs the C encoder
    path.write_text(json.dumps(manifest, sort_keys=True, default=float) + "\n")
    return path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslink",
        description="Analytic + Monte-Carlo performance curves for a surface-aided link")
    parser.add_argument("kind", choices=KINDS, help="experiment to run")
    parser.add_argument("--config", help="YAML config (or a manifest.json to reproduce)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--trials", type=int, help="override the Monte-Carlo trial count")
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--no-mc", action="store_true",
                        help="emit analytic curves only, leaving MC columns empty")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        spec = ExperimentSpec(args.kind, cfg, plan, resolved, Path(args.out), not args.no_mc)
        spec.timings["config_s"] = time.perf_counter() - started
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
