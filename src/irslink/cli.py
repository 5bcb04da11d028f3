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
"""

from __future__ import annotations

import argparse
import csv
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
from .channel import SystemConfig
from .config import DEFAULT_CONFIG, load_config_file, validate_config  # noqa: F401
from .cltapprox import w_stats
from .correlation import AngleSpread, CorrelationConfig, simulate_scheme_rates
from .errors import ConfigError, NumericalConsistencyError, UnsupportedShapeError
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


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _curve_rows(x, analytic=None, asymptotic=None, mc=None, lo=None, hi=None):
    def pick(seq, i):
        return None if seq is None else seq[i]
    return [(xi, pick(analytic, i), pick(asymptotic, i), pick(mc, i), pick(lo, i), pick(hi, i))
            for i, xi in enumerate(x)]


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


def _gamma_bar(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _gamma_bars(sweep) -> np.ndarray:
    """The transmit SNRs of a dB sweep, each as ``SystemConfig.gamma_bar`` has it."""
    return np.array([_gamma_bar(db) for db in sweep])


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


def _unit_snr_samples(cfg: SystemConfig, plan: SimPlan, extras: dict) -> np.ndarray:
    """SNR samples at gamma_bar = 1 (0 dB).  The draws do not depend on gamma_bar
    and the kernel multiplies by it last, so ``gamma_bar * samples`` equals the
    samples simulated at that gamma_bar bit for bit: one draw serves a sweep."""
    return _timed_mc(extras, simulate_snr_samples, replace(cfg, gamma_bar_db=0.0), plan)


def _mc_columns(estimates) -> dict:
    return {"mc": [e.value for e in estimates], "lo": [e.ci_low for e in estimates],
            "hi": [e.ci_high for e in estimates]}


def _mc_sweep(sweep, unit_samples: np.ndarray, estimator) -> dict:
    """MC columns of ``estimator(gamma_bar * unit_samples)`` over the dB sweep."""
    return _mc_columns([estimator(_gamma_bar(db) * unit_samples) for db in sweep])


def _asymptote_column(evaluator, sweep, extras: dict) -> list:
    """High-SNR floor per sweep point; blank where it exceeds the double range."""
    values = [evaluator(_gamma_bar(db)) for db in sweep]
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
    _emit(spec, files, "wdist_pdf", "w", _curve_rows(grid, analytic=pdf, mc=mc_pdf))
    _emit(spec, files, "wdist_cdf", "w", _curve_rows(grid, analytic=cdf, mc=mc_cdf))
    extras["mu_bar"], extras["sigma2_bar"], extras["xi"] = tn.mu_bar, tn.sigma2_bar, tn.xi


def _run_snrcdf(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    cfg = spec.config
    params = SnrCdfParams.from_config(cfg)
    mean_db = 10 * math.log10(cfg.gamma_bar * (params.tn.mu_bar**2 + 1e-300))
    grid_db = np.linspace(mean_db - 12.0, mean_db + 6.0, 121)
    y = 10 ** (grid_db / 10)
    analytic = snr_cdf(y, params)
    mc = None
    if spec.use_mc:
        samples = _timed_mc(extras, simulate_snr_samples, cfg, spec.plan)
        mc = empirical_cdf(samples)(y)
        extras["ks_distance"] = float(np.max(np.abs(mc - analytic)))
    _emit(spec, files, "snrcdf", "gamma_db", _curve_rows(grid_db, analytic=analytic, mc=mc))


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
    gamma_th = 10 ** (spec.resolved["gamma_th_db"] / 10)
    evaluator = _asymptote(extras, lambda: asymptotic_outage(spec.config, gamma_th),
                           diversity_order=lambda r: r.g_d,
                           log10_omega_op=lambda r: r.log_omega_op / math.log(10))
    # P(gamma_bar R^2 <= gamma_th) is the CDF at 0 dB (gamma_bar exactly 1) of
    # gamma_th / gamma_bar: one array evaluation serves the sweep, bit for bit
    unit = SnrCdfParams.from_config(replace(spec.config, gamma_bar_db=0.0))
    _floor_curves(spec, files, extras, "outage", "analytic",
                  lambda sweep: outage_probability(gamma_th / _gamma_bars(sweep), unit),
                  evaluator, lambda snr: empirical_outage(snr, gamma_th))


def _run_rate(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    _rate_curves(spec, files, extras, "rate")


def _run_ser(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    evaluator = _asymptote(extras, lambda: asymptotic_ser(spec.config),
                           diversity_order=lambda r: r.g_d, coding_gain=lambda r: r.g_c)
    mod = spec.config.modulation
    _floor_curves(spec, files, extras, "ser", "bound",
                  lambda sweep: ser_upper_bound(spec.config, _gamma_bars(sweep)),
                  evaluator, lambda snr: empirical_ber(snr, mod.alpha, mod.beta))


def _floor_curves(spec: ExperimentSpec, files: dict, extras: dict, kind: str, name: str,
                  analytic, evaluator, estimator) -> None:
    """Curves of one metric over the gamma_bar sweep: ``analytic(sweep)``, the
    values at every point, the high-SNR floor ``evaluator(gamma_bar)`` and the
    MC estimate."""
    sweep = spec.resolved["sweep"]["values"]
    closed = analytic(sweep)
    curves = {name: _curve_rows(sweep, analytic=closed),
              "asymptotic": _curve_rows(sweep, asymptotic=_asymptote_column(evaluator, sweep,
                                                                             extras))}
    if spec.use_mc:
        curves["mc"] = _curve_rows(sweep, **_mc_sweep(
            sweep, _unit_snr_samples(spec.config, spec.plan, extras), estimator))
    for suffix, rows in curves.items():
        _emit(spec, files, f"{kind}_{suffix}", "gamma_bar_db", rows)


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
            rows = _unit_snr_samples(cfg_n, replace(spec.plan, quantization_bits=widths), extras)
        cb = rate_bounds(cfg_n, gamma_bars)
        for k, bits in enumerate(widths, 1):
            qb, mc = quantized_rate_bounds(cfg_n, bits, gamma_bars), {}
            analytic = 100.0 * (qb.lower + qb.upper) / (cb.lower + cb.upper)
            if spec.use_mc:
                mc = _mc_sweep(sweep, rows[[0, k]], _rate_percent)
            _emit(spec, files, f"quantization_b{bits}_n{n}", "gamma_bar_db",
                  _curve_rows(sweep, analytic=analytic, **mc))


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
        _emit(spec, files, f"correlation_scheme{s}", "n_elements", _curve_rows(n_values, **mc))


def _run_sweep(spec: ExperimentSpec, files: dict, extras: dict) -> None:
    _rate_curves(spec, files, extras, "sweep_rate")


def _rate_curves(spec: ExperimentSpec, files: dict, extras: dict, prefix: str) -> None:
    """Jensen rate bounds and the MC rate over the sweep (gamma_bar_db or n_elements)."""
    cfg, sweep = spec.config, spec.resolved["sweep"]
    unit, sweep = sweep["variable"], sweep["values"]
    if unit == "gamma_bar_db":
        bounds = [rate_bounds(cfg, _gamma_bars(sweep))]
    else:
        configs = [replace(cfg, n_elements=n) for n in sweep]
        bounds = [rate_bounds(c, cfg.gamma_bar) for c in configs]
    for side in ("lower", "upper"):
        _emit(spec, files, f"{prefix}_{side}", unit,
              _curve_rows(sweep, analytic=np.hstack([getattr(b, side) for b in bounds])))
    if spec.use_mc:
        if unit == "gamma_bar_db":
            mc = _mc_sweep(sweep, _unit_snr_samples(cfg, spec.plan, extras), empirical_rate)
        else:
            mc = _mc_columns([empirical_rate(_timed_mc(extras, simulate_snr_samples, c,
                                                       spec.plan))
                              for c in configs])
        _emit(spec, files, f"{prefix}_mc", unit, _curve_rows(sweep, **mc))


def _emit(spec: ExperimentSpec, files: dict, name: str, x_unit: str, rows) -> None:
    """Write curve ``name`` to ``<name>.csv`` and list it in the manifest's files."""
    files[name] = f"{name}.csv"
    with (spec.output_dir / files[name]).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([x_unit, _fmt(row[0])] + [_fmt(v) for v in row[1:]])


_RUNNERS = {kind: globals()[f"_run_{kind}"] for kind in KINDS}


def run_experiment(spec: ExperimentSpec) -> Path:
    """Execute one experiment; returns the manifest path."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    files: dict[str, str] = {}
    extras: dict[str, object] = {}
    _RUNNERS[spec.kind](spec, files, extras)
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
    with path.open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


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
        raw = load_config_file(args.config)
        for key, val in (("seed", args.seed), ("trials", args.trials),
                         ("workers", args.workers)):
            if val is not None:
                raw[key] = val
        cfg, resolved = validate_config(raw, args.kind)
        plan = SimPlan(trials=resolved["trials"], seed=resolved["seed"],
                       workers=resolved["workers"])
        manifest = run_experiment(ExperimentSpec(args.kind, cfg, plan, resolved,
                                                 Path(args.out), not args.no_mc))
    except (ConfigError, UnsupportedShapeError) as exc:
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
