"""Configuration: the documented defaults and the one reader of a raw config.

A config is a nested mapping, read from YAML (or from a manifest written
earlier), merged over ``DEFAULT_CONFIG`` and checked field by field; every
violation is collected into one :class:`ConfigError`.  Every field a run
reads is checked here and written back cast (integers as ``int``, reals as
``float``), so the runners read the resolved mapping as it stands.  dB
quantities carry a ``_db`` key suffix, angles a ``_deg`` one.

A config without ``workers`` runs one Monte-Carlo worker per CPU this
process may run on (:func:`usable_cpus`), and the resolved mapping records
that count; an explicit ``workers`` is kept as it is.  The worker count
changes no draw and no output bit.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import yaml

from .channel import LinkParams, Modulation, SystemConfig, db_to_linear, path_loss
from .correlation import CorrelationConfig
from .errors import ConfigError

# Largest element count a config may ask for: per-element arrays stay small,
# and a count beyond it is a typo rather than a surface.
MAX_ELEMENTS = 1_000_000

# Longest side of the squarest grid of a correlated surface: its factor roots
# take side^2 entries and O(side^3) time, about 17 s and 0.5 GB at 2039 x 1,
# where a prime N tiles as N x 1.  Every square count up to MAX_ELEMENTS passes.
MAX_GRID_SIDE = 2048

# Documented defaults: the standard geometry (source-destination 100 m, surface legs
# 60 m each), shapes (2, 3, 4), eta 0.9, BPSK, 20 dB transmit SNR, 10 dB outage
# threshold.  zeta0_db is negative, a 42 dB gain at 1 m: the legs lose 20 dB (60 m)
# and 28 dB (100 m), the mean reflected SNR of the default surface is about
# gamma_bar - 7 dB, and so the 0-45 dB sweep crosses the outage threshold.  A
# physical reference loss of 30-40 dB would move every curve 72-82 dB right.
# workers is None here: a config without it resolves to usable_cpus().
DEFAULT_CONFIG = {
    "n_elements": 16,
    "eta": 0.9,
    "fading": {"m_v": 2.0, "m_g": 3.0, "m_h": 4.0},
    "distances": {"d_sd_m": 100.0, "d_si_m": 60.0, "d_di_m": 60.0},
    "pathloss": {"zeta0_db": -42.0, "exponent": 3.5},
    "gamma_bar_db": 20.0,
    "gamma_th_db": 10.0,
    "modulation": {"alpha": 1.0, "beta": 2.0},
    "trials": 100_000,
    "seed": 1,
    "workers": None,
    "sweep": {"variable": "gamma_bar_db", "values": [float(x) for x in range(0, 46, 3)]},
    "quantization": {"bits": [1, 2, 4], "n_values": [32, 64, 128]},
    "correlation": {
        "surface_side_m": 1.0,
        "wavelength_m": 0.1,
        "n_values": [16, 36, 64, 100, 144],
        "aoa": {"mean_az_deg": 45.0, "std_az_deg": 5.7, "mean_el_deg": 60.0, "std_el_deg": 5.7},
        "aod": {"mean_az_deg": -30.0, "std_az_deg": 5.7, "mean_el_deg": 75.0, "std_el_deg": 5.7},
    },
}


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the
    platform reports one, else ``os.cpu_count()``, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _copy(value):
    """``value`` with every dict and list in it rebuilt; YAML leaves are
    immutable scalars, so nothing else needs a copy."""
    if isinstance(value, dict):
        return {key: _copy(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_copy(val) for val in value]
    return value


def _merge(base: dict, override: dict) -> dict:
    """``override`` merged over ``base``, in base's key order, built of new
    dicts and lists as it goes: the result shares no container with either."""
    out = {}
    for key, val in {**base, **override}.items():
        if key in override and isinstance(val, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val)
        else:
            out[key] = _copy(val)
    return out


def _real(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"must be a finite number, got {value!r}")
    return out


def _integer(value) -> int:
    if isinstance(value, int):
        return value
    out = _real(value)
    if not out.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(out)


def _positive_float(compute) -> float | None:
    """``compute()`` where it is a positive finite float; None otherwise,
    overflow included."""
    try:
        value = compute()
    except OverflowError:
        return None
    return value if 0.0 < value < math.inf else None


def _count(n: int) -> bool:
    return 1 <= n <= MAX_ELEMENTS


def _linear(db: float) -> bool:
    return _positive_float(lambda: db_to_linear(db)) is not None


_COUNT_RULE = f"element counts must lie in 1..{MAX_ELEMENTS}"
_LINEAR_RULE = "10^(dB/10) must be a positive finite float"


def validate_config(raw: dict | None, kind: str = "rate") -> tuple[SystemConfig, dict]:
    """The link of ``raw`` merged over the defaults, and the resolved mapping.

    Every field a run of ``kind`` reads is checked and written back cast into
    the resolved mapping, whose dicts and lists are all new, so it shares no
    container with ``raw`` or ``DEFAULT_CONFIG``; every violation is
    aggregated into one ConfigError.  Without ``workers`` in ``raw`` the
    resolved count is ``usable_cpus()``.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a mapping"])
    try:
        resolved = _merge(DEFAULT_CONFIG, raw)
    except RecursionError:
        # a YAML alias can put a node inside itself
        raise ConfigError(["configuration contains itself or nests too deeply"]) from None
    if "workers" not in raw:
        resolved["workers"] = usable_cpus()
    errors = []

    def grab(path, cast, check=None, message=None, many=False):
        *parents, leaf = path.split(".")
        node = resolved
        try:
            for part in parents:
                node = node[part]
            value = [cast(v) for v in node[leaf]] if many else cast(node[leaf])
        except (KeyError, TypeError):
            errors.append(f"{path}: missing or malformed")
            return None
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
        if check is not None and not check(value):
            errors.append(f"{path}: {message}")
            return None
        node[leaf] = value
        return value

    n = grab("n_elements", _integer, _count, _COUNT_RULE)
    eta = grab("eta", _real, lambda v: 0 < v <= 1.0, "eta must lie in (0, 1]")
    m_v = grab("fading.m_v", _real, lambda v: v >= 0.5, "Nakagami shape must be >= 0.5")
    m_g = grab("fading.m_g", _real, lambda v: v >= 0.5, "Nakagami shape must be >= 0.5")
    m_h = grab("fading.m_h", _real, lambda v: v >= 0.5, "Nakagami shape must be >= 0.5")
    d_sd = grab("distances.d_sd_m", _real, lambda v: v > 0, "distance must be positive")
    d_si = grab("distances.d_si_m", _real, lambda v: v > 0, "distance must be positive")
    d_di = grab("distances.d_di_m", _real, lambda v: v > 0, "distance must be positive")
    zeta0 = grab("pathloss.zeta0_db", _real)
    ple = grab("pathloss.exponent", _real, lambda v: v > 0, "exponent must be positive")
    gbar_db = grab("gamma_bar_db", _real, _linear, _LINEAR_RULE)
    grab("gamma_th_db", _real, _linear, _LINEAR_RULE)
    alpha = grab("modulation.alpha", _real, lambda v: v > 0, "alpha must be positive")
    beta = grab("modulation.beta", _real, lambda v: v > 0, "beta must be positive")
    grab("trials", _integer, lambda v: v >= 1, "trials must be >= 1")
    grab("seed", _integer, lambda v: v >= 0, "seed must be >= 0")
    grab("workers", _integer, lambda v: v >= 1, "workers must be >= 1")
    variable = grab("sweep.variable", str,
                    lambda v: v in ("gamma_bar_db", "n_elements"),
                    "sweep variable must be gamma_bar_db or n_elements")
    values = grab("sweep.values", _integer if variable == "n_elements" else _real,
                  lambda v: len(v) > 0, "sweep values must be nonempty", many=True)

    # 2^-64 of a half turn is far below the float resolution of a phase
    grab("quantization.bits", _integer, lambda v: len(v) > 0 and all(1 <= b <= 64 for b in v),
         "must be a nonempty list of widths in 1..64", many=True)
    grab("quantization.n_values", _integer, lambda v: len(v) > 0 and all(map(_count, v)),
         f"must be a nonempty list of {_COUNT_RULE}", many=True)
    corr_n = grab("correlation.n_values", _integer, lambda v: len(v) > 0 and all(map(_count, v)),
                  f"must be a nonempty list of {_COUNT_RULE}", many=True)
    side = grab("correlation.surface_side_m", _real, lambda v: v > 0, "must be positive")
    wavelength = grab("correlation.wavelength_m", _real, lambda v: v > 0, "must be positive")
    for side_name in ("aoa", "aod"):
        for axis in ("az", "el"):
            grab(f"correlation.{side_name}.mean_{axis}_deg", _real)
            grab(f"correlation.{side_name}.std_{axis}_deg", _real, lambda v: v >= 0,
                 "angle spread must be >= 0")

    if values is not None:
        if any(b <= a for a, b in zip(values, values[1:])):
            errors.append("sweep.values: must be strictly increasing")
        if variable == "n_elements" and not all(map(_count, values)):
            errors.append(f"sweep.values: {_COUNT_RULE}")
        if variable == "gamma_bar_db" and not all(map(_linear, values)):
            errors.append(f"sweep.values: {_LINEAR_RULE}")
    # rate runs over either variable; wdist, snrcdf and correlation read no sweep
    if kind in ("outage", "ser", "quantization") and variable == "n_elements":
        errors.append(f"sweep.variable: {kind} sweeps gamma_bar_db only")

    zeta = {}
    for path, d in (("d_sd_m", d_sd), ("d_si_m", d_si), ("d_di_m", d_di)):
        if None not in (d, zeta0, ple):
            zeta[path] = _positive_float(lambda: path_loss(d, zeta0, ple))
            if zeta[path] is None:
                errors.append(f"distances.{path}: the leg gain at {d} m under pathloss "
                              f"(zeta0_db={zeta0}, exponent={ple}) leaves the float range")

    for n_corr in corr_n or ():
        n_az, n_el = CorrelationConfig.tiling(n_corr)
        if n_az > MAX_GRID_SIDE:
            errors.append(f"correlation.n_values: the squarest grid of {n_corr} elements is "
                          f"{n_az} x {n_el}, longer than {MAX_GRID_SIDE} on a side")

    # the finest element spacing in wavelengths; 0 where a tiny surface meets a
    # long wavelength (an infinite one leaves the correlation factors non-finite)
    if None not in (side, wavelength, corr_n) and not side / max(corr_n) / wavelength > 0:
        errors.append("correlation.surface_side_m: the element spacing in wavelengths "
                      "underflows to 0")

    if errors:
        raise ConfigError(errors)

    cfg = SystemConfig(
        n_elements=n, eta=eta,
        v=LinkParams(m_v, zeta["d_sd_m"]),
        g=LinkParams(m_g, zeta["d_si_m"]),
        h=LinkParams(m_h, zeta["d_di_m"]),
        gamma_bar_db=gbar_db,
        modulation=Modulation(alpha=alpha, beta=beta),
    )
    return cfg, resolved


def load_config_file(path: str | None) -> dict:
    """YAML config or a previously written JSON manifest (re-ingestion)."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
        if not text.strip():
            return {}
        # libyaml's parser where PyYAML was built with it; same safe constructors
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["configuration root must be a mapping"])
    if "experiment" in data and isinstance(data["experiment"], dict):
        return data["experiment"].get("config", {})
    return data
