"""Output checks for one finished ``irslink`` invocation.

Each check takes the loaded output and returns a list of problems; an empty
list means the output passed.  The statistical checks compare Monte-Carlo
columns with the closed forms they validate, so they only apply where the
invocation ran Monte-Carlo.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Largest accepted KS distance between the MC and closed-form SNR CDFs:
# the truncated-normal model error (about 0.010 at the default config) plus
# the 99.9% band of the KS statistic for the trial count.
KS_MODEL_ERROR = 0.012


def ks_bound(trials: int) -> float:
    return KS_MODEL_ERROR + 1.95 / math.sqrt(trials)

# Fixed grid sizes of the curve writers.
SNRCDF_ROWS = 121
WDIST_ROWS = 201

# Files whose analytic and MC values are probabilities.  The asymptotic
# columns are excluded: the high-SNR floors exceed 1 at low SNR by design.
# So are the CI ends: the SER CI is a normal interval around the mean, and
# its low end goes slightly below 0 where the MC estimate is ~0.
PROBABILITY_FILES = ("snrcdf", "wdist_cdf", "outage_analytic", "outage_mc",
                     "ser_bound", "ser_mc")
PROBABILITY_COLUMNS = ("analytic", "mc")


class Output:
    """The manifest and parsed curves of one invocation's output directory."""

    def __init__(self, out_dir: Path, header: list[str]):
        self.problems: list[str] = []
        self.manifest = json.loads((out_dir / "manifest.json").read_text())
        self.curves: dict[str, list[dict]] = {}
        for name, filename in self.manifest.get("files", {}).items():
            self.curves[name] = self._read(out_dir / filename, header)

    def _read(self, path: Path, header: list[str]) -> list[dict]:
        if not path.is_file():
            self.problems.append(f"{path.name}: listed in the manifest but missing")
            return []
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            self.problems.append(f"{path.name}: header is not {header}")
            return []
        parsed = []
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                self.problems.append(f"{path.name}:{line}: {len(row)} cells")
                continue
            values = {}
            for col, cell in zip(header[1:], row[1:]):
                try:
                    values[col] = float(cell) if cell else None
                except ValueError:
                    self.problems.append(f"{path.name}:{line}: {col}={cell!r} is not a number")
                    values[col] = None
            parsed.append(values)
        return parsed


def expected_files(kind: str, resolved: dict, use_mc: bool) -> dict[str, int]:
    """Curve names an invocation must write, with their row counts."""
    sweep = len(resolved["sweep"]["values"])
    if kind == "wdist":
        return {"wdist_pdf": WDIST_ROWS, "wdist_cdf": WDIST_ROWS}
    if kind == "snrcdf":
        return {"snrcdf": SNRCDF_ROWS}
    if kind in ("outage", "rate", "ser"):
        names = {"outage": ("outage_analytic", "outage_asymptotic"),
                 "rate": ("rate_lower", "rate_upper"),
                 "ser": ("ser_bound", "ser_asymptotic")}[kind]
        names += (f"{kind}_mc",) if use_mc else ()
        return {name: sweep for name in names}
    if kind == "quantization":
        quant = resolved["quantization"]
        return {f"quantization_b{b}_n{n}": sweep
                for n in quant["n_values"] for b in quant["bits"]}
    if kind == "correlation":
        rows = len(resolved["correlation"]["n_values"])
        return {"correlation_scheme1": rows, "correlation_scheme2": rows}
    raise ValueError(f"no output contract for kind {kind!r}")


def check_files(out: Output, expected: dict[str, int]) -> list[str]:
    problems = list(out.problems)
    if set(out.curves) != set(expected):
        problems.append(f"files {sorted(out.curves)} != expected {sorted(expected)}")
    for name, rows in expected.items():
        got = len(out.curves.get(name, []))
        if name in out.curves and got != rows:
            problems.append(f"{name}: {got} rows, expected {rows}")
    return problems


def check_finite(out: Output) -> list[str]:
    return [f"{name} row {i}: {col}={val}"
            for name, rows in out.curves.items() for i, row in enumerate(rows)
            for col, val in row.items() if val is not None and not math.isfinite(val)]


def check_probabilities(out: Output) -> list[str]:
    return [f"{name} row {i}: {col}={row[col]} outside [0,1]"
            for name in PROBABILITY_FILES for i, row in enumerate(out.curves.get(name, []))
            for col in PROBABILITY_COLUMNS
            if row.get(col) is not None and not 0.0 <= row[col] <= 1.0]


def _complete(*rows_and_cols) -> bool:
    return all(row.get(col) is not None for row, col in rows_and_cols)


def check_ci_order(out: Output) -> list[str]:
    """Where a CI is written (wdist and snrcdf write none), it holds the estimate."""
    return [f"{name} row {i}: not mc_ci_low <= mc <= mc_ci_high"
            for name, rows in out.curves.items() for i, row in enumerate(rows)
            if row.get("mc") is not None
            and (row.get("mc_ci_low") is not None or row.get("mc_ci_high") is not None)
            and not (_complete((row, "mc_ci_low"), (row, "mc_ci_high"))
                     and row["mc_ci_low"] <= row["mc"] <= row["mc_ci_high"])]


def check_rate_overlap(out: Output) -> list[str]:
    """The MC rate CI must overlap the Jensen interval [lower, upper]."""
    mc, lower, upper = (out.curves.get(n) for n in ("rate_mc", "rate_lower", "rate_upper"))
    if not (mc and lower and upper):
        return []
    return [f"rate row {i}: CI [{m['mc_ci_low']}, {m['mc_ci_high']}] misses "
            f"[{lo['analytic']}, {hi['analytic']}]"
            for i, (m, lo, hi) in enumerate(zip(mc, lower, upper))
            if _complete((m, "mc_ci_low"), (m, "mc_ci_high"), (lo, "analytic"), (hi, "analytic"))
            and (m["mc_ci_high"] < lo["analytic"] or m["mc_ci_low"] > hi["analytic"])]


def check_ser_bound(out: Output) -> list[str]:
    """The SER upper bound may not lie below the whole MC CI."""
    mc, bound = out.curves.get("ser_mc"), out.curves.get("ser_bound")
    if not (mc and bound):
        return []
    return [f"ser row {i}: mc_ci_low {m['mc_ci_low']} above bound {b['analytic']}"
            for i, (m, b) in enumerate(zip(mc, bound))
            if _complete((m, "mc_ci_low"), (b, "analytic")) and m["mc_ci_low"] > b["analytic"]]


def check_ks(out: Output) -> list[str]:
    ks = out.manifest.get("extras", {}).get("ks_distance")
    if ks is None:
        return []
    bound = ks_bound(int(out.manifest["experiment"]["config"]["trials"]))
    if ks <= bound:
        return []
    return [f"snrcdf: ks_distance {ks} above {bound:.4f}"]


CHECKS = (check_finite, check_probabilities, check_ci_order, check_rate_overlap,
          check_ser_bound, check_ks)


def check_output(kind: str, out_dir: Path, header: list[str], use_mc: bool) -> list[str]:
    """Every problem found in one invocation's output; empty when it passed."""
    try:
        out = Output(out_dir, header)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    resolved = out.manifest["experiment"]["config"]
    problems = check_files(out, expected_files(kind, resolved, use_mc))
    for check in CHECKS:
        problems += check(out)
    return problems
