"""Benchmark workloads: the ``irslink`` invocations one round of a workload makes.

A workload is built from the workload seed and the round index alone, so the
same seed always yields the same inputs.  Every Monte-Carlo invocation gets
its own seed derived from (workload seed, round, position): draws cannot be
shared across invocations or rounds, as they could not be between separate
commands a user runs.  Reuse inside one invocation stays possible.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Shapes and element counts of the analytic grid.
GRID_M_V = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
GRID_N = (1, 4, 16, 64)
GRID_KINDS = ("snrcdf", "outage", "rate", "ser", "wdist")
# The SER bound costs ~10 ms per point; a short sweep keeps it from drowning
# the SNR CDF.  0 dB stays in so the large-N asymptote overflow still shows.
GRID_SER_SWEEP = [0.0, 15.0, 30.0, 45.0]

MC_KINDS = ("wdist", "snrcdf", "outage", "rate", "ser")
# A quarter of the default 100k trials: still one chunk at N=16, and short
# invocations let the reference kernel (round.py) track the host's speed.
MC_TRIALS = 25_000


@dataclass(frozen=True)
class Invocation:
    """One ``irslink <kind> --config <yaml>`` call."""

    id: str          # stable across seeds and rounds; known failures are keyed by it
    kind: str
    config: dict
    no_mc: bool = False

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.kind, "--config", config_path, "--out", out_dir]
        return argv + ["--no-mc"] if self.no_mc else argv


def derive_seed(seed: int, round_index: int, position: int) -> int:
    digest = hashlib.sha256(f"{seed}/{round_index}/{position}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _mc_gamma_sweep(seed: int, round_index: int) -> list[Invocation]:
    # The documented default configuration (N=16, 16 gamma_bar points, one
    # worker) at MC_TRIALS trials.
    return [Invocation(kind, kind, {"seed": derive_seed(seed, round_index, i),
                                    "trials": MC_TRIALS})
            for i, kind in enumerate(MC_KINDS)]


def _analytic_grid(seed: int, round_index: int) -> list[Invocation]:
    calls = []
    for m_v in GRID_M_V:
        for n in GRID_N:
            for kind in GRID_KINDS:
                config = {"n_elements": n, "fading": {"m_v": m_v}}
                if kind == "ser":
                    config["sweep"] = {"values": GRID_SER_SWEEP}
                calls.append((f"{kind}/mv{m_v:g}/n{n}", kind, config))
    calls.append(("outage/mg3-mh3", "outage", {"fading": {"m_g": 3.0, "m_h": 3.0}}))
    random.Random(f"{seed}/{round_index}").shuffle(calls)
    return [Invocation(ident, kind, {**config, "seed": derive_seed(seed, round_index, i)},
                       no_mc=True)
            for i, (ident, kind, config) in enumerate(calls)]


def _large_surface(seed: int, round_index: int) -> list[Invocation]:
    # N=128 at 70k trials spans three 32768-trial chunks; N=144 at 20k
    # trials spans three correlation chunks.
    quant = {"trials": 70_000, "workers": 2, "sweep": {"values": [15.0]},
             "quantization": {"bits": [1, 3], "n_values": [128]}}
    corr = {"trials": 20_000, "workers": 2, "correlation": {"n_values": [64, 144]}}
    return [
        Invocation("quantization", "quantization",
                   {**quant, "seed": derive_seed(seed, round_index, 0)}),
        Invocation("correlation", "correlation",
                   {**corr, "seed": derive_seed(seed, round_index, 1)}),
    ]


WORKLOADS = {
    "mc_gamma_sweep": _mc_gamma_sweep,
    "analytic_grid": _analytic_grid,
    "large_surface": _large_surface,
}


def build(workload: str, seed: int, round_index: int) -> list[Invocation]:
    return WORKLOADS[workload](seed, round_index)
