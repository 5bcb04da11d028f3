"""Per-layer tracing of one benchmark round.

Wrappers are installed on the module attributes callers look up.  A
``from .x import y`` binds its own copy of ``y`` in the importing module, so
``irslink.cli.simulate_snr_samples`` is wrapped, not only
``irslink.montecarlo.simulate_snr_samples``.  Each call records a span (layer
name, parent span, start, end, notes) in memory; a layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _note_sim(args, result):
    cfg, plan = args[0], args[1]
    key = (pickle.dumps(dataclasses.replace(cfg, gamma_bar_db=0.0)), plan)
    return {"n": cfg.n_elements, "trials": plan.trials, "key": key,
            "draws": plan.trials * (1 + 2 * cfg.n_elements)}


def _note_reflected(args, result):
    note = _note_sim(args, result)
    note["draws"] -= note["trials"]  # no direct-link draw
    return note


def _note_rates(args, result):
    return {"n": args[0].n_elements, "trials": args[2].trials}


def _note_cdf(args, result):
    m_v = float(args[1].m_v)
    return {"points": getattr(args[0], "size", 1),
            "path": "int_mv" if m_v.is_integer() else "half_mv"}


# (layer, attributes wrapped, note taken from (args, result) of each call)
TARGETS = (
    ("cli", ("irslink.cli.main",), None),
    ("montecarlo.sim", ("irslink.cli.simulate_snr_samples",), _note_sim),
    ("montecarlo.sim", ("irslink.cli._reflected_sum_samples",), _note_reflected),
    ("montecarlo.estimators", ("irslink.cli.empirical_cdf", "irslink.cli.empirical_outage",
                               "irslink.cli.empirical_rate", "irslink.cli.empirical_ber"), None),
    ("correlation.rates", ("irslink.cli.simulate_scheme_rates",), _note_rates),
    ("correlation.build", ("irslink.correlation.build_correlation",), None),
    ("snrdist.snr_cdf", ("irslink.cli.snr_cdf", "irslink.metrics.snr_cdf"), _note_cdf),
    ("specfun.cal_j", ("irslink.snrdist.cal_j", "irslink.snrdist.cal_j_between"), None),
    ("specfun.cal_i", ("irslink.snrdist.cal_i", "irslink.cltapprox.cal_i"), None),
    ("metrics.ser_upper_bound", ("irslink.cli.ser_upper_bound",), None),
    ("metrics.rate_bounds", ("irslink.cli.rate_bounds",), None),
    ("metrics.quantized_rate_bounds", ("irslink.cli.quantized_rate_bounds",), None),
    ("metrics.asymptotic", ("irslink.cli.asymptotic_outage", "irslink.cli.asymptotic_ser"), None),
    ("cltapprox.w_stats", ("irslink.cli.w_stats", "irslink.snrdist.w_stats",
                           "irslink.metrics.w_stats"), None),
    ("cltapprox.moments", ("irslink.metrics.w_mean_var", "irslink.metrics.w_moment",
                           "irslink.metrics.quantized_w_stats",
                           "irslink.metrics.gamma_ratio_t"), None),
)


@dataclasses.dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    note: dict | None = None


class Tracer:
    """Records spans of the wrapped calls; ``installed()`` scopes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, stack[-1] if stack else None, 0.0)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for layer, attributes, note in TARGETS:
                for attribute in attributes:
                    module_name, name = attribute.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(layer, original, note))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def layer_metrics(tracer: Tracer, gamma_draws_per_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round (counts, self times, rates)."""
    calls, busy = defaultdict(int), defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span.layer] += 1
        busy[span.layer] += own

    def spans(layer):
        # calls that raised carry no note; notes feed only the rates below
        return [s for s in tracer.spans if s.layer == layer and s.note is not None]

    out = {
        "cli.invocations": calls["cli"],
        "cli.self_s": busy["cli"],
        "montecarlo.sim.calls": calls["montecarlo.sim"],
        "montecarlo.sim.busy_s": busy["montecarlo.sim"],
        "montecarlo.estimators.busy_s": busy["montecarlo.estimators"],
        "correlation.rates.busy_s": busy["correlation.rates"],
        "correlation.build.busy_s": busy["correlation.build"],
        "snrdist.snr_cdf.busy_s": busy["snrdist.snr_cdf"],
        "specfun.cal_j.calls": calls["specfun.cal_j"],
        "specfun.cal_j.busy_s": busy["specfun.cal_j"],
        "specfun.cal_i.calls": calls["specfun.cal_i"],
        "metrics.ser_upper_bound.calls": calls["metrics.ser_upper_bound"],
        "metrics.rate_bounds.busy_s": busy["metrics.rate_bounds"],
        "metrics.quantized_rate_bounds.busy_s": busy["metrics.quantized_rate_bounds"],
        "metrics.asymptotic.busy_s": busy["metrics.asymptotic"],
        "cltapprox.w_stats.calls": calls["cltapprox.w_stats"],
        "cltapprox.busy_s": busy["cltapprox.w_stats"] + busy["cltapprox.moments"],
        "machine.gamma_draws_per_s": gamma_draws_per_s,
    }
    ser = [s for s in tracer.spans if s.layer == "metrics.ser_upper_bound"]
    out["metrics.ser_upper_bound.ms_per_call"] = (
        1e3 * sum(s.end - s.start for s in ser) / len(ser) if ser else 0.0)

    sims = spans("montecarlo.sim")
    sim_s = sum(s.end - s.start for s in sims)
    draws_per_s = sum(s.note["draws"] for s in sims) / sim_s if sim_s else 0.0
    out["montecarlo.sim.draws_per_s"] = draws_per_s
    out["montecarlo.sim.kernel_efficiency"] = draws_per_s / gamma_draws_per_s
    out["montecarlo.sim.distinct_ratio"] = (
        len({s.note["key"] for s in sims}) / len(sims) if sims else 0.0)
    for layer in ("montecarlo.sim", "correlation.rates"):
        trials, seconds = defaultdict(int), defaultdict(float)
        for s in spans(layer):
            trials[s.note["n"]] += s.note["trials"]
            seconds[s.note["n"]] += s.end - s.start
        for n in trials:
            out[f"{layer}.trials_per_s.n{n}"] = trials[n] / seconds[n]

    cdf = spans("snrdist.snr_cdf")
    out["snrdist.snr_cdf.points"] = sum(s.note["points"] for s in cdf)
    for path in ("int_mv", "half_mv"):
        picked = [s for s in cdf if s.note["path"] == path]
        points = sum(s.note["points"] for s in picked)
        out[f"snrdist.snr_cdf.us_per_point.{path}"] = (
            1e6 * sum(s.end - s.start for s in picked) / points if points else 0.0)
    return out
