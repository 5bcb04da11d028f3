"""Tracing wrappers, span self times and the harness's own bookkeeping."""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import irslink.cli as cli
import irslink.snrdist as snrdist
from conftest import BENCH
from run import tally
from tracing import Tracer, layer_metrics


def traced_rate_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 2000, "sweep": {"values": [0.0, 20.0]}}))
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["rate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    return tracer


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    originals = (cli.main, cli.simulate_snr_samples, snrdist.cal_j)
    traced_rate_run(tmp_path)
    assert (cli.main, cli.simulate_snr_samples, snrdist.cal_j) == originals


def test_self_times_partition_the_top_level_spans(tmp_path):
    tracer = traced_rate_run(tmp_path)
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.layer for s in top] == ["cli"]
    total = sum(s.end - s.start for s in top)
    assert abs(sum(tracer.self_times()) - total) < 1e-9
    assert all(t >= 0 for t in tracer.self_times())


def test_layer_metrics_cover_the_declared_per_layer_metrics(tmp_path):
    metrics = layer_metrics(traced_rate_run(tmp_path), gamma_draws_per_s=1e7)
    assert metrics["montecarlo.sim.calls"] == 2
    assert metrics["montecarlo.sim.distinct_ratio"] == 0.5  # gamma_bar is not in the key
    assert metrics["montecarlo.sim.trials_per_s.n16"] > 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    from_run = ("cli.failed.", "trace.", ".trials_per_s.n")
    missing = [m["name"] for m in declared
               if m["name"] not in metrics and not any(k in m["name"] for k in from_run)]
    assert missing == []


def test_tally_separates_known_from_unexpected_failures():
    known = {"ser/mv1/n64": {"outcome": "traceback:OverflowError"}}
    rounds = [{"outcomes": [["ser/mv1/n64", "traceback:OverflowError"], ["rate/mv1/n1", "ok"],
                            ["snrcdf/mv1/n1", "exit3"], ["ser/mv1/n64", "check"]]}]
    attempted, failed, unexpected, classes = tally(rounds, known)
    assert (attempted, failed) == (4, 3)
    assert unexpected == [("snrcdf/mv1/n1", "exit3"), ("ser/mv1/n64", "check")]
    assert classes == {"exit2": 0, "exit3": 1, "traceback": 1, "check": 1}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analytic_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
