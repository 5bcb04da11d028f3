import contextlib
import copy
import csv
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import irslink
import irslink.cli as cli
import irslink.montecarlo as montecarlo
from irslink.channel import ERLANG_MAX_SHAPE, db_to_linear
from irslink.config import DEFAULT_CONFIG
from irslink.correlation import build_correlation, scheme_control_means
from irslink.errors import ConfigError, NumericalConsistencyError
from irslink.metrics import outage_probability
from irslink.montecarlo import (SimPlan, chunk_rng, empirical_ber, empirical_outage,
                                empirical_rate, empirical_rate_ratio, simulate_snr_samples)
from oracles import (control_means_reference, control_variate_mean, control_variate_ratio,
                     reflected_reference)

SWEEP = [0.0, 12.0, 24.0, 45.0]


def run_cli(tmp_path, kind, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([kind, "--config", str(path), "--out", str(out), *flags])
    return code, out


def read_csv(path):
    with path.open(newline="") as fh:
        return fh.read()


def oracle_csv(x_unit, xs, estimates):
    """The MC curve file as the per-point loop wrote it: one fresh simulation
    per sweep point, columns x, mc, mc_ci_low, mc_ci_high."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(cli.CSV_HEADER)
    for x, est in zip(xs, estimates):
        writer.writerow([x_unit, format(float(x), ".12g"), "", ""]
                        + [format(float(v), ".12g") for v in est])
    return text.getvalue()


def snr_samples(cfg, plan):
    """A fresh simulation of the SNRs at the link's own transmit SNR."""
    return cfg.gamma_bar * simulate_snr_samples(cfg, plan)


def per_point(cfg, plan, estimator, xs):
    for db in xs:
        est = estimator(snr_samples(dataclasses.replace(cfg, gamma_bar_db=db), plan))
        yield est.value, est.ci_low, est.ci_high


def cv_rates(cfg, plan, xs):
    """The mean rate at each transmit SNR of ``xs`` (dB) with its 95%
    half-width, by the least-squares control-variate oracle on one draw's
    SNRs (controls R and R^2 with their exact means)."""
    snr = simulate_snr_samples(cfg, plan)
    controls, means = np.stack([np.sqrt(snr), snr]), control_means_reference(cfg, 1)[:2]
    for db in xs:
        yield control_variate_mean(np.log2(1.0 + db_to_linear(db) * snr), controls, means)


def quantized_percent(cfg, plan, bits, xs):
    """Percentage of the paired mean rates with its 95% interval, by the
    least-squares control-variate oracle on the amplitudes of the same draws
    (controls R, R^2, A, A^2 and B^2 with their exact means)."""
    r, a, b = simulate_snr_samples(cfg, dataclasses.replace(plan, quantization_bits=(bits,)))
    controls, means = np.stack([r, r * r, a, a * a, b * b]), control_means_reference(cfg, bits)
    for db in xs:
        gb = db_to_linear(db)
        ratio, half = control_variate_ratio(np.log2(1.0 + gb * (a * a + b * b)),
                                            np.log2(1.0 + gb * (r * r)), controls, means)
        yield 100.0 * ratio, 100.0 * half


@pytest.fixture
def small_chunks(monkeypatch):
    # several chunks from a few thousand trials, so two workers really split them
    monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 1024)


@pytest.mark.parametrize("workers", [1, 2])
class TestMonteCarloColumnsMatchPerPointOracle:
    def config(self, workers, **extra):
        return {"n_elements": 8, "trials": 3000, "seed": 5, "workers": workers,
                "sweep": {"values": SWEEP}, **extra}

    def cv_config(self, workers, **extra):
        """A config of 2000 trials, fewer than the floor of a draw to
        precision: the run draws every trial, as the control-variate oracle
        does."""
        return self.config(workers, **{"trials": 2000, **extra})

    def expect(self, tmp_path, kind, config, name, x_unit, oracle):
        code, out = run_cli(tmp_path, kind, config)
        assert code == 0
        assert read_csv(out / name) == oracle_csv(x_unit, config["sweep"]["values"], oracle)

    def expect_cells(self, out, name, xs, oracle):
        """The MC cells of ``name`` against the (value, half-width) pairs of a
        control-variate oracle, of a run of ``cv_config``."""
        rows = list(csv.DictReader(io.StringIO(read_csv(out / name))))
        assert [float(row["x"]) for row in rows] == xs
        for row, (value, half) in zip(rows, oracle, strict=True):
            mc, low, high = (float(row[c]) for c in ("mc", "mc_ci_low", "mc_ci_high"))
            assert mc == pytest.approx(value, rel=1e-10)
            assert high - mc == pytest.approx(half, rel=1e-6)
            assert mc - low == pytest.approx(half, rel=1e-6)

    def spec(self, kind, config):
        cfg, _ = cli.validate_config(config, kind)
        return cfg, SimPlan(trials=config["trials"], seed=config["seed"],
                            workers=config["workers"])

    def test_outage(self, tmp_path, small_chunks, workers):
        config = self.config(workers)
        cfg, plan = self.spec("outage", config)
        gamma_th = 10.0
        self.expect(tmp_path, "outage", config, "outage_mc.csv", "gamma_bar_db",
                    per_point(cfg, plan, lambda s: empirical_outage(s, gamma_th), SWEEP))

    def test_rate_over_gamma_bar(self, tmp_path, small_chunks, workers):
        config = self.cv_config(workers)
        cfg, plan = self.spec("rate", config)
        code, out = run_cli(tmp_path, "rate", config)
        assert code == 0
        self.expect_cells(out, "rate_mc.csv", SWEEP, cv_rates(cfg, plan, SWEEP))

    def test_rate_over_n_elements(self, tmp_path, small_chunks, workers):
        config = self.cv_config(workers, sweep={"variable": "n_elements", "values": [2, 8]})
        cfg, plan = self.spec("rate", config)
        code, out = run_cli(tmp_path, "rate", config)
        assert code == 0
        self.expect_cells(out, "rate_mc.csv", [2, 8], [
            next(cv_rates(dataclasses.replace(cfg, n_elements=n), plan, [cfg.gamma_bar_db]))
            for n in (2, 8)])

    def test_ser(self, tmp_path, small_chunks, workers):
        config = self.config(workers)
        cfg, plan = self.spec("ser", config)
        self.expect(tmp_path, "ser", config, "ser_mc.csv", "gamma_bar_db",
                    per_point(cfg, plan, lambda s: empirical_ber(s, 1.0, 2.0), SWEEP))

    def test_quantization(self, tmp_path, small_chunks, workers):
        config = self.cv_config(workers, quantization={"bits": [1, 3], "n_values": [4, 8]})
        cfg, plan = self.spec("quantization", config)
        code, out = run_cli(tmp_path, "quantization", config)
        assert code == 0
        for n in (4, 8):
            for bits in (1, 3):
                cfg_n = dataclasses.replace(cfg, n_elements=n)
                self.expect_cells(out, f"quantization_b{bits}_n{n}.csv", SWEEP,
                                  quantized_percent(cfg_n, plan, bits, SWEEP))


def count_draws(monkeypatch):
    calls = []

    def counted(cfg, plan):
        calls.append(plan)
        return simulate_snr_samples(cfg, plan)

    monkeypatch.setattr(cli, "simulate_snr_samples", counted)
    return calls


def test_gamma_sweep_draws_once(tmp_path, monkeypatch):
    calls = count_draws(monkeypatch)
    code, _ = run_cli(tmp_path, "rate", {"trials": 2000})
    assert code == 0
    assert len(DEFAULT_CONFIG["sweep"]["values"]) == 16
    assert len(calls) == 1


def test_quantization_draws_baseline_once_per_n(tmp_path, monkeypatch):
    calls = count_draws(monkeypatch)
    code, _ = run_cli(tmp_path, "quantization",
                      {"trials": 2000, "sweep": {"values": [0.0, 20.0]},
                       "quantization": {"bits": [1, 3], "n_values": [8]}})
    assert code == 0
    # one draw serves the continuous baseline and both widths
    assert [p.quantization_bits for p in calls] == [(1, 3)]


def test_ser_floor_beyond_float_range_is_left_blank(tmp_path):
    code, out = run_cli(tmp_path, "ser", {"n_elements": 64, "sweep": {"values": [0.0, 15.0]}},
                        "--no-mc")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(out / "ser_asymptotic.csv"))))
    assert rows[0]["asymptotic"] == ""
    assert math.isfinite(float(rows[1]["asymptotic"]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["asymptotic_blank_points"] == 1


@pytest.mark.parametrize("kind,above", [("outage", 8), ("ser", 9)])
def test_manifest_counts_the_asymptote_points_above_one(tmp_path, kind, above):
    # the high-SNR floor is no probability at low gamma_bar: the default
    # outage floor reads 1.5e13 at 21 dB
    code, out = run_cli(tmp_path, kind, {}, "--no-mc")
    assert code == 0
    rows = csv.DictReader(io.StringIO(read_csv(out / f"{kind}_asymptotic.csv")))
    cells = [float(r["asymptotic"]) for r in rows if r["asymptotic"]]
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["asymptotic_above_one_points"] == sum(c > 1.0 for c in cells) == above


@pytest.mark.parametrize("kind,config,rows", [
    ("quantization", {"quantization": {"bits": [1, 2, 4], "n_values": [16, 32]}}, 7),
    ("rate", {"sweep": {"variable": "n_elements", "values": [16, 32]}}, 1)])
def test_a_two_n_run_holds_one_n_of_samples_at_a_time(tmp_path, monkeypatch, kind, config,
                                                      rows):
    # the bytes traced when each N's draw starts: the first N's samples, a
    # draw of the floor's trials, are released before the second N is drawn
    held, floor = [], montecarlo.CV_FLOOR_TRIALS

    def sampler(cfg, plan):
        assert plan.trials == floor
        held.append(tracemalloc.get_traced_memory()[0])
        return simulate_snr_samples(cfg, plan)

    monkeypatch.setattr(cli, "simulate_snr_samples", sampler)
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, kind, {"trials": 100_000, **config})
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(held) == 2
    assert held[1] - held[0] < rows * floor * 8 / 2


def test_build_id_is_resolved_once_from_the_package(tmp_path, monkeypatch):
    seen = []

    class Done:
        returncode, stdout = 0, "abc1234\n"

    def fake_run(argv, **kwargs):
        seen.append(kwargs.get("cwd"))
        return Done()

    cli._git_describe.cache_clear()
    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    try:
        for _ in range(2):
            code, out = run_cli(tmp_path, "rate", {"trials": 100}, "--no-mc")
            assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
    finally:
        cli._git_describe.cache_clear()
    assert manifest["artifact"]["build"] == "abc1234"
    assert seen == [Path(cli.__file__).resolve().parent]


def test_wdist_samples_keep_their_stream_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 1024)
    cfg, _ = cli.validate_config({"n_elements": 8})
    runs = [cli._reflected_sum_samples(cfg, SimPlan(trials=3000, seed=4, workers=w))
            for w in (1, 2)]
    expected = []
    for index, start in enumerate(range(0, 3000, 1024)):
        count, rng = min(1024, 3000 - start), chunk_rng(4, index)
        expected.append(reflected_reference(cfg, rng, (count, 8)).sum(axis=1))
    for run in runs:
        np.testing.assert_array_equal(run, np.concatenate(expected))


@pytest.mark.parametrize("config,cdf_rtol", [
    ({}, 1e-12),
    ({"n_elements": 4}, 1e-12),
    ({"n_elements": 64}, 1e-12),
    # z_bar -2.5 and -3.3: the first cell, w = 1e-9, is Phi(a) - Phi(z_bar)
    # with a within 1e-9 of z_bar, ill-conditioned in any form
    ({"n_elements": 1}, 1e-8),
    ({"n_elements": 2, "fading": {"m_g": 3.0, "m_h": 3.0}}, 1e-8),
])
def test_wdist_analytic_columns_match_quadrature(config, cdf_rtol):
    cfg, resolved = cli.validate_config(config, "wdist")
    spec = cli.ExperimentSpec("wdist", cfg, SimPlan(trials=10, seed=1), resolved, Path("."),
                              use_mc=False)
    curves = cli._run_wdist(spec, {})
    _, grid, pdf = curves["wdist_pdf"]
    _, _, cdf = curves["wdist_cdf"]
    tn = cli.w_stats(cfg)
    mu, sd, xi = tn.mu_bar, tn.sigma_bar, tn.xi

    def density(w):
        return xi * math.exp(-0.5 * ((w - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

    np.testing.assert_allclose(pdf["analytic"], [density(w) for w in grid], rtol=1e-12, atol=0)
    expected = [quad(density, 0.0, w, epsabs=0, epsrel=1e-13, limit=200)[0] for w in grid]
    np.testing.assert_allclose(cdf["analytic"], expected, rtol=cdf_rtol, atol=0)


@pytest.mark.parametrize("kind,config,field", [
    ("rate", {"n_elements": 0}, "n_elements"),
    ("outage", {"n_elements": 0}, "n_elements"),
    ("rate", {"n_elements": -2}, "n_elements"),
    ("rate", {"sweep": {"variable": "n_elements", "values": [0, 4]}}, "sweep.values"),
    ("quantization", {"quantization": {"n_values": [0, 8]}}, "quantization.n_values"),
    ("correlation", {"correlation": {"n_values": [0]}}, "correlation.n_values"),
])
def test_element_counts_below_one_are_config_errors(tmp_path, capsys, kind, config, field):
    code, _ = run_cli(tmp_path, kind, {**config, "trials": 100})
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("n_values", [[999_983], [144, 2053]])
def test_correlation_grids_too_long_to_factor_are_config_errors(n_values):
    # a prime count tiles as N x 1, whose factor matrices hold N^2 entries;
    # only the validator runs, so nothing of that size is allocated
    with pytest.raises(ConfigError, match=f"grid of {n_values[-1]} elements"):
        cli.validate_config({"correlation": {"n_values": n_values}}, "correlation")


def test_every_square_count_and_the_largest_prime_side_are_accepted():
    # 1000 x 1000 and 2039 x 1 (the largest prime side within the limit)
    resolved = cli.validate_config({"correlation": {"n_values": [2039, 10**6]}})[1]
    assert resolved["correlation"]["n_values"] == [2039, 10**6]


@pytest.mark.parametrize("text", ["quantization:\n  bits: &a [1, *a]\n",
                                  "notes: &a {again: *a}\n"], ids=["checked", "unchecked"])
def test_a_config_that_contains_itself_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)  # a YAML alias inside the node it names
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["quantization", "--no-mc", "--config", str(path),
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert "contains itself" in capsys.readouterr().err


@pytest.mark.parametrize("kind,fading", [("outage", {"m_g": 3.0, "m_h": 3.0}),
                                         ("ser", {"m_g": 3.0, "m_h": 3.0}),
                                         ("outage", {"m_g": 3.0, "m_h": 3.25})])
def test_undefined_asymptote_is_left_blank(tmp_path, kind, fading):
    config = {"fading": fading, "trials": 2000, "seed": 3, "sweep": {"values": [0.0, 20.0]}}
    code, out = run_cli(tmp_path, kind, config)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(out / f"{kind}_asymptotic.csv"))))
    assert [r["asymptotic"] for r in rows] == ["", ""]
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["diversity_order"] is None
    assert "constants" in extras["asymptote_unavailable"]
    assert extras["asymptotic_blank_points"] == 2
    assert extras["asymptotic_above_one_points"] == 0
    if kind == "outage":
        # the closed-form and MC curves are written as for any other shapes
        cfg, _ = cli.validate_config(config, kind)
        analytic = [outage_probability(cfg, 10.0, dataclasses.replace(cfg, gamma_bar_db=db)
                                       .gamma_bar) for db in (0.0, 20.0)]
        rows = csv.DictReader(io.StringIO(read_csv(out / "outage_analytic.csv")))
        assert [float(r["analytic"]) for r in rows] == [float(format(a, ".12g")) for a in analytic]
        plan = SimPlan(trials=2000, seed=3)
        assert read_csv(out / "outage_mc.csv") == oracle_csv(
            "gamma_bar_db", [0.0, 20.0],
            per_point(cfg, plan, lambda s: empirical_outage(s, 10.0), [0.0, 20.0]))


def analytic_column(out, name):
    rows = csv.DictReader(io.StringIO(read_csv(out / f"{name}.csv")))
    return np.array([float(r["analytic"]) for r in rows])


@pytest.mark.parametrize("m_v", [120.0, 150.0, 1000.0, 1e12])
def test_large_direct_link_shapes_give_a_valid_law(tmp_path, m_v):
    # the closed form overflowed from m_v = 120 (exit 3); the law is checked up to 1e12
    config = {"fading": {"m_v": m_v}}
    code, out = run_cli(tmp_path, "snrcdf", config, "--no-mc")
    assert code == 0
    cdf = analytic_column(out, "snrcdf")
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)
    # the grid is centred on the square of about the mean of R, not of the
    # reflected mean alone, so it reaches the top of the law
    assert cdf[-1] > 0.99
    code, out = run_cli(tmp_path, "outage", config, "--no-mc")
    assert code == 0
    outage = analytic_column(out, "outage_analytic")
    assert np.all((outage >= 0.0) & (outage <= 1.0)) and np.all(np.diff(outage) <= 0.0)


def test_the_snr_cdf_grid_of_the_lowest_transmit_snr_is_finite(tmp_path):
    # gamma_bar = 1e-323: the old centre, log10(gamma_bar mu_bar^2), underflowed
    code, out = run_cli(tmp_path, "snrcdf", {"gamma_bar_db": -3230.0}, "--no-mc")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(out / "snrcdf.csv"))))
    assert all(math.isfinite(float(r["x"])) for r in rows)
    assert analytic_column(out, "snrcdf")[-1] > 0.99


@pytest.mark.parametrize("kind", ["snrcdf", "outage"])
def test_shapes_past_the_checked_range_exit_3(tmp_path, kind):
    assert run_cli(tmp_path, kind, {"fading": {"m_v": 1e13}}, "--no-mc")[0] == 3


@pytest.mark.parametrize("flags", [["--no-mc"], ["--trials", "300"]], ids=["no_mc", "mc"])
@pytest.mark.parametrize("kind", cli.KINDS)
def test_no_analytic_kind_runs_the_closed_form(tmp_path, monkeypatch, kind, flags):
    # the paper's closed form and its special functions are test references
    # only: every binding of a specfun function in the package raises
    def closed_form(*args, **kwargs):
        raise AssertionError("a specfun function ran")

    for name, module in list(sys.modules.items()):
        if name == "irslink" or name.startswith("irslink."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == "irslink.specfun":
                    monkeypatch.setattr(module, attr, closed_form)
    assert irslink.specfun.cal_i is closed_form and irslink.cltapprox.cal_i is closed_form
    for m_v in (2.0, 2.5, 0.75):
        config = {"n_elements": 8, "fading": {"m_v": m_v}}
        assert run_cli(tmp_path, kind, config, *flags)[0] == 0


def test_manifest_records_the_numeric_stack(tmp_path):
    code, out = run_cli(tmp_path, "rate", {"trials": 100}, "--no-mc")
    assert code == 0
    artifact = json.loads((out / "manifest.json").read_text())["artifact"]
    assert artifact["python"] == platform.python_version()
    assert artifact["numpy"] == np.__version__
    assert artifact["scipy"] == scipy.__version__
    assert artifact["bit_generator"] == "SFC64"
    # the CPU level of every numpy SIMD loop whose bits reach a CSV: the float32
    # sin/cos of the MC phasors, the float64 exp, expm1, log, log1p, log2 and
    # power of the draws and the analytic cells, the complex128 absolute
    dispatch = artifact["simd_dispatch"]
    assert dispatch == cli._simd_dispatch()
    assert sorted(dispatch) == sorted(["sin/float32", "cos/float32", "exp/float64",
                                       "expm1/float64", "log/float64", "log1p/float64",
                                       "log2/float64", "power/float64", "absolute/complex128"])
    assert all(dispatch.values())
    # numpy's BLAS, with the core OpenBLAS chose at run time and its thread
    # count where it reports them
    blas = artifact["blas"]
    assert blas == cli._blas()
    assert sorted(blas) == ["core", "name", "threads", "version"]
    assert blas["threads"] is None or isinstance(blas["threads"], int)
    assert all(blas[key] is None or isinstance(blas[key], str)
               for key in ("core", "name", "version"))


# numpy's bundled OpenBLAS, found as cli._openblas finds it, with its thread
# count read before importing irslink, after it, and after one cli.main
_BLAS_PROBE = """
import contextlib, ctypes, io, sys
from pathlib import Path
import numpy as np
libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
threads = lib.scipy_openblas_get_num_threads64_
lib.scipy_openblas_set_num_threads64_(2)
before = threads()
import irslink, irslink.cli
imported = threads()
with contextlib.redirect_stdout(io.StringIO()):
    code = irslink.cli.main(["rate", "--no-mc", "--out", sys.argv[1]])
print(before, imported, threads(), code)
"""


def test_main_holds_blas_to_one_thread_and_import_does_not(tmp_path):
    if cli._openblas() is None:
        pytest.skip("numpy bundles no scipy-openblas")
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(tmp_path / "out")], cwd=src,
                         capture_output=True, text=True, check=True)
    before, imported, after, code = map(int, out.stdout.split())
    assert imported == before and (after, code) == (1, 0)


def test_a_cli_run_records_the_blas_threads_it_ran_with(tmp_path):
    code, out = run_cli(tmp_path, "rate", {"trials": 300})
    assert code == 0
    blas = json.loads((out / "manifest.json").read_text())["artifact"]["blas"]
    assert blas["threads"] == (None if cli._openblas() is None else 1)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_the_default_worker_count_is_the_usable_cpus(tmp_path):
    assert cli.validate_config({})[1]["workers"] == _usable_cpus()
    assert cli.validate_config({"workers": 3})[1]["workers"] == 3
    for config, workers in (({"trials": 300}, _usable_cpus()), ({"trials": 300, "workers": 3}, 3)):
        code, out = run_cli(tmp_path, "rate", config)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"]["config"]["workers"] == workers
        assert manifest["extras"]["mc"]["workers"] == workers


def test_without_an_affinity_mask_the_workers_are_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert cli.validate_config({})[1]["workers"] == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.validate_config({})[1]["workers"] == 1


def test_an_explicit_null_worker_count_is_a_config_error():
    with pytest.raises(ConfigError, match="workers: missing or malformed"):
        cli.validate_config({"workers": None})


@pytest.mark.parametrize("kind", ["rate", "quantization"])
def test_a_transmit_snr_near_the_float_maximum_gives_ordered_rate_bounds(tmp_path, kind):
    # gamma_bar = 1e104: E[snr]^3 / E[snr^2] formed with gamma_bar^3 overflowed
    code, out = run_cli(tmp_path, kind, {"trials": 2000, "sweep": {"values": [1040.0]},
                                         "quantization": {"bits": [1], "n_values": [8]}})
    assert code == 0
    if kind == "quantization":
        analytic = analytic_column(out, "quantization_b1_n8")
        assert all(math.isfinite(a) and 0.0 < a <= 100.0 for a in analytic)
    else:
        lower, upper = (analytic_column(out, f"rate_{side}") for side in ("lower", "upper"))
        assert all(math.isfinite(u) and 0.0 <= lo <= u for lo, u in zip(lower, upper))


def test_an_element_sweep_near_the_float_maximum_gives_ordered_rate_bounds(tmp_path):
    # the n_elements path of rate forms its bounds and its controls' means at
    # the one transmit SNR gamma_bar = 1e104 for every N of the sweep
    code, out = run_cli(tmp_path, "rate", {"trials": 2000, "gamma_bar_db": 1040.0,
                                           "sweep": {"variable": "n_elements",
                                                     "values": [2, 8, 64]}})
    assert code == 0
    lower, upper = (analytic_column(out, f"rate_{side}") for side in ("lower", "upper"))
    assert len(lower) == 3
    assert all(math.isfinite(u) and 0.0 <= lo <= u for lo, u in zip(lower, upper))
    rows = list(csv.DictReader(io.StringIO(read_csv(out / "rate_mc.csv"))))
    assert [float(row["x"]) for row in rows] == [2.0, 8.0, 64.0]
    for row in rows:
        low, mc, high = (float(row[c]) for c in ("mc_ci_low", "mc", "mc_ci_high"))
        assert math.isfinite(low) and math.isfinite(high) and low <= mc <= high


def test_a_leg_shape_near_the_float_maximum_exits_3_with_one_line(tmp_path):
    # W's mean and variance are finite (kappa_g = 1e308 zeta_g), and the
    # fourth moment of the SNR overflows: no RuntimeWarning may reach stderr
    # beside the failure
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fading": {"m_g": 1.0e308}}))
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "irslink.cli", "rate", "--no-mc", "--config",
                          str(config), "--out", str(tmp_path / "out")], cwd=src,
                         capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stderr == ("numerical consistency failure: rate moments out of the float64 "
                          "range: 7.020931196935667e+306, inf\n")


_ERLANG = {"v": "erlang", "g": "erlang", "h": "erlang"}


@pytest.mark.parametrize("kind,fading,draws", [
    ("rate", {}, _ERLANG),
    ("rate", {"m_g": 2.5}, {**_ERLANG, "g": "gamma"}),
    ("wdist", {"m_g": 2.5}, {"g": "gamma", "h": "erlang"}),  # W draws no direct link
])
def test_manifest_names_the_draw_of_each_leg(tmp_path, kind, fading, draws):
    code, out = run_cli(tmp_path, kind, {"trials": 500, "fading": fading,
                                         "sweep": {"values": [0.0]}})
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"]["simd_dispatch"] == cli._simd_dispatch()
    assert [run["draws"] for run in manifest["extras"]["mc"]["runs"]] == [draws]


def test_manifest_records_where_the_time_went(tmp_path):
    code, out = run_cli(tmp_path, "outage", {"trials": 2000, "sweep": {"values": [0.0, 20.0]}})
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["extras"]["timings"]
    assert sorted(timings) == ["compute_s", "config_s", "write_s"]
    assert all(value >= 0 and value == round(value, 4) for value in timings.values())
    # the timings are extras: the manifest still reproduces the run's config
    assert cli.load_config_file(str(out / "manifest.json")) == manifest["experiment"]["config"]
    (tmp_path / "again").mkdir()
    code, again = run_cli(tmp_path / "again", "outage", manifest["experiment"]["config"])
    assert code == 0
    assert (json.loads((again / "manifest.json").read_text())["experiment"]
            == manifest["experiment"])


# (kind, config, the surface sizes of its Monte-Carlo runs in order)
MC_RUNS = [
    ("wdist", {}, [16]),
    ("snrcdf", {}, [16]),
    ("outage", {}, [16]),
    ("rate", {}, [16]),
    ("ser", {}, [16]),
    ("rate", {"sweep": {"variable": "n_elements", "values": [4, 64]}}, [4, 64]),
    ("quantization", {"quantization": {"bits": [1], "n_values": [8, 32]}}, [8, 32]),
    ("correlation", {"correlation": {"n_values": [16, 64]}}, [16, 64]),
]


@pytest.mark.parametrize("kind,config,runs", MC_RUNS)
def test_manifest_records_the_monte_carlo_runs(tmp_path, kind, config, runs):
    # fewer trials than the floor of a draw to precision: every kind draws them all
    trials = 2000
    assert trials < montecarlo.CV_FLOOR_TRIALS
    code, out = run_cli(tmp_path, kind, {"trials": trials, "workers": 2,
                                         "sweep": {"values": [0.0, 20.0]}, **config})
    assert code == 0
    mc = json.loads((out / "manifest.json").read_text())["extras"]["mc"]
    assert [run["n_elements"] for run in mc["runs"]] == runs
    for run in mc["runs"]:
        assert run["trials"] == trials
        assert run["chunk_trials"] == montecarlo._chunk_size(run["n_elements"])
        assert run["chunks"] == math.ceil(trials / run["chunk_trials"])
    assert mc["workers"] == 2
    assert mc["trials"] == trials * len(runs)
    assert mc["chunks"] == sum(run["chunks"] for run in mc["runs"])
    assert mc["seconds"] > 0
    assert mc["trials_per_s"] == round(mc["trials"] / mc["seconds"])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("kind,config,runs", MC_RUNS)
def test_manifest_chunks_are_the_chunks_map_chunks_ran(tmp_path, monkeypatch, kind, config,
                                                       runs, workers):
    # the manifest takes its chunk plan from montecarlo, which runs it: each
    # run's chunks are the generators map_chunks asked for
    drawn = []
    monkeypatch.setattr(montecarlo, "chunk_rng", lambda seed, index: (
        drawn.append(index) or chunk_rng(seed, index)))
    code, out = run_cli(tmp_path, kind, {"trials": 5000, "workers": workers,
                                         "sweep": {"values": [0.0, 20.0]}, **config})
    assert code == 0
    mc = json.loads((out / "manifest.json").read_text())["extras"]["mc"]
    assert len(mc["runs"]) == len(runs)
    assert mc["chunks"] == len(drawn)
    assert sorted(drawn) == sorted(i for run in mc["runs"]
                                   for i in range(run["first_chunk"],
                                                  run["first_chunk"] + run["chunks"]))


@pytest.mark.parametrize("kind,config,runs", MC_RUNS)
def test_the_default_worker_count_writes_the_bytes_of_one_worker(tmp_path, small_chunks, kind,
                                                                  config, runs):
    config = {"trials": 3000, "sweep": {"values": [0.0, 20.0]}, **config}
    (tmp_path / "default").mkdir()
    (tmp_path / "one").mkdir()
    code, out = run_cli(tmp_path / "default", kind, config)
    assert code == 0
    code, one = run_cli(tmp_path / "one", kind, {**config, "workers": 1})
    assert code == 0
    assert csv_bytes(out) and csv_bytes(out) == csv_bytes(one)


def test_no_mc_run_records_no_monte_carlo(tmp_path):
    code, out = run_cli(tmp_path, "ser", {"trials": 100}, "--no-mc")
    assert code == 0
    assert "mc" not in json.loads((out / "manifest.json").read_text())["extras"]


def test_correlation_without_mc_runs_no_simulation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "simulate_scheme_rates", lambda *args: pytest.fail("simulated"))
    code, out = run_cli(tmp_path, "correlation", {"correlation": {"n_values": [16, 64]}},
                        "--no-mc")
    assert code == 0
    assert "mc" not in json.loads((out / "manifest.json").read_text())["extras"]
    # scheme 1 has its Jensen bound, scheme 2 no analytic column
    rows = list(csv.DictReader(io.StringIO(read_csv(out / "correlation_scheme1.csv"))))
    assert [float(row["x"]) for row in rows] == [16, 64]
    assert all(math.isfinite(float(row["analytic"])) for row in rows)
    assert all(row[c] == "" for row in rows for c in ("asymptotic", "mc", "mc_ci_low",
                                                      "mc_ci_high"))
    assert read_csv(out / "correlation_scheme2.csv").splitlines() == [
        ",".join(cli.CSV_HEADER), "n_elements,16,,,,,", "n_elements,64,,,,,"]


def test_ser_interval_stays_inside_the_term_range(tmp_path):
    code, out = run_cli(tmp_path, "ser", {"sweep": {"values": [30.0]}})
    assert code == 0
    row = list(csv.DictReader(io.StringIO(read_csv(out / "ser_mc.csv"))))[0]
    assert 0.0 == float(row["mc_ci_low"]) <= float(row["mc"]) <= float(row["mc_ci_high"]) <= 1.0


def test_ser_interval_of_terms_below_the_square_range_has_width(tmp_path):
    # at 36 dB the default run's SER terms lie below 1e-154, where their
    # squared deviations underflow; the estimate rests on a few trials
    code, out = run_cli(tmp_path, "ser", {"sweep": {"values": [36.0]}})
    assert code == 0
    row = list(csv.DictReader(io.StringIO(read_csv(out / "ser_mc.csv"))))[0]
    mc, low, high = (float(row[col]) for col in ("mc", "mc_ci_low", "mc_ci_high"))
    assert 0.0 < mc < 1e-154
    assert low < mc < high


def test_a_failed_run_writes_no_csv(tmp_path, monkeypatch):
    bounds = cli.quantized_rate_bounds
    n_values = DEFAULT_CONFIG["quantization"]["n_values"]

    def fail_at_the_second_n(cfg, bits, gamma_bar):
        if cfg.n_elements == n_values[1]:
            raise NumericalConsistencyError("bound out of order")
        return bounds(cfg, bits, gamma_bar)

    monkeypatch.setattr(cli, "quantized_rate_bounds", fail_at_the_second_n)
    code, out = run_cli(tmp_path, "quantization", {}, "--no-mc")
    assert code == 3
    assert list(out.glob("*.csv")) == [] and not (out / "manifest.json").exists()


def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["rate", "--no-mc", "--out", str(out)]) == 2
        assert f"configuration error: cannot write the output directory {out}" in (
            capsys.readouterr().err)
    assert taken.read_text() == "" and list(tmp_path.iterdir()) == [taken]


def test_a_zero_mean_reference_rate_exits_3(tmp_path, capsys):
    # at -400 dB every reference SNR is below 2**-53, so every rate term is 0
    config = {"trials": 2000, "sweep": {"values": [-400.0]},
              "quantization": {"bits": [1], "n_values": [8]}}
    code, out = run_cli(tmp_path, "quantization", config)
    assert code == 3
    assert "mean reference rate is 0" in capsys.readouterr().err
    assert list(out.glob("*.csv")) == [] and not (out / "manifest.json").exists()


def _csv_writer_oracle(path, x_unit, rows):
    """The CSV writer the runner used before it wrote whole columns: one
    ``csv.writer`` row per point, each value through format(float(v), ".12g")."""
    def fmt(v):
        return "" if v is None else format(float(v), ".12g")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_HEADER)
        for row in rows:
            writer.writerow([x_unit] + [fmt(v) for v in row])


def test_emit_writes_the_bytes_of_the_csv_writer(tmp_path):
    values = [None, 0.0, -0.0, 1e-300, 1e300, np.float64(0.1) / 3, np.int64(-7), 12,
              10**15 + 1, 1.0 / 3.0, np.float64(2.5e-17), math.inf, -math.inf]
    x = np.arange(len(values), dtype=float) * 1.5 - 3.0
    columns = {"analytic": values, "asymptotic": None, "mc": values[::-1],
               "lo": [v if v is None else -v for v in values], "hi": np.asarray(values[1:] + [1])}
    cli._emit(tmp_path / "curve.csv", "gamma_bar_db", x, **columns)
    _csv_writer_oracle(tmp_path / "oracle.csv", "gamma_bar_db",
                       zip(x, columns["analytic"], [None] * len(x), columns["mc"],
                           columns["lo"], columns["hi"]))
    written = (tmp_path / "curve.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written.startswith(b"x_unit,x,analytic,asymptotic,mc,mc_ci_low,mc_ci_high\r\n")
    # None is an empty cell, and -0.0 keeps its sign
    assert b"\r\ngamma_bar_db,-3,,,-inf,,0\r\ngamma_bar_db,-1.5,0,,inf,-0,-0\r\n" in written
    # no points: the header alone
    cli._emit(tmp_path / "empty.csv", "n_elements", [])
    _csv_writer_oracle(tmp_path / "oracle.csv", "n_elements", [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _fresh_process_outputs(argv) -> dict:
    """The files ``irslink argv`` writes when run in a process of its own."""
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "irslink.cli", *argv], cwd=src, check=True,
                   capture_output=True)
    return _run_outputs(Path(argv[argv.index("--out") + 1]))


def _run_outputs(out: Path) -> dict:
    """A run's CSV bytes plus its manifest without the time and build fields."""
    outputs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    manifest = json.loads((out / "manifest.json").read_text())
    outputs["manifest"] = (manifest["experiment"], manifest["files"],
                           sorted(manifest["extras"]))
    return outputs


def csv_bytes(out: Path) -> dict:
    return {name: data for name, data in _run_outputs(out).items() if name != "manifest"}


@pytest.mark.parametrize("first", [["--no-mc"], ["--seed", "5"]])
def test_each_call_parses_its_own_options(tmp_path, first):
    # one process, two calls: no option of the first carries into the second
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 2000, "sweep": {"values": [0.0, 15.0]}}))
    for i, flags in enumerate((first, [])):
        argv = ["ser", "--config", str(config), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path / f"in{i}")]) == 0
        fresh = _fresh_process_outputs([*argv, "--out", str(tmp_path / f"fresh{i}")])
        assert _run_outputs(tmp_path / f"in{i}") == fresh
    assert _run_outputs(tmp_path / "in0") != _run_outputs(tmp_path / "in1")


@pytest.mark.parametrize("kind", cli.KINDS)
def test_every_kind_parses_with_options_before_and_after_it(kind):
    parser = cli.build_parser()
    before = parser.parse_args(["--seed", "5", "--no-mc", "--out", "x", kind])
    after = parser.parse_args([kind, "--seed", "5", "--no-mc", "--out", "x"])
    split = parser.parse_args(["--seed", "5", kind, "--no-mc", "--out", "x"])
    assert vars(before) == vars(after) == vars(split) == {
        "kind": kind, "config": None, "seed": 5, "trials": None, "workers": None,
        "out": "x", "no_mc": True}


@pytest.mark.parametrize("argv", [["bogus"], [], ["--seed", "3"], ["rate", "ser"]])
def test_unknown_or_missing_kind_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: irslink" in capsys.readouterr().err


def test_help_exits_0_and_names_every_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(kind in out for kind in cli.KINDS) and "--no-mc" in out


@pytest.mark.parametrize("content", [b"a: [1, 2", b"a: !!python/object:os.system x",
                                     b"\xff\xfe\x00", None, "directory"],
                         ids=["parser", "constructor", "encoding", "missing", "directory"])
def test_a_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.yaml"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["rate", "--no-mc", "--config", str(path),
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"configuration error: cannot read {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _loads_like_safe_load(path: Path):
    assert cli.load_config_file(str(path)) == yaml.safe_load(path.read_text())


def test_config_loader_matches_safe_load(tmp_path):
    as_yaml, as_json = tmp_path / "config.yaml", tmp_path / "config.json"
    as_yaml.write_text(yaml.safe_dump(DEFAULT_CONFIG))
    as_json.write_text(json.dumps(DEFAULT_CONFIG, indent=2))
    _loads_like_safe_load(as_yaml)
    _loads_like_safe_load(as_json)
    assert cli.load_config_file(str(as_yaml)) == DEFAULT_CONFIG
    scalars = tmp_path / "scalars.yaml"
    scalars.write_text("eta: .5\ngamma_bar_db: 1e1\ngamma_th_db: 1.0e1\n"
                       "fading: {m_v: 2, m_g: .75}\nsweep:\n  values: [.5, 1e1, 2.]\n")
    _loads_like_safe_load(scalars)


def test_config_loader_reingests_a_manifest(tmp_path):
    code, out = run_cli(tmp_path, "rate", {"n_elements": 8, "eta": 0.75}, "--no-mc")
    assert code == 0
    manifest = out / "manifest.json"
    expected = yaml.safe_load(manifest.read_text())["experiment"]["config"]
    assert cli.load_config_file(str(manifest)) == expected
    assert expected["n_elements"] == 8 and expected["eta"] == 0.75


def counted(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, wrapper)
    return calls


@pytest.mark.parametrize("kind,name", [("rate", "rate_bounds"), ("ser", "ser_upper_bound")])
def test_gamma_sweep_evaluates_the_bound_once(tmp_path, monkeypatch, kind, name):
    calls = counted(monkeypatch, name)
    assert run_cli(tmp_path, kind, {}, "--no-mc")[0] == 0
    assert calls == {name: 1}


def test_quantization_evaluates_bounds_once_per_n_and_width(tmp_path, monkeypatch):
    calls = counted(monkeypatch, "rate_bounds", "quantized_rate_bounds")
    assert run_cli(tmp_path, "quantization", {}, "--no-mc")[0] == 0
    assert calls == {"rate_bounds": 3, "quantized_rate_bounds": 9}


def run_yaml(tmp_path, kind, config, mc=False):
    """``cli.main`` on ``config`` written as YAML (NaN as .nan), without MC
    unless ``mc``."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    flags = [] if mc else ["--no-mc"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([kind, "--config", str(path), "--out", str(tmp_path / "out"), *flags])


@pytest.mark.parametrize("kind,config,code", [
    ("rate", {"sweep": {"values": [math.nan]}}, 2),
    ("ser", {"sweep": {"values": [math.nan]}}, 2),
    ("ser", {"sweep": {"values": [0.0, math.inf]}}, 2),
    ("outage", {"gamma_th_db": -math.inf}, 2),
    ("rate", {"eta": math.nan}, 2),
    ("rate", {"fading": {"m_g": math.inf}}, 2),
    ("rate", {"pathloss": {"zeta0_db": 1e6}}, 2),
    ("rate", {"pathloss": {"zeta0_db": -1e6}}, 2),
    ("rate", {"gamma_bar_db": 1e6}, 2),
    ("ser", {"modulation": {"beta": 1e308}}, 3),
    ("ser", {"modulation": {"alpha": 5e-324}}, 0),
    ("outage", {"modulation": {"alpha": 1e-300, "beta": 1e308}}, 0),
    ("rate", {"fading": {"m_v": 1e12}}, 0),
    ("quantization", {"fading": {"m_v": 1e12}}, 0),
    ("rate", {"sweep": {"variable": "n_elements", "values": [1.5, 2.5]}}, 2),
    ("rate", {"n_elements": 16.5}, 2),
    ("rate", {"n_elements": 10**7}, 2),
    ("rate", {"trials": 100.5}, 2),
    ("rate", {"seed": 1.5}, 2),
    ("rate", {"seed": -3}, 2),
    ("rate", {"workers": 1.5}, 2),
    ("quantization", {"quantization": {"bits": [1.5]}}, 2),
    ("quantization", {"quantization": {"bits": [2000]}}, 2),
    ("quantization", {"quantization": {"n_values": [8.5]}}, 2),
    ("correlation", {"correlation": {"n_values": [16.5]}}, 2),
    ("rate", {"n_elements": 16.0, "seed": 2.0}, 0),
    ("correlation", {"correlation": {"wavelength_m": 0}}, 2),
    ("correlation", {"correlation": {"surface_side_m": -1}}, 2),
    ("correlation", {"correlation": {"aoa": {"std_az_deg": -3}}}, 2),
    ("correlation", {"correlation": {"wavelength_m": "x"}}, 2),
    ("correlation", {"correlation": {"aod": None}}, 2),
    ("correlation", {"correlation": {"wavelength_m": math.nan}}, 2),
    ("correlation", {"correlation": {"surface_side_m": 5e-324, "wavelength_m": 1e300}}, 2),
    ("rate", {"sweep": {"variable": "n_elements", "values": [4, 8]}}, 0),
    ("outage", {"sweep": {"variable": "n_elements", "values": [4, 8]}}, 2),
])
def test_hostile_configs_exit_cleanly(tmp_path, kind, config, code):
    assert run_yaml(tmp_path, kind, config) == code


def test_outage_records_a_coding_gain_past_the_float_range_as_null(tmp_path):
    # the outage floor never reads the modulation, whose coding gain overflows
    code, out = run_cli(tmp_path, "outage", {"modulation": {"alpha": 1e-300, "beta": 1e308}},
                        "--no-mc")
    assert code == 0
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["coding_gain"] is None
    assert extras["diversity_order"] == 50.0 and math.isfinite(extras["log10_omega_op"])
    assert "asymptote_unavailable" not in extras


@pytest.mark.parametrize("config", [{"sweep": {"values": [-300.0, 0.0]}},
                                   {"pathloss": {"zeta0_db": 300.0}}])
def test_quantization_with_zero_continuous_rate_bounds_exits_3(tmp_path, capsys, config):
    # both continuous bounds round to 0: the percentage is 0 / 0
    code, out = run_cli(tmp_path, "quantization", config, "--no-mc")
    assert code == 3
    assert "the continuous rate bounds are 0" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_rate_bounds_past_the_product_range_are_finite(tmp_path):
    # at 3080 dB, gamma_bar E[snr] leaves the float64 range: the bounds are
    # formed in log space there, with no warning, and every other cell is as it was
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, "quantization", {"sweep": {"values": [3000.0, 3080.0]}},
                            "--no-mc")
    assert code == 0
    n_values = DEFAULT_CONFIG["quantization"]["n_values"]
    cells = [analytic_column(out, f"quantization_b{bits}_n{n}")
             for bits in DEFAULT_CONFIG["quantization"]["bits"] for n in n_values]
    assert len(cells) == 9
    assert all(math.isfinite(cell) and 0.0 < cell <= 100.0 for column in cells for cell in column)


def mc_extras(out):
    return json.loads((out / "manifest.json").read_text())["extras"]["mc"]


def first_draw(n):
    """Trials of the first draw to precision at N = ``n``: the floor rounded
    up to whole chunks."""
    chunk_trials, _ = montecarlo.chunk_plan(1, n)
    return -(-montecarlo.CV_FLOOR_TRIALS // chunk_trials) * chunk_trials


def correlation_spec(n):
    """The default link and correlation grid at N = ``n``."""
    cfg, resolved = cli.validate_config({"n_elements": n}, "correlation")
    return cfg, cli._correlation_config(resolved, n)


# Each property of a draw to precision (montecarlo.draw_to_precision) is
# tested once, over the three kinds that draw to it.
def _rate_sweep(n_values):
    """A rate sweep over N of the link whose rate the controls R and R^2 fit
    least well of those tested here."""
    return {"gamma_bar_db": 90.0, "fading": {"m_v": 0.5, "m_g": 0.5, "m_h": 0.5},
            "sweep": {"variable": "n_elements", "values": n_values}}


# (kind, config whose every cell is precise enough at its first draw, the
# (N, trials) of its draws, the groups of its records): one chunk of 4096
# trials at N = 8, ten chunks of 227 at N = 144 (the benchmark's
# correlation config)
_AT_THE_FLOOR = [
    ("rate", {"trials": 100_000, "sweep": {"values": [0.0, 21.0, 45.0]}}, [(16, 2048)],
     ("points", "gamma_bar_db", [0.0, 21.0, 45.0])),
    ("quantization", {"trials": 100_000,
                      "quantization": {"bits": [1, 2, 4], "n_values": [8, 32]}},
     [(8, 4096), (32, 2048)], ("widths", "bits", [1, 2, 4])),
    ("correlation", {"trials": 20_000, "workers": 2, "correlation": {"n_values": [64, 144]}},
     [(64, 2048), (144, 2270)], ("schemes", "scheme", [1, 2])),
]


@pytest.mark.parametrize("kind,config,runs,groups", _AT_THE_FLOOR,
                         ids=[kind for kind, *_ in _AT_THE_FLOOR])
def test_a_precise_enough_first_draw_is_the_floor(tmp_path, kind, config, runs, groups):
    # every cell of the first draw (the whole chunks of at least the floor)
    # is narrower than plain MC's at the configured trials, and the manifest
    # records each run as drawn
    code, out = run_cli(tmp_path, kind, config)
    assert code == 0
    mc = mc_extras(out)
    assert [(run["n_elements"], run["trials"]) for run in mc["runs"]] == runs
    assert [trials for _, trials in runs] == [first_draw(n) for n, _ in runs]
    assert mc["trials"] == sum(trials for _, trials in runs)
    name, key, labels = groups
    for run in mc["runs"]:
        record = run["control_variates"]
        assert record["floor_trials"] == montecarlo.CV_FLOOR_TRIALS
        assert record["fitted_trials"] == run["trials"]
        assert record["extension"] is False
        assert [group[key] for group in record[name]] == labels
        for group in record[name]:
            assert 0.0 < group["max_half_width_ratio"] <= 1.0
            assert group["min_variance_ratio"] > config["trials"] / run["trials"]


def _plain_rate(config):
    cfg, resolved = cli.validate_config(config, "rate")
    widths = []
    for n in resolved["sweep"]["values"]:
        snr = simulate_snr_samples(dataclasses.replace(cfg, n_elements=n),
                                   SimPlan(trials=config["trials"], seed=1))
        plain = empirical_rate(cfg.gamma_bar * snr)
        widths.append(plain.ci_high - plain.ci_low)
    return {"rate_mc": widths}


def _plain_quantization(config):
    cfg, resolved = cli.validate_config(config, "quantization")
    bits, widths = tuple(resolved["quantization"]["bits"]), {}
    for n in resolved["quantization"]["n_values"]:
        plan = SimPlan(trials=config["trials"], seed=1, quantization_bits=bits)
        rows = simulate_snr_samples(dataclasses.replace(cfg, n_elements=n), plan)
        reference = rows[0] ** 2
        for k, b in enumerate(bits):
            samples = rows[1 + 2 * k] ** 2 + rows[2 + 2 * k] ** 2
            plain = [empirical_rate_ratio(gb * samples, gb * reference)
                     for gb in cli._gamma_bars(resolved["sweep"]["values"])]
            widths[f"quantization_b{b}_n{n}"] = [100.0 * (p.ci_high - p.ci_low) for p in plain]
    return widths


def _plain_correlation(config):
    widths = {1: [], 2: []}
    for n in config["correlation"]["n_values"]:
        cfg, corr = correlation_spec(n)
        rows = cli.simulate_scheme_rates(cfg, build_correlation(corr),
                                         SimPlan(trials=config["trials"], seed=1))
        for s, width in widths.items():
            plain = empirical_rate(cfg.gamma_bar * rows[s - 1])
            width.append(plain.ci_high - plain.ci_low)
    return {f"correlation_scheme{s}": width for s, width in widths.items()}


# (kind, config, the widths of plain MC's intervals at its configured trials
# per MC curve): rate N = 4 and correlation N = 64 and 144 extend their
# first draw
_NO_WIDER = [
    ("rate", {"trials": 300_000, **_rate_sweep([1, 4])}, _plain_rate),
    ("quantization", {"trials": 60_000, "sweep": {"values": [0.0, 21.0, 45.0]},
                      "quantization": {"bits": [1, 3], "n_values": [1, 8]}}, _plain_quantization),
    ("correlation", {"trials": 60_000, "correlation": {"n_values": [16, 64, 144]}},
     _plain_correlation),
]


@pytest.mark.parametrize("kind,config,plain_widths", _NO_WIDER,
                         ids=[kind for kind, *_ in _NO_WIDER])
def test_intervals_are_no_wider_than_plain_at_the_configured_trials(tmp_path, kind, config,
                                                                      plain_widths):
    code, out = run_cli(tmp_path, kind, config)
    assert code == 0
    for name, widths in plain_widths(config).items():
        rows = csv.DictReader(io.StringIO(read_csv(out / f"{name}.csv")))
        for row, width in zip(rows, widths, strict=True):
            assert float(row["mc_ci_high"]) - float(row["mc_ci_low"]) <= width


# (kind, config, its CSVs): a floor of four 1024-trial chunks is enough for
# every cell; one of two chunks is too few for rate and quantization at
# N = 4 and for scheme 2 at N = 64
_WORKER_RUNS = [
    ("rate", {"trials": 80_000, **_rate_sweep([4, 16])}, 3),
    ("quantization", {"trials": 50_000, "sweep": {"values": [0.0, 45.0]},
                      "quantization": {"bits": [1, 3], "n_values": [1, 4]}}, 4),
    ("correlation", {"trials": 50_000, "correlation": {"n_values": [16, 64]}}, 2),
]


@pytest.mark.parametrize("floor_chunks", [4, 2], ids=["floor", "extended"])
@pytest.mark.parametrize("kind,config,files", _WORKER_RUNS,
                         ids=[kind for kind, *_ in _WORKER_RUNS])
def test_columns_are_the_same_for_any_worker_count(tmp_path, monkeypatch, small_chunks, kind,
                                                   config, files, floor_chunks):
    # a run that extends its first draw does so from decisions on chunk
    # prefixes alone
    monkeypatch.setattr(montecarlo, "CV_FLOOR_TRIALS", floor_chunks * 1024)
    outputs = []
    for workers in (None, 1, 2, 3):
        run_dir = tmp_path / f"w{workers}"
        run_dir.mkdir()
        code, out = run_cli(run_dir, kind,
                            config if workers is None else {**config, "workers": workers})
        assert code == 0
        outputs.append(csv_bytes(out))
        runs = mc_extras(out)["runs"]
        assert any(run["control_variates"]["extension"] for run in runs) == (floor_chunks == 2)
    assert len(outputs[0]) == files
    assert all(other == outputs[0] for other in outputs[1:])


# (kind, config of one N whose first draw of two 1024-trial chunks is too few)
_EXTENDED_ONCE = [
    ("rate", {"trials": 80_000, **_rate_sweep([4])}),
    ("quantization", {"trials": 50_000, "sweep": {"values": [0.0, 45.0]},
                      "quantization": {"bits": [1, 3], "n_values": [4]}}),
    ("correlation", {"trials": 50_000, "correlation": {"n_values": [64]}}),
]


@pytest.mark.parametrize("kind,config", _EXTENDED_ONCE, ids=[kind for kind, _ in _EXTENDED_ONCE])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_extension_draws_each_chunk_once(tmp_path, monkeypatch, small_chunks, kind, config,
                                             workers):
    # the run draws the chunks that follow its first draw and fits them with
    # it, so its columns are those of a run whose first draw is every trial
    # it fitted
    monkeypatch.setattr(montecarlo, "CV_FLOOR_TRIALS", 2 * 1024)
    config = {**config, "workers": workers}
    drawn = []
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "chunk_rng", lambda seed, index: (
            drawn.append(index) or chunk_rng(seed, index)))
        (tmp_path / "extended").mkdir()
        code, out = run_cli(tmp_path / "extended", kind, config)
    assert code == 0
    mc = mc_extras(out)
    fitted = mc["runs"][-1]["control_variates"]["fitted_trials"]
    assert [run["control_variates"]["extension"] for run in mc["runs"]] == [False, True]
    assert sorted(drawn) == list(range(mc["chunks"]))
    assert mc["trials"] == fitted == sum(run["trials"] for run in mc["runs"])

    monkeypatch.setattr(montecarlo, "CV_FLOOR_TRIALS", fitted)
    (tmp_path / "once").mkdir()
    code, once = run_cli(tmp_path / "once", kind, config)
    assert code == 0
    assert [run["trials"] for run in mc_extras(once)["runs"]] == [fitted]
    assert csv_bytes(out) and csv_bytes(out) == csv_bytes(once)


def _rate_draw(n):
    cfg, _ = cli.validate_config({"n_elements": n})
    return (functools.partial(simulate_snr_samples, cfg),
            functools.partial(cli._rate_fit, cli.continuous_control_means(cfg),
                              cli._gamma_bars([0.0, 21.0, 45.0])))


def _quantization_draw(n):
    widths = (1, 3)
    cfg, _ = cli.validate_config({"n_elements": n})
    return (lambda plan: simulate_snr_samples(cfg, dataclasses.replace(
                plan, quantization_bits=widths)),
            functools.partial(cli._quantization_fit,
                              [cli.quantized_control_means(cfg, bits) for bits in widths],
                              cli._gamma_bars([0.0, 15.0, 45.0])))


def _correlation_draw(n):
    cfg, corr = correlation_spec(n)
    roots = build_correlation(corr)
    return (functools.partial(cli.simulate_scheme_rates, cfg, roots),
            functools.partial(cli._correlation_fit, cfg, scheme_control_means(cfg, roots)))


# (kind, N, trials of its first draw): one chunk below N = 16, ten chunks of
# 227 trials at N = 144.  Each case is a link of its own (kind x N), so no
# two share a reference draw.
_COVERAGE_GATES = [("rate", 1, 32768), ("rate", 16, 2048), ("rate", 128, 2048),
                   ("quantization", 8, 4096), ("quantization", 16, 2048),
                   ("quantization", 32, 2048), ("correlation", 16, 2048),
                   ("correlation", 64, 2048), ("correlation", 144, 2270)]


@pytest.mark.parametrize("kind,n,floor", _COVERAGE_GATES)
def test_floor_intervals_cover_a_million_trial_reference(kind, n, floor):
    # 400 seeds of the first draw of the default link at N = n: each cell's
    # 95% interval (rate at 0, 21 and 45 dB; quantization at 1 and 3 bits,
    # each at 0, 15 and 45 dB; both correlation schemes) covers the estimate
    # of 2^20 trials (four draws of 2^18) at a rate of at least 0.92
    sample, fit = globals()[f"_{kind}_draw"](n)
    assert first_draw(n) == floor

    def cells(trials, seed):  # (cell, value / low / high)
        rows = sample(SimPlan(trials=trials, seed=seed, workers=2))
        return np.array([[e.value, e.ci_low, e.ci_high] for group in fit(rows) for e, _ in group])

    reference = np.mean([cells(2**18, 10_000 + i)[:, 0] for i in range(4)], axis=0)
    covered = np.zeros(reference.shape)
    for seed in range(400):
        est = cells(floor, seed)
        covered += (est[:, 1] <= reference) & (reference <= est[:, 2])
    assert np.all(covered / 400 >= 0.92)


def test_quantization_at_the_finest_widths_reads_one_hundred_percent(tmp_path):
    # at 20 and 64 bits the float32 cos of every phase error rounds to 1, so A
    # equals R: the fit drops A and A^2 and still runs
    code, out = run_cli(tmp_path, "quantization",
                        {"trials": 20_000, "sweep": {"values": [0.0, 45.0]},
                         "quantization": {"bits": [20, 64], "n_values": [1, 16]}})
    assert code == 0
    for name in ("b20_n1", "b20_n16", "b64_n1", "b64_n16"):
        for row in csv.DictReader(io.StringIO(read_csv(out / f"quantization_{name}.csv"))):
            low, mc, high = (float(row[c]) for c in ("mc_ci_low", "mc", "mc_ci_high"))
            assert low <= mc <= high
            assert low - 1e-9 <= 100.0 <= high + 1e-9


def test_scheme1_bound_lies_above_its_interval(tmp_path):
    # Jensen's bound log2(1 + gamma_bar E snr_1) over the control-variate interval
    code, out = run_cli(tmp_path, "correlation", {"correlation": {"n_values": [16, 64, 144]}})
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(out / "correlation_scheme1.csv"))))
    assert [int(row["x"]) for row in rows] == [16, 64, 144]
    for row in rows:
        assert float(row["analytic"]) > float(row["mc_ci_high"])
    scheme2 = csv.DictReader(io.StringIO(read_csv(out / "correlation_scheme2.csv")))
    assert all(row["analytic"] == "" and row["mc"] for row in scheme2)


def test_wdist_grid_below_the_floor_of_1e9_increases(tmp_path):
    # the reflected sum is about 3e-35: the grid cannot start at 1e-9
    assert run_yaml(tmp_path, "wdist", {"pathloss": {"zeta0_db": 300.0}, "trials": 2000},
                    mc=True) == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(tmp_path / "out" / "wdist_pdf.csv"))))
    w = [float(r["x"]) for r in rows]
    assert 0.0 <= w[0] < w[-1] < 1e-9 and all(a < b for a, b in zip(w, w[1:]))
    assert all(r["mc"] for r in rows)


@pytest.mark.parametrize("config", [{"pathloss": {"zeta0_db": 44.5}},
                                    {"n_elements": 1, "pathloss": {"zeta0_db": 60.0}}])
def test_wdist_grid_spans_the_law_where_its_top_is_below_1e6(tmp_path, config):
    # mu_bar 9.8e-10 at 44.5 dB: a floor of 1e-9 started the grid at 0.566
    # of the law; a thousandth of the top of the grid starts it in the tail
    assert run_yaml(tmp_path, "wdist", config) == 0
    rows = list(csv.DictReader(io.StringIO(read_csv(tmp_path / "out" / "wdist_cdf.csv"))))
    w, cdf = ([float(r[name]) for r in rows] for name in ("x", "analytic"))
    assert 0.999e-3 * w[-1] < w[0] < w[-1] < 1e-6
    assert cdf[0] < 1e-3 and cdf[-1] > 1.0 - 1e-3


@pytest.mark.parametrize("correlation", [{"wavelength_m": 1e-300},
                                         {"aoa": {"std_el_deg": 1e308}}])
def test_correlation_factors_beyond_the_float_range_exit_3(tmp_path, capsys, correlation):
    # valid fields whose factor entries overflow: only the simulation meets them
    config = {"trials": 300, "correlation": {"n_values": [16], **correlation}}
    assert run_cli(tmp_path, "correlation", config, "--no-mc")[0] == 0
    assert run_cli(tmp_path, "correlation", config)[0] == 3
    assert "correlation factor has non-finite entries" in capsys.readouterr().err


# the benchmark's config shapes, the default config and a sweep over n_elements
_CONFIG_SHAPES = [
    ("rate", {}),
    ("ser", {"seed": 7, "trials": 25_000}),
    ("snrcdf", {"n_elements": 4, "fading": {"m_v": 2.5}, "seed": 3}),
    ("ser", {"n_elements": 64, "fading": {"m_v": 1.0}, "sweep": {"values": [0.0, 15.0, 30.0]}}),
    ("outage", {"fading": {"m_g": 3.0, "m_h": 3.0}}),
    ("quantization", {"trials": 70_000, "workers": 2, "sweep": {"values": [15.0]},
                      "quantization": {"bits": [1, 3], "n_values": [128]}}),
    ("correlation", {"trials": 20_000, "workers": 2, "correlation": {"n_values": [64, 144]}}),
    ("rate", {"n_elements": 8.0, "eta": 1, "sweep": {"variable": "n_elements",
                                                     "values": [2.0, 8, 32]}}),
]


@pytest.mark.parametrize("kind,raw", _CONFIG_SHAPES)
def test_validation_leaves_the_defaults_and_the_input_alone(kind, raw):
    defaults, before = copy.deepcopy(DEFAULT_CONFIG), copy.deepcopy(raw)
    _, resolved = cli.validate_config(raw, kind)
    # every nested block and list of the result is its own: wiping them all
    # touches neither input
    stack = [resolved]
    while stack:
        node = stack.pop()
        for key, value in list(node.items()):
            if isinstance(value, dict):
                stack.append(value)
            elif isinstance(value, list):
                value.clear()
            node[key] = None
    # repr tells 8 from 8.0, which == does not
    assert repr(raw) == repr(before)
    assert repr(DEFAULT_CONFIG) == repr(defaults)


@pytest.mark.parametrize("kind,raw", _CONFIG_SHAPES)
def test_validation_of_its_own_output_changes_nothing(kind, raw):
    cfg, resolved = cli.validate_config(raw, kind)
    again, resolved_again = cli.validate_config(resolved, kind)
    assert repr(resolved_again) == repr(resolved)
    for field in dataclasses.fields(cfg):
        assert getattr(again, field.name) == getattr(cfg, field.name), field.name


def test_validation_writes_the_cast_values_back():
    _, resolved = cli.validate_config(
        {"n_elements": 8.0, "eta": 1, "trials": 1e3, "fading": {"m_v": 2},
         "sweep": {"variable": "n_elements", "values": [2.0, 8]},
         "correlation": {"wavelength_m": 1, "aoa": {"std_az_deg": 0}}})
    assert repr([resolved["n_elements"], resolved["eta"], resolved["trials"],
                 resolved["fading"]["m_v"], resolved["sweep"]["values"],
                 resolved["correlation"]["wavelength_m"],
                 resolved["correlation"]["aoa"]["std_az_deg"]]) == repr(
        [8, 1.0, 1000, 2.0, [2, 8], 1.0, 0.0])


_NUMBERS = st.one_of(st.floats(), st.integers(-10, 10**6),
                     st.sampled_from([0.5, 1.5, 5e-324, 1e-308, 1e308, -1e308]))
_LEAVES = ("n_elements", "eta", "fading.m_v", "fading.m_g", "fading.m_h", "distances.d_sd_m",
           "distances.d_si_m", "distances.d_di_m", "pathloss.zeta0_db", "pathloss.exponent",
           "gamma_bar_db", "gamma_th_db", "modulation.alpha", "modulation.beta", "seed",
           "correlation.surface_side_m", "correlation.wavelength_m",
           *(f"correlation.{side}.{stat}_{axis}_deg" for side in ("aoa", "aod")
             for stat in ("mean", "std") for axis in ("az", "el")))


def _nest(leaves: dict) -> dict:
    config = {}
    for path, value in leaves.items():
        *parents, last = path.split(".")
        node = config
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = value
    return config


@given(kind=st.sampled_from(cli.KINDS),
       leaves=st.dictionaries(st.sampled_from(_LEAVES), _NUMBERS, min_size=1, max_size=3),
       values=st.none() | st.lists(_NUMBERS, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_numeric_config_leaves_never_raise(tmp_path, kind, leaves, values):
    # --no-mc runs of every kind, correlation included: no kind simulates
    config = {**_nest(leaves), "quantization": {"n_values": [4, 8]}}
    if values is not None:
        config["sweep"] = {"values": values}
    assert run_yaml(tmp_path, kind, config) in (0, 2, 3)


# shapes of both Nakagami draws: Erlang (integers up to ERLANG_MAX_SHAPE) and
# numpy's Gamma sampler (the rest)
_SHAPES = st.sampled_from([0.5, 1.0, 2.0, 4.0, ERLANG_MAX_SHAPE + 1.0, 2.5])


@given(kind=st.sampled_from(cli.KINDS), m_v=_SHAPES, m_g=_SHAPES, m_h=_SHAPES,
       leaves=st.dictionaries(st.sampled_from([leaf for leaf in _LEAVES
                                               if not leaf.startswith("fading.")]),
                              _NUMBERS, max_size=2))
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_monte_carlo_runs_over_both_draws_stay_finite(tmp_path, kind, m_v, m_g, m_h, leaves):
    config = {**_nest(leaves), "trials": 300, "fading": {"m_v": m_v, "m_g": m_g, "m_h": m_h},
              "sweep": {"values": [0.0, 20.0]},
              "quantization": {"bits": [1, 3], "n_values": [4, 8]}}
    config.setdefault("correlation", {})["n_values"] = [4, 9]
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = run_yaml(tmp_path, kind, config, mc=True)
    assert code in (0, 2, 3)
    if code == 0:
        cells = [row[name] for path in out.glob("*.csv")
                 for row in csv.DictReader(io.StringIO(read_csv(path)))
                 for name in ("mc", "mc_ci_low", "mc_ci_high")]
        assert any(cells)
        assert all(math.isfinite(float(cell)) for cell in cells if cell)
