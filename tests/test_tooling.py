"""The benchmark tracer's targets, the output contract the benchmark checks,
and the import path of the CLI."""

import contextlib
import functools
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import irslink
import irslink.cli as cli

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _tracing_targets():
    return [name for _, names, _ in _bench_module("tracing").TARGETS for name in names]


@pytest.mark.parametrize("dotted", _tracing_targets())
def test_every_traced_name_resolves(dotted):
    # the tracer getattr's each name; a missing one breaks every traced round
    module_name, name = dotted.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.stats", "scipy.optimize"])
def test_cli_import_leaves_scipy_module_out(module):
    # each of them would add to the start-up time of every run
    src = Path(irslink.__file__).resolve().parents[1]
    probe = f"import sys, irslink.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("use_mc", [False, True], ids=["no_mc", "mc"])
@pytest.mark.parametrize("kind", cli.KINDS)
def test_outputs_meet_the_benchmark_contract(tmp_path, kind, use_mc):
    # the files and row counts every benchmark invocation is checked against
    checks = _bench_module("checks")
    argv = [kind, "--trials", "300", "--out", str(tmp_path)] + ([] if use_mc else ["--no-mc"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    resolved = manifest["experiment"]["config"]
    if kind == "sweep":  # which the benchmark never runs: the rate files, renamed
        expected = {f"sweep_{name}": rows
                    for name, rows in checks.expected_files("rate", resolved, use_mc).items()}
    else:
        expected = checks.expected_files(kind, resolved, use_mc)
    assert manifest["files"] == {name: f"{name}.csv" for name in expected}
    assert sorted(path.stem for path in tmp_path.glob("*.csv")) == sorted(expected)
    assert checks.check_files(checks.Output(tmp_path, cli.CSV_HEADER), expected) == []
