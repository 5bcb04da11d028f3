"""The benchmark tracer's targets, the output contract the benchmark checks,
the import path of the CLI and the imports of the library."""

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import irslink
import irslink.cli as cli
import irslink.montecarlo as montecarlo
from irslink.errors import NumericalConsistencyError

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


def _failing_chunk_rng(seed, index, chunk_rng=montecarlo.chunk_rng):
    if index == 1:
        raise NumericalConsistencyError("chunk 1 failed")
    return chunk_rng(seed, index)


# (kind, config, chunk generator, exit code): 10000 trials are several chunks
# at N = 16 and N = 8, so three workers all start
_THREADED_RUNS = [
    ("rate", {}, None, 0),
    ("quantization", {"sweep": {"values": [-400.0]}}, None, 3),  # zero mean reference rate
    ("outage", {}, _failing_chunk_rng, 3),  # a chunk fails while three threads draw
]


@pytest.mark.parametrize("kind,config,chunk_rng,code", _THREADED_RUNS,
                         ids=["ok", "exit3", "exit3_in_a_worker"])
def test_no_thread_outlives_a_run(tmp_path, monkeypatch, kind, config, chunk_rng, code):
    # every worker a run starts is joined before main returns, failed or not
    if chunk_rng is not None:
        monkeypatch.setattr(montecarlo, "chunk_rng", chunk_rng)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 10_000, "workers": 3,
                                "quantization": {"bits": [1], "n_values": [8]}, **config}))
    before = threading.active_count()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert threading.active_count() == before


def _public_names(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for name in ast.literal_eval(node.value)]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``;
    ``__future__`` imports and lines marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_public_names(tree))
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [name for name in imported if name not in used]


def test_every_library_import_is_used():
    # __init__.py imports to re-export: it is the package API
    package = Path(irslink.__file__).resolve().parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))}
    assert unused == {}


def _private_imports(source: str) -> list[str]:
    """``module._name`` for each underscore name (not a dunder) a module
    imports from another module of the package."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_no_library_module_imports_another_modules_private_name():
    # a private name has one owner: what another module needs of it, that
    # module makes public (the chunk plan is montecarlo.chunk_plan)
    package = Path(irslink.__file__).resolve().parent
    private = {path.name: names for path in sorted(package.glob("*.py"))
               if (names := _private_imports(path.read_text()))}
    assert private == {}


def _references(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name, top-level definition it appears in, None at module level) of
    each name a module loads, reads as an attribute or imports."""
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                found.update((alias.name, owner) for alias in node.names)
    return found


def test_every_public_name_has_a_library_caller():
    # a public name only tests use is test code in the library: it goes, or
    # moves to the tests; the package API is what __init__.py re-exports.
    # specfun is exempt until its closed form moves to tests/oracles.py
    package = Path(irslink.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = {(node.module, alias.name) for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    references = {(name, (module, owner)) for module, tree in trees.items()
                  for name, owner in _references(tree)}
    uncalled = [f"{module}.{name}" for module, tree in trees.items() if module != "specfun"
                for name in _public_names(tree)
                if (module, name) not in exported
                and not any(ref == name and where != (module, name) for ref, where in references)]
    assert uncalled == []


def test_every_specfun_import_is_an_unused_binding():
    # nothing a run executes calls into specfun: what the package imports from
    # it is bound for the benchmark tracer or re-exported, never called
    package = Path(irslink.__file__).resolve().parent
    called = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "specfun"
                    and not any("# noqa: F401" in line
                                for line in lines[node.lineno - 1:node.end_lineno])):
                called.append(f"{path.name}:{node.lineno}")
    assert called == []


def test_only_the_floor_evaluator_of_metrics_exponentiates_a_log():
    # the floors' constants stay logs from start to finish: an exp anywhere
    # else can leave the float64 range where the floor value does not
    source = (Path(irslink.__file__).resolve().parent / "metrics.py").read_text()
    callers = sorted({func.name for func in ast.walk(ast.parse(source))
                      if isinstance(func, ast.FunctionDef)
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "math"})
    assert callers == ["_floor_values"]


def test_only_channel_draws_from_a_generator():
    # channel alone defines the uniform stream: a draw anywhere else would
    # take words of a chunk's stream outside its documented order
    package = Path(irslink.__file__).resolve().parent
    draws = {"random_raw", "random", "uniform", "standard_gamma"}
    callers = sorted(f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
                     if path.name != "channel.py"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr in draws)
    assert callers == []
