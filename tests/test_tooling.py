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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``;
    ``__future__`` imports and lines marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
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
