"""Each output check passes a real output and rejects a corrupted copy."""

import contextlib
import csv
import io
import json
import shutil

import pytest

import irslink.cli as cli
from checks import (Output, check_ci_order, check_files, check_finite, check_ks,
                    check_output, check_probabilities, check_rate_overlap, check_ser_bound,
                    expected_files)

SHORT_SWEEP = {"sweep": {"values": [0.0, 20.0, 40.0]}}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One MC output directory per kind, made once for the module."""
    base = tmp_path_factory.mktemp("outputs")
    config = base / "config.json"
    config.write_text(json.dumps({**SHORT_SWEEP, "seed": 7}))
    dirs = {}
    for kind in ("snrcdf", "rate", "ser"):
        dirs[kind] = base / kind
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([kind, "--config", str(config), "--out", str(dirs[kind])]) == 0
    return dirs


@pytest.fixture
def copy_of(outputs, tmp_path):
    def copy(kind):
        return shutil.copytree(outputs[kind], tmp_path / kind)
    return copy


def load(out_dir):
    return Output(out_dir, cli.CSV_HEADER)


def edit_csv(path, row, column, value):
    rows = list(csv.reader(path.open(newline="")))
    rows[row + 1][rows[0].index(column)] = value
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def cell(out_dir, name, row, column):
    return load(out_dir).curves[name][row][column]


def files_problems(out_dir, kind):
    out = load(out_dir)
    return check_files(out, expected_files(kind, out.manifest["experiment"]["config"], True))


@pytest.mark.parametrize("kind", ["snrcdf", "rate", "ser"])
def test_real_outputs_pass(outputs, kind):
    assert check_output(kind, outputs[kind], cli.CSV_HEADER, use_mc=True) == []


def test_files_rejects_missing_file(copy_of):
    out_dir = copy_of("rate")
    (out_dir / "rate_mc.csv").unlink()
    assert any("missing" in p for p in files_problems(out_dir, "rate"))


def test_files_rejects_wrong_header(copy_of):
    out_dir = copy_of("rate")
    path = out_dir / "rate_lower.csv"
    path.write_text(path.read_text().replace("mc_ci_low", "ci_low", 1))
    assert any("header" in p for p in files_problems(out_dir, "rate"))


def test_files_rejects_missing_row(copy_of):
    out_dir = copy_of("snrcdf")
    path = out_dir / "snrcdf.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert any("rows" in p for p in files_problems(out_dir, "snrcdf"))


def test_finite_rejects_nan(copy_of):
    out_dir = copy_of("rate")
    edit_csv(out_dir / "rate_upper.csv", 1, "analytic", "nan")
    assert check_finite(load(out_dir))


def test_probabilities_rejects_cdf_above_one(copy_of):
    out_dir = copy_of("snrcdf")
    edit_csv(out_dir / "snrcdf.csv", 60, "analytic", "1.5")
    assert check_probabilities(load(out_dir))


def test_ci_order_rejects_estimate_outside_ci(copy_of):
    out_dir = copy_of("rate")
    high = cell(out_dir, "rate_mc", 0, "mc_ci_high")
    edit_csv(out_dir / "rate_mc.csv", 0, "mc", repr(high + 1.0))
    assert check_ci_order(load(out_dir))


def test_rate_overlap_rejects_ci_above_upper_bound(copy_of):
    out_dir = copy_of("rate")
    shifted = cell(out_dir, "rate_upper", 1, "analytic") + 1.0
    for column in ("mc", "mc_ci_low", "mc_ci_high"):
        edit_csv(out_dir / "rate_mc.csv", 1, column, repr(shifted))
    assert check_rate_overlap(load(out_dir))


def test_ser_bound_rejects_ci_above_bound(copy_of):
    out_dir = copy_of("ser")
    above = cell(out_dir, "ser_bound", 1, "analytic") * 1.5
    for column in ("mc", "mc_ci_low", "mc_ci_high"):
        edit_csv(out_dir / "ser_mc.csv", 1, column, repr(above))
    assert check_ser_bound(load(out_dir))


def test_ks_rejects_large_distance(copy_of):
    out_dir = copy_of("snrcdf")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["extras"]["ks_distance"] = 0.5
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    assert check_ks(load(out_dir))
