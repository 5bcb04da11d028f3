"""A large_surface round gives byte-identical MC CSVs at 1 and 2 workers."""

import contextlib
import io
import json

import irslink.cli as cli
from workloads import build


def run_all(tmp_path, workers):
    files = {}
    for inv in build("large_surface", seed=3, round_index=0):
        config = tmp_path / f"{inv.kind}-w{workers}.json"
        config.write_text(json.dumps({**inv.config, "workers": workers}))
        out_dir = tmp_path / f"{inv.kind}-w{workers}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(inv.argv(str(config), str(out_dir))) == 0
        files.update({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
    return files


def test_large_surface_outputs_do_not_depend_on_workers(tmp_path):
    one, two = run_all(tmp_path, 1), run_all(tmp_path, 2)
    assert sorted(one) == ["correlation_scheme1.csv", "correlation_scheme2.csv",
                           "quantization_b1_n128.csv", "quantization_b3_n128.csv"]
    assert one == two
