"""One round of a workload, in a fresh process: ``python3 bench/round.py SPEC.json``.

The spec (written by ``run.py``) lists the invocations with their config
files.  The round times set-up (importing ``irslink.cli`` and validating every
config), then calls ``irslink.cli.main`` once per invocation, timing only the
calls, and checks each output outside the timed region.  With ``trace`` set
the calls run under the per-layer wrappers.  The result goes to the spec's
``result`` path as JSON.

Between invocations the round times a fixed reference kernel, at most once
per ``REF_EVERY_S`` of invocation time.  ``wall_ref`` divides each
invocation's time by the mean of the reference timings taken just before and
just after it: on a host whose speed drifts with its neighbours' load, the
ratio stays steady where the raw seconds do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from checks import check_output
from tracing import Tracer, layer_metrics

REF_EVERY_S = 1.0


def _invoke(main, argv: list[str]) -> str:
    """Outcome of one CLI call: ok, exit<code> or traceback:<exception>."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a counted failure, not a crash of the round
        return f"traceback:{type(exc).__name__}"
    return "ok" if code == 0 else f"exit{code}"


def reference_s() -> float:
    """Time of one reference kernel run: Philox gamma draws (array work) plus
    a pure-Python loop (interpreter work), about 60 ms on a 2-vCPU x86 VM."""
    import numpy as np  # only after set-up is timed: importing irslink imports numpy
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    start = time.perf_counter()
    for _ in range(2):  # 4 MB per draw keeps the kernel's share of peak RSS small
        rng.gamma(3.0, np.broadcast_to(1e-5, (1 << 15, 16)))
    total = 0.0
    for i in range(100_000):
        total += i * 0.5
    return time.perf_counter() - start


def gamma_draws_per_s(repeats: int = 3) -> float:
    """Machine calibration: Philox gamma draws/s with an array-broadcast scale,
    the draw pattern of the MC chunk kernel."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    scale = np.broadcast_to(1e-5, (1 << 18, 16))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rng.gamma(3.0, scale)
        times.append(time.perf_counter() - start)
    return scale.size / sorted(times)[len(times) // 2]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    import irslink
    import irslink.cli as cli
    from irslink.errors import IrsLinkError
    for inv in spec["invocations"]:
        try:
            cli.validate_config(cli.load_config_file(inv["config_path"]), inv["kind"])
        except IrsLinkError:
            pass  # the invocation itself reports it
    setup_s = time.perf_counter() - start
    source = Path(irslink.__file__).resolve()
    if Path(spec["src"]).resolve() not in source.parents:
        print(f"irslink imported from {source}, not from {spec['src']}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}

    if not spec["setup_only"]:
        tracer = Tracer() if spec["trace"] else None
        outcomes, times, refs, before = [], [], [reference_s()], []
        since_ref = 0.0
        with tracer.installed() if tracer else contextlib.nullcontext():
            for pos, inv in enumerate(spec["invocations"]):
                out_dir = Path(inv["out_dir"])
                before.append(len(refs) - 1)
                began = time.perf_counter()
                outcome = _invoke(cli.main, inv["argv"])
                times.append(time.perf_counter() - began)
                since_ref += times[-1]
                if since_ref >= REF_EVERY_S or pos == len(spec["invocations"]) - 1:
                    refs.append(reference_s())
                    since_ref = 0.0
                if outcome == "ok":
                    problems = check_output(inv["kind"], out_dir, cli.CSV_HEADER,
                                            use_mc=not inv["no_mc"])
                    if problems:
                        outcome = "check"
                        print(f"{inv['id']}: " + "; ".join(problems[:5]), file=sys.stderr)
                shutil.rmtree(out_dir, ignore_errors=True)
                outcomes.append([inv["id"], outcome])
        wall_ref = sum(t / (0.5 * (refs[i] + refs[i + 1])) for t, i in zip(times, before))
        result.update(wall_s=sum(times), wall_ref=wall_ref, ref_s=sorted(refs)[len(refs) // 2],
                      outcomes=outcomes,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            result["layers"] = layer_metrics(tracer, gamma_draws_per_s())
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
