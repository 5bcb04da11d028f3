"""irslink benchmark: ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``.

Run from the root of a source checkout.  Each round of a workload runs in a
fresh process (``bench/round.py``) against ``src/``; rounds repeat, each with
fresh Monte-Carlo seeds, until ``--seconds`` is used up.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
rounds): set-up time, wall time of the invocations, peak RSS and the share
of invocations that succeeded and passed the output checks.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false if any output check failed or any invocation failed other than as a
known seed failure listed in ``bench/meta.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 2          # untraced rounds per --trace 0 run
SETUP_SAMPLES = 5       # set-up timings per --trace 0 run (extra set-up-only processes)
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_round(work: Path, workload: str, seed: int, index: int, *,
              trace: bool = False, setup_only: bool = False) -> dict:
    """Run one round in a fresh process and return its result record."""
    round_dir = work / f"round{index}"
    round_dir.mkdir(parents=True)
    invocations = []
    for pos, inv in enumerate(build(workload, seed, index)):
        config_path = round_dir / f"config{pos}.json"
        config_path.write_text(json.dumps(inv.config))  # JSON is valid YAML
        out_dir = round_dir / f"out{pos}"
        invocations.append({"id": inv.id, "kind": inv.kind, "no_mc": inv.no_mc,
                            "config_path": str(config_path), "out_dir": str(out_dir),
                            "argv": inv.argv(str(config_path), str(out_dir))})
    spec_path, result_path = round_dir / "spec.json", round_dir / "result.json"
    spec_path.write_text(json.dumps({
        "invocations": invocations, "trace": trace, "setup_only": setup_only,
        "src": str(ROOT / "src"), "result": str(result_path)}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "round.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {index} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"round {index} failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    if proc.stderr:
        print(proc.stderr.rstrip(), file=sys.stderr)
    result = json.loads(result_path.read_text())
    shutil.rmtree(round_dir)
    return result


def repeat(seconds: float, minimum: int, one) -> list:
    """Call ``one(i)`` at least ``minimum`` times, then while another call
    of the last call's length still fits in ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one(len(results)))
        last = time.perf_counter() - began
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


def tally(rounds: list[dict], known: dict) -> tuple[int, int, list, dict]:
    """(attempted, failed, unexpected failures, failures per class)."""
    attempted = failed = 0
    unexpected, classes = [], {"exit2": 0, "exit3": 0, "traceback": 0, "check": 0}
    for record in rounds:
        for ident, outcome in record["outcomes"]:
            attempted += 1
            if outcome == "ok":
                continue
            failed += 1
            classes[outcome.split(":")[0]] += 1
            if known.get(ident, {}).get("outcome") != outcome:
                unexpected.append((ident, outcome))
    return attempted, failed, unexpected, classes


def median(records, key):
    return statistics.median(r[key] for r in records)


def untraced(work, workload, seed, seconds):
    rounds = repeat(seconds, MIN_ROUNDS, lambda i: run_round(work, workload, seed, i))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_round(work, workload, seed, len(setups) + len(rounds),
                                setup_only=True)["setup_s"])
    return rounds, {"setup_s": statistics.median(setups),
                    "wall_s": median(rounds, "wall_s"),
                    "wall_ref": median(rounds, "wall_ref"),
                    "ref_s": median(rounds, "ref_s"),
                    "peak_rss_mb": median(rounds, "peak_rss_mb")}


def traced(work, workload, seed, seconds):
    def pair(i):
        return (run_round(work, workload, seed, 2 * i),
                run_round(work, workload, seed, 2 * i + 1, trace=True))
    pairs = repeat(seconds, 1, pair)
    plain, rounds = [p[0] for p in pairs], [p[1] for p in pairs]
    names = set().union(*(r["layers"] for r in rounds))
    metrics = {name: statistics.median(r["layers"].get(name, 0.0) for r in rounds)
               for name in names}
    # compared in reference units, then scaled back: raw seconds drift with the host
    metrics["trace.overhead_s"] = ((median(rounds, "wall_ref") - median(plain, "wall_ref"))
                                   * median(plain + rounds, "ref_s"))
    return plain + rounds, metrics


def environment() -> str:
    import importlib.metadata as md
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {md.version(dist)}")
        except md.PackageNotFoundError:
            versions.append(f"{dist} missing")
    return f"nproc {os.cpu_count()}, python {platform.python_version()}, " + ", ".join(versions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "irslink" / "cli.py").is_file():
        print(f"no irslink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    known = json.loads((BENCH / "meta.json").read_text())["known_seed_failures"]
    known = known.get(args.workload, {})

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced if args.trace else untraced
        rounds, metrics = run(work, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted, failed, unexpected, classes = tally(rounds, known)
    metrics["ok_frac"] = 1.0 - failed / attempted
    for name, count in classes.items():
        metrics[f"cli.failed.{name}"] = count / len(rounds)
    report = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics and ".trials_per_s.n" not in name:
            print(f"benchmark failed: metric {name} was not measured", file=sys.stderr)
            return 1
        # a per-N rate is absent where the workload runs no call at that N
        report[name] = {"value": metrics.get(name, 0.0), "unit": entry["unit"]}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} invocations; {environment()}")
    for name, entry in report.items():
        print(f"  {name:45s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  wall_s (not gated: tracks the host's load) {metrics['wall_s']:.6g} s; "
              f"reference kernel {metrics['ref_s']:.6g} s")
    print(f"  failed_frac {failed / attempted:.4f} ({failed}/{attempted}; by class {classes}; "
          f"unexpected {len(unexpected)})")
    for ident, outcome in unexpected:
        print(f"  unexpected failure: {ident} -> {outcome}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
