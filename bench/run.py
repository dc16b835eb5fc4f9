#!/usr/bin/env python3
"""Benchmark of the sdfspectral command line.

Run from the root of a checkout:

    python3 bench/run.py --workload decompose --seed 1 --seconds 18 --trace 0

One client calls ``sdfspectral.cli.main(argv)`` in this process in a
closed loop for ``--seconds``, then the workload's outputs are checked
against the benchmark's own computations. The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped calls with ``--trace 1``. Times of the untraced run are
scaled to the reference machine speed by ``speed.SpeedProbe``. See
README.md.
"""

import os
import sys
import time

_START = time.perf_counter()  # set-up is timed from here

import speed  # noqa: E402

PROBE = speed.SpeedProbe()
PROBE.start()

#: BLAS threads, fixed before numpy loads; the Monte Carlo harness runs serially
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["SDFSPECTRAL_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
#: set-ups per timed run: this process and SETUPS - 1 fresh ones; setup_s is their median
SETUPS = 3
#: workloads whose runs hold enough operations for a tail percentile
TAIL_WORKLOADS = {"decompose"}


def import_program():
    """Import sdfspectral.cli from this checkout's src/; returns (module, import ms)."""
    if not (SRC / "sdfspectral" / "cli.py").is_file():
        sys.exit(f"error: no program source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("sdfspectral.cli")
    import_ms = 1000.0 * (time.perf_counter() - t0)
    if Path(cli.__file__).resolve().parent != (SRC / "sdfspectral").resolve():
        sys.exit(f"error: imported {cli.__file__}, not the checkout's source")
    return cli, import_ms


def run_op(cli, argv) -> bool:
    """One operation; it fails when the call raises or returns a non-zero status."""
    try:
        return cli.main(argv) == 0
    except (Exception, SystemExit):  # a boundary that counts the failure and goes on
        traceback.print_exc()
        return False


def set_up(workload: str, seed: int, tag: str):
    """Import, write inputs and make one warm-up call.

    Returns (cli, import ms, the round of prepared operations, their check,
    set-up seconds at the reference speed).
    """
    cli, import_ms = import_program()
    import workloads  # after the program, so that import_ms includes numpy and scipy

    prepare, check = workloads.WORKLOADS[workload]
    work = WORK / f"{workload}-{tag}"
    shutil.rmtree(work, ignore_errors=True)  # no output of an earlier run can pass the checks
    work.mkdir(parents=True)
    round_ = prepare(seed, str(work))
    run_op(cli, round_[0].argv)
    return cli, import_ms, round_, check, PROBE.scaled(_START, time.perf_counter())


def probe_set_up(args) -> float:
    """Set-up seconds of a fresh process of the same workload and seed."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--set-up-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_loop(cli, round_, seconds: float):
    """Closed loop of one client, in whole rounds, for ``seconds`` of wall time.

    Returns (per-op wall seconds, per-op seconds at the reference speed, failures).
    """
    spans, failed = [], 0
    start = time.perf_counter()
    while True:
        for op in round_:
            t0 = time.perf_counter()
            ok = run_op(cli, op.argv)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            failed += not ok
        if t1 - start >= seconds:
            break
    return [t1 - t0 for t0, t1 in spans], [PROBE.scaled(t0, t1) for t0, t1 in spans], failed


def traced_loop(cli, round_, seconds: float):
    """Alternate untraced and traced operations in pairs, in whole rounds, for ``seconds``.

    Returns (tracer, traced operations, failures, attempted, overhead %):
    the overhead is the median over pairs of traced / untraced time, so
    slow spells of the machine hit both sides of a pair alike.
    """
    tracer = tracing.Tracer()
    sites = tracing.wrappers(tracer, {name: importlib.import_module(f"sdfspectral.{name}") for name in (
        "basis", "sievemat", "pipeline", "valuefn", "calibrate", "inference", "simkit",
        "cli", "pfeig", "oracle", "decomp", "svgplot")})
    ratios, failed = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in round_:
            pair = []
            for traced in (False, True):
                tracing.switch(sites, traced)
                t0 = time.perf_counter()
                failed += not run_op(cli, op.argv)
                pair.append(time.perf_counter() - t0)
            tracing.switch(sites, False)
            tracer.op += 1
            ratios.append(pair[1] / pair[0])
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    return tracer, tracer.op, failed, 2 * tracer.op, overhead


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["decompose", "bootstrap", "calibrate", "mc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    cli, import_ms, round_, check, setup_s = set_up(
        args.workload, args.seed, "probe" if args.set_up_only else "run")
    if args.set_up_only:
        PROBE.stop()
        print(repr(setup_s))
        return 0

    if args.trace:
        PROBE.stop()  # per-layer times are wall times
        tracer, traced_ops, failed, attempted, overhead = traced_loop(cli, round_, args.seconds)
        metrics = tracing.per_layer_metrics(tracer, traced_ops, import_ms, overhead)
        tracer.write(str(WORK / f"{args.workload}-spans.csv"))
    else:
        setups = [setup_s] + [probe_set_up(args) for _ in range(SETUPS - 1)]
        wall, times, failed = timed_loop(cli, round_, args.seconds)
        PROBE.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(times)
        replicates = attempted // len(round_) * sum(op.replicates_per_op for op in round_)
        p50 = 1000.0 * statistics.median(times)
        # fewer than 40 operations hold no tail: the median stands in (README)
        p90 = (1000.0 * statistics.quantiles(times, n=10)[-1]
               if args.workload in TAIL_WORKLOADS else p50)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "replicates_per_s": {"value": replicates / sum(times),
                                 "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"wall op_p50_ms {1000.0 * statistics.median(wall):.6g}, probe kernel median "
              f"{1e6 * PROBE.kernel_median_s():.4g} us against {1e6 * speed.REFERENCE_KERNEL_S:.4g} "
              f"us at the reference speed", file=sys.stderr)

    fails = []
    for op in round_:
        try:
            fails += check(op)
        except (OSError, ValueError, KeyError) as exc:
            fails.append(f"outputs of {op.out_dir} missing or unreadable: {exc!r}")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
                      "attempted": attempted, "failed": failed}), file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        PROBE.stop()  # no alarm may reach the interpreter's shutdown
    sys.exit(status)
