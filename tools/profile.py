"""cProfile of a benchmark workload's operations, run N rounds in one process.

Usage: python3 tools/profile.py WORKLOAD N [--seed S] [--sort tottime|cumtime] [--top K]

Writes the workload's inputs with the prepare function of
bench/workloads.py, as tools/faults.py does, imports ``sdfspectral.cli``
from this checkout's src/, makes one warm-up round, then runs the
workload's round N times under ``cProfile``. Prints the top K functions
by ``--sort`` (tottime by default), totalled over the N rounds, then
the median wall milliseconds per round. The wall
times include cProfile's cost on every Python call, which falls
unevenly; measure a change with bench/run.py. BLAS runs on one thread,
as in the benchmark. Outputs are not checked.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads
# this file's directory: here this file would stand in for the standard
# library's profile module, which cProfile imports
del sys.path[0]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from sdfspectral import cli  # noqa: E402


def run_round(round_, workload: str) -> None:
    for op in round_:
        status = cli.main(op.argv)
        if status != 0:
            sys.exit(f"error: {workload} exited {status}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("n", type=int, help="profiled rounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    parser.add_argument("--top", type=int, default=25, help="functions to print")
    args = parser.parse_args()
    if args.n < 1:
        parser.error("N must be at least 1")

    profiler = cProfile.Profile()
    wall = []
    with tempfile.TemporaryDirectory() as work:
        round_ = workloads.WORKLOADS[args.workload][0](args.seed, work)
        run_round(round_, args.workload)  # warm-up: imports, caches and the first heap growth
        for _ in range(args.n):
            t0 = time.perf_counter()
            profiler.enable()
            run_round(round_, args.workload)
            profiler.disable()
            wall.append(1000.0 * (time.perf_counter() - t0))
    print(f"{args.workload}, seed {args.seed}: totals over {args.n} profiled round(s)")
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.top)
    print(f"median wall ms per round under cProfile: {statistics.median(wall):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
