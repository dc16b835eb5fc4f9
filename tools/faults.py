"""Wall time and minor page faults of each operation of a benchmark workload, in one process.

Usage: python3 tools/faults.py WORKLOAD N [--seed S]

Writes the workload's inputs with the prepare function of
bench/workloads.py, as tools/compare_outputs.py does, imports
``sdfspectral.cli`` from this checkout's src/, makes one warm-up round,
then runs the workload's round N times in this process. For each
operation it prints its wall milliseconds and its ``ru_minflt`` delta
(minor page faults of this process), then the median of each. BLAS runs
on one thread, as in the benchmark. Outputs are not checked; see
bench/run.py for that.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from sdfspectral import cli  # noqa: E402


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("n", type=int, help="timed rounds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as work:
        round_ = workloads.WORKLOADS[args.workload][0](args.seed, work)
        for op in round_:  # warm-up: imports, caches and the first heap growth
            if cli.main(op.argv) != 0:
                sys.exit(f"error: {args.workload} exited non-zero")
        wall, faults = [], []
        print("op  wall_ms  minor_faults")
        for _ in range(args.n):
            for op in round_:
                f0, t0 = minflt(), time.perf_counter()
                status = cli.main(op.argv)
                t1, f1 = time.perf_counter(), minflt()
                if status != 0:
                    sys.exit(f"error: {args.workload} exited {status}")
                wall.append(1000.0 * (t1 - t0))
                faults.append(f1 - f0)
                print(f"{len(wall):>2}  {wall[-1]:7.1f}  {faults[-1]:>12}")
    print(f"median  {statistics.median(wall):7.1f}  {statistics.median(faults):>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
