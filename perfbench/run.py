#!/usr/bin/env python3
"""Benchmark of the eqball library.

    python3 perfbench/run.py --workload certify-shell --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from its `src`
directory.  `--trace 0` measures the end-to-end metrics with no
instrumentation; `--trace 1` runs the workload untraced, then runs the same
operations again with every layer wrapped in spans, and prints per-layer
metrics (spans are saved under perfbench/out/).  The last line of stdout is
the result object; the line before it records the environment, the inputs
and the counts.  Exit status 1 means a correctness gate failed, 2 that the
library could not be imported; neither prints a result.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ENTERED = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread: at most nproc on any machine, and steadier timings.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("certify-shell", "certify-deep", "falsify-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eqball" / "__init__.py").is_file():
        print(f"error: no eqball sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)   # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import eqball
    if Path(eqball.__file__).resolve().parent != SRC / "eqball":
        print(f"error: eqball was imported from {eqball.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    return bench.main(args, entered=ENTERED, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
