#!/usr/bin/env python3
"""Time the kernels of ``sawt_qap._kernels`` per instance size.

Each kernel is called once untimed, then ``--repeats`` times; the table
reports the median wall time per call and, for the greedy and tabu step
loops, per step.  Correctness is checked by ``tests/test_kernels.py``, not
here.

Usage::

    python benchmarks/kernel_bench.py                  # sizes 9,16,50,100
    python benchmarks/kernel_bench.py --sizes 12,30,60 --repeats 7
    python benchmarks/kernel_bench.py --json out.json  # machine-readable copy
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from sawt_qap import _kernels as K
from sawt_qap.core import generate_instance
from sawt_qap.solvers import BRUTE_FORCE_MAX_N, default_tenure


def _time(fn, repeats: int) -> float:
    """Median wall time in milliseconds over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def bench_one(n: int, tabu_steps: int, repeats: int, rng: np.random.Generator) -> list[dict]:
    inst = generate_instance(n, p=0.5, seed=int(rng.integers(2**31)))
    flow, distance = inst.flow, inst.distance
    sigma = rng.permutation(n).astype(np.int64)
    i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
    tenure = default_tenure(n)
    greedy_steps = K.greedy(flow, distance, sigma, 10_000)[2]

    # (name, call, steps the call runs, or None for a one-shot kernel)
    cases = [
        ("objective", lambda: K.objective(flow, distance, sigma), None),
        ("swap_delta", lambda: K.swap_delta(flow, distance, sigma, i, j), None),
        ("all_swap_deltas", lambda: K.all_swap_deltas(flow, distance, sigma), None),
        ("greedy", lambda: K.greedy(flow, distance, sigma, 10_000), greedy_steps),
        ("tabu", lambda: K.tabu(flow, distance, sigma, tabu_steps, tenure), tabu_steps),
    ]
    if n <= BRUTE_FORCE_MAX_N:
        cases.append(("brute_force", lambda: K.brute_force(flow, distance), None))

    rows = []
    for name, call, steps in cases:
        call()  # warm-up
        ms = _time(call, repeats)
        us_per_step = ms * 1000.0 / steps if steps else None
        rows.append({"kernel": name, "n": n, "ms": ms, "steps": steps, "us_per_step": us_per_step})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="9,16,50,100",
                        help="comma-separated instance sizes (default: 9,16,50,100)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per kernel; the median is reported")
    parser.add_argument("--tabu-steps", type=int, default=200,
                        help="tabu iterations per timing call (default: 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=str, default=None,
                        help="also write the rows as JSON to this path")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.replace(",", " ").split()]
    rng = np.random.default_rng(args.seed)

    rows = []
    for n in sizes:
        rows.extend(bench_one(n, args.tabu_steps, args.repeats, rng))

    header = f"{'kernel':<16} {'n':>4} {'median (ms)':>12} {'steps':>6} {'us/step':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        line = f"{row['kernel']:<16} {row['n']:>4} {row['ms']:>12.3f}"
        if row["steps"]:
            line += f" {row['steps']:>6} {row['us_per_step']:>9.1f}"
        print(line)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rows": rows}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
