#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Every hot kernel ships in two interchangeable flavors (see
``sawt_qap._kernels``); this script times both on identical inputs, checks
they agree numerically, and prints a speedup table.  Numba compile time is
excluded by a warm-up call per kernel and size.

Usage::

    python benchmarks/kernel_bench.py                  # default sizes
    python benchmarks/kernel_bench.py --sizes 12,30,60 --repeats 7
    python benchmarks/kernel_bench.py --json out.json  # machine-readable copy

The active default backend for the package is selected by the
``SAWT_QAP_NUMBA`` environment variable; this benchmark always exercises
both flavors regardless of the flag.
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


def _check_close(name: str, n: int, a, b, tol: float = 1e-8) -> None:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    err = np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    if err > tol:
        raise AssertionError(f"{name} (n={n}): flavors disagree, rel err {err:.3e}")


def bench_one(n: int, tabu_steps: int, repeats: int, rng: np.random.Generator) -> list[dict]:
    inst = generate_instance(n, p=0.5, seed=int(rng.integers(2**31)))
    flow, distance = inst.flow, inst.distance
    sigma = rng.permutation(n).astype(np.int64)
    i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
    tenure = default_tenure(n)

    cases = [
        ("objective", lambda f: f(flow, distance, sigma),
         K.objective_numba, K.objective_numpy),
        ("swap_delta", lambda f: f(flow, distance, sigma, i, j),
         K.swap_delta_numba, K.swap_delta_numpy),
        ("all_swap_deltas", lambda f: f(flow, distance, sigma),
         K.all_swap_deltas_numba, K.all_swap_deltas_numpy),
        ("greedy", lambda f: f(flow, distance, sigma, 10_000)[1],
         K.greedy_numba, K.greedy_numpy),
        ("tabu", lambda f: f(flow, distance, sigma, tabu_steps, tenure, True)[1],
         K.tabu_numba, K.tabu_numpy),
    ]
    if n <= BRUTE_FORCE_MAX_N:
        cases.append(
            ("brute_force", lambda f: f(flow, distance, np.inf)[1],
             K.brute_force_numba, K.brute_force_numpy)
        )

    rows = []
    for name, call, fn_numba, fn_numpy in cases:
        out_numpy = call(fn_numpy)
        row = {"kernel": name, "n": n, "numpy_ms": _time(lambda: call(fn_numpy), repeats)}
        if fn_numba is not None:
            out_numba = call(fn_numba)  # warm-up; also the agreement sample
            _check_close(name, n, out_numba, out_numpy)
            row["numba_ms"] = _time(lambda: call(fn_numba), repeats)
            row["speedup"] = row["numpy_ms"] / row["numba_ms"] if row["numba_ms"] else float("inf")
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,20,40,80",
                        help="comma-separated instance sizes (default: 10,20,40,80)")
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

    if not K.HAS_NUMBA:
        print("numba is not importable; timing the numpy flavor only", file=sys.stderr)
    print(f"active package backend: {K.ACTIVE_BACKEND}")

    rows = []
    for n in sizes:
        rows.extend(bench_one(n, args.tabu_steps, args.repeats, rng))

    header = f"{'kernel':<16} {'n':>4} {'numpy (ms)':>12} {'numba (ms)':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        numba_ms = f"{row['numba_ms']:12.3f}" if "numba_ms" in row else f"{'—':>12}"
        speedup = f"{row['speedup']:8.1f}x" if "speedup" in row else f"{'—':>9}"
        print(f"{row['kernel']:<16} {row['n']:>4} {row['numpy_ms']:>12.3f} {numba_ms} {speedup}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"backend": K.ACTIVE_BACKEND, "rows": rows}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
