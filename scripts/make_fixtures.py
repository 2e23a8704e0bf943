#!/usr/bin/env python3
"""Regenerate and exhaustively verify the bundled QAPLIB fixture files.

Maintainer tool, not part of the installed package.  Each fixture below is
written out as a ``.dat`` (flow matrix first, then distance) plus a ``.sln``
(size, objective value, 1-based permutation) under
``src/sawt_qap/data/qaplib/``, but ONLY after this script re-proves the
published optimum by exact search on the exact matrices being shipped:

* ``had12``   – Hadley/Rendl/Wolkowicz test problem.  Published optimum 1652.
* ``chr12c``  – Christofides/Benavent tree-flow problem; matrices as embedded
                in scipy's test suite.  Published optimum 11156.
* ``esc16f``  – Eschermann/Wunderlich state-encoding problem whose flow
                matrix is identically zero, hence optimum 0 for every
                permutation (distances: 4-bit Hamming metric).

The exact search is the branch and bound of ``sawt_qap._kernels.brute_force``,
primed with a multi-start tabu upper bound and run on the instance with its
facilities relabeled heaviest total flow first (the result is mapped back).
A fixture is written only if the proven optimum matches the published value
exactly, so shipping implies verification.

Deliberately NOT shipped: ``nug12`` and ``chr12a``.  A reconstruction of
nug12 proved to optimum 574 instead of the published 578 (at least one flow
entry is wrong, and a single-entry repair search was 23-way ambiguous — any
pick would be fitting data to the answer), and no authentic copy of either
instance exists offline.  Tests that require those exact files fail with a
pointer to ``data/qaplib/README.md``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from sawt_qap import QapInstance, qaplib
from sawt_qap import _kernels as kernels

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "sawt_qap" / "data" / "qaplib"

# --- had12 ------------------------------------------------------------------
HAD12_DIST = np.array(
    [
        [0, 1, 2, 2, 3, 4, 4, 5, 3, 5, 6, 7],
        [1, 0, 1, 1, 2, 3, 3, 4, 2, 4, 5, 6],
        [2, 1, 0, 2, 1, 2, 2, 3, 1, 3, 4, 5],
        [2, 1, 2, 0, 1, 2, 2, 3, 3, 3, 4, 5],
        [3, 2, 1, 1, 0, 1, 1, 2, 2, 2, 3, 4],
        [4, 3, 2, 2, 1, 0, 2, 3, 3, 1, 2, 3],
        [4, 3, 2, 2, 1, 2, 0, 1, 3, 1, 2, 3],
        [5, 4, 3, 3, 2, 3, 1, 0, 4, 2, 1, 2],
        [3, 2, 1, 3, 2, 3, 3, 4, 0, 4, 5, 6],
        [5, 4, 3, 3, 2, 1, 1, 2, 4, 0, 1, 2],
        [6, 5, 4, 4, 3, 2, 2, 1, 5, 1, 0, 1],
        [7, 6, 5, 5, 4, 3, 3, 2, 6, 2, 1, 0],
    ],
    dtype=np.float64,
)
HAD12_FLOW = np.array(
    [
        [0, 3, 4, 6, 8, 5, 6, 6, 5, 1, 4, 6],
        [3, 0, 6, 3, 7, 9, 9, 2, 2, 7, 4, 7],
        [4, 6, 0, 2, 6, 4, 4, 4, 2, 6, 3, 6],
        [6, 3, 2, 0, 5, 5, 3, 3, 9, 4, 3, 6],
        [8, 7, 6, 5, 0, 4, 3, 4, 5, 7, 6, 7],
        [5, 9, 4, 5, 4, 0, 8, 5, 5, 5, 7, 5],
        [6, 9, 4, 3, 3, 8, 0, 6, 8, 4, 6, 7],
        [6, 2, 4, 3, 4, 5, 6, 0, 1, 5, 5, 3],
        [5, 2, 2, 9, 5, 5, 8, 1, 0, 4, 5, 2],
        [1, 7, 6, 4, 7, 5, 4, 5, 4, 0, 7, 7],
        [4, 4, 3, 3, 6, 7, 6, 5, 5, 7, 0, 9],
        [6, 7, 6, 6, 7, 5, 7, 3, 2, 7, 9, 0],
    ],
    dtype=np.float64,
)

# --- chr12c (matrices as in scipy.optimize's test suite) --------------------
CHR12C_FLOW = np.array(
    [
        [0, 90, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [90, 0, 0, 23, 0, 0, 0, 0, 0, 0, 0, 0],
        [10, 0, 0, 0, 43, 0, 0, 0, 0, 0, 0, 0],
        [0, 23, 0, 0, 0, 88, 0, 0, 0, 0, 0, 0],
        [0, 0, 43, 0, 0, 0, 26, 0, 0, 0, 0, 0],
        [0, 0, 0, 88, 0, 0, 0, 16, 0, 0, 0, 0],
        [0, 0, 0, 0, 26, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 16, 0, 0, 0, 96, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 29, 0],
        [0, 0, 0, 0, 0, 0, 0, 96, 0, 0, 0, 37],
        [0, 0, 0, 0, 0, 0, 0, 0, 29, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 37, 0, 0],
    ],
    dtype=np.float64,
)
CHR12C_DIST = np.array(
    [
        [0, 36, 54, 26, 59, 72, 9, 34, 79, 17, 46, 95],
        [36, 0, 73, 35, 90, 58, 30, 78, 35, 44, 79, 36],
        [54, 73, 0, 21, 10, 97, 58, 66, 69, 61, 54, 63],
        [26, 35, 21, 0, 93, 12, 46, 40, 37, 48, 68, 85],
        [59, 90, 10, 93, 0, 64, 5, 29, 76, 16, 5, 76],
        [72, 58, 97, 12, 64, 0, 96, 55, 38, 54, 0, 34],
        [9, 30, 58, 46, 5, 96, 0, 83, 35, 11, 56, 37],
        [34, 78, 66, 40, 29, 55, 83, 0, 44, 12, 15, 80],
        [79, 35, 69, 37, 76, 38, 35, 44, 0, 64, 39, 33],
        [17, 44, 61, 48, 16, 54, 11, 12, 64, 0, 70, 86],
        [46, 79, 54, 68, 5, 0, 56, 15, 39, 70, 0, 18],
        [95, 36, 63, 85, 76, 34, 37, 80, 33, 86, 18, 0],
    ],
    dtype=np.float64,
)
# Published optimal assignment for chr12c (0-based), objective 11156.
CHR12C_PERM = np.array([7, 5, 1, 3, 10, 4, 8, 6, 9, 11, 2, 12], dtype=np.int64) - 1

# --- esc16f ------------------------------------------------------------------
ESC16F_FLOW = np.zeros((16, 16))
ESC16F_DIST = np.array(
    [[bin(i ^ j).count("1") for j in range(16)] for i in range(16)], dtype=np.float64
)


def exact_optimum(flow: np.ndarray, distance: np.ndarray) -> tuple[np.ndarray, float]:
    """Prove the global optimum by branch and bound (tabu-primed, flow-sorted)."""
    n = flow.shape[0]
    rng = np.random.default_rng(0)
    bound = np.inf
    for _ in range(8):
        start = rng.permutation(n).astype(np.int64)
        _, cost, _, _, _ = kernels.tabu(flow, distance, start, 2000, 7)
        bound = min(bound, cost)
    # The relabel decides which tied optimum ships: exact search returns the
    # lexicographically smallest optimum of the relabeled instance, and had12
    # has more than one.  Dropping it changes had12.sln to another optimum.
    order = np.argsort(-(flow.sum(0) + flow.sum(1)), kind="stable").astype(np.int64)
    flow_r = np.ascontiguousarray(flow[np.ix_(order, order)])
    # The optimum is <= bound < bound + 0.5 (integer-valued costs), so the
    # search always recovers an argmin even when tabu already found the optimum.
    perm_r, cost, _ = kernels.brute_force(flow_r, distance, bound + 0.5)
    sigma = np.empty(n, dtype=np.int64)
    sigma[order] = perm_r
    check = kernels.objective(flow, distance, sigma)
    assert check == cost, (check, cost)
    return sigma, float(cost)


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    fixtures = [
        ("had12", HAD12_FLOW, HAD12_DIST, 1652),
        ("chr12c", CHR12C_FLOW, CHR12C_DIST, 11156),
        ("esc16f", ESC16F_FLOW, ESC16F_DIST, 0),
    ]
    ok = True
    for name, flow, distance, published in fixtures:
        t0 = time.time()
        if name == "esc16f":
            # All-zero flow: objective is 0 for every permutation; nothing to
            # search (and n=16 is beyond exact search anyway).
            sigma, cost = np.arange(16, dtype=np.int64), 0.0
        else:
            sigma, cost = exact_optimum(flow, distance)
        dt = time.time() - t0
        status = "OK" if cost == published else "MISMATCH"
        print(f"{name}: proven optimum {cost:.0f} (published {published}) "
              f"[{status}] in {dt:.1f}s  sigma={sigma.tolist()}")
        if name == "chr12c":
            ref = kernels.objective(flow, distance, CHR12C_PERM)
            print(f"  chr12c published permutation re-check: {ref:.0f}")
        if cost != published:
            ok = False
            print(f"  !! refusing to write {name} fixtures")
            continue
        inst = QapInstance(name=name, flow=flow, distance=distance)
        (OUT_DIR / f"{name}.dat").write_text(qaplib.format_qaplib(inst))
        (OUT_DIR / f"{name}.sln").write_text(qaplib.format_solution(cost, sigma))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
