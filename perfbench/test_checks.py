"""The benchmark's output checks reject corrupted rows.

Run from the repository root with ``python3 -m pytest perfbench/test_checks.py``.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

HAD12 = HERE.parent / "src" / "sawt_qap" / "data" / "qaplib" / "had12.dat"


def never(row):
    return False


@pytest.fixture(scope="module")
def n9():
    """A random n=9 instance with its exact optimum."""
    rng = np.random.default_rng(7)
    pts = rng.random((9, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    flow = np.triu(rng.random((9, 9)), 1)
    inst = checks.Instance("n9", flow + flow.T, dist)
    cost, sigma = checks.exact_optimum(inst)
    return inst, cost, sigma


def row_of(inst, sigma, cost=None):
    sigma = np.asarray(sigma)
    cost = checks.objective(inst, sigma) if cost is None else cost
    return {"instance": inst.name, "sigma": sigma.tolist(), "best_cost": cost, "steps": 10}


def swapped(sigma, i=0, j=1):
    sigma = np.array(sigma)
    sigma[[i, j]] = sigma[[j, i]]
    return sigma


def test_correct_rows_pass(n9):
    inst, cost, sigma = n9
    row = row_of(inst, sigma)
    assert checks.check_row(row, inst) == []
    assert checks.check_tabu_row(row, inst, never) == []
    assert checks.check_exact_row(row, inst, tabu_cost=cost, enumerate_all=True) == []
    had12, optimum, opt_sigma = checks.read_qaplib(HAD12)
    assert checks.check_qaplib_row(row_of(had12, opt_sigma), had12, optimum) == []


def test_swapped_sigma_is_rejected(n9):
    inst, cost, sigma = n9
    errors = checks.check_row(row_of(inst, swapped(sigma), cost), inst)
    assert any("sigma costs" in e for e in errors)


def test_non_permutation_is_rejected(n9):
    inst, cost, sigma = n9
    bad = np.array(sigma)
    bad[0] = bad[1]
    assert checks.check_row(row_of(inst, bad, cost), inst)


def test_cost_off_by_one_millionth_is_rejected(n9):
    inst, cost, sigma = n9
    errors = checks.check_row(row_of(inst, sigma, cost * (1 + 1e-6)), inst)
    assert any("sigma costs" in e for e in errors)


def test_cost_above_identity_is_rejected(n9):
    inst, _, _ = n9
    worst = max((swapped(np.arange(9), i, j) for i in range(9) for j in range(i + 1, 9)),
                key=lambda s: checks.objective(inst, s))
    assert checks.objective(inst, worst) > checks.identity_cost(inst)
    errors = checks.check_row(row_of(inst, worst), inst)
    assert any("above the identity" in e for e in errors)


def test_qaplib_cost_below_optimum_is_rejected():
    inst, optimum, sigma = checks.read_qaplib(HAD12)
    errors = checks.check_qaplib_row(row_of(inst, sigma, optimum - 2), inst, optimum)
    assert any("below the proven optimum" in e for e in errors)


def test_exact_optimum_that_one_swap_improves_is_rejected(n9):
    inst, cost, sigma = n9
    row = row_of(inst, swapped(sigma, 3, 5))
    errors = checks.check_exact_row(row, inst, tabu_cost=row["best_cost"], enumerate_all=False)
    assert any("improves the exact optimum" in e for e in errors)
    errors = checks.check_exact_row(row, inst, tabu_cost=cost, enumerate_all=True)
    assert any("tabu found" in e for e in errors)
    assert any("enumeration optimum" in e for e in errors)


def test_tabu_incumbent_with_improving_swap_needs_final_step(n9):
    inst, _, sigma = n9
    row = row_of(inst, swapped(sigma, 3, 5))
    assert any("lowers the tabu incumbent" in e for e in checks.check_tabu_row(row, inst, never))
    assert checks.check_tabu_row(row, inst, lambda r: True) == []


def _checkpoint_bytes(arrays: dict) -> bytes:
    header = json.dumps({"version": 1, "meta": {}, "arrays": [
        {"name": k, "shape": list(v.shape)} for k, v in arrays.items()]}).encode()
    body = b"SAWTCKP1" + struct.pack("<I", len(header)) + header + b"".join(
        np.ascontiguousarray(v, dtype="<f4").tobytes() for v in arrays.values())
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_checkpoint_reader_rejects_corruption(tmp_path):
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "m:w": np.zeros((2, 3))}
    path = tmp_path / "policy.ckpt"
    raw = _checkpoint_bytes(arrays)
    path.write_bytes(raw)
    read = checks.read_checkpoint(path)
    assert np.array_equal(read["w"], arrays["w"])
    path.write_bytes(raw[:-10] + bytes([raw[-10] ^ 1]) + raw[-9:])
    with pytest.raises(ValueError, match="CRC"):
        checks.read_checkpoint(path)


def test_training_checks_reject_bad_outputs():
    initial = {"w": np.zeros(3, dtype=np.float32)}
    trained = {"w": np.ones(3, dtype=np.float32), "m:w": np.zeros(3, dtype=np.float32)}
    good = [{"epoch": 0, "best_cost_mean": 1.5, "eval_cost_mean": 1.6, "loss": 0.1}]
    bounds = (1.0, 2.0)
    assert checks.check_training(good, 1, trained, initial, bounds, bounds) == []
    assert checks.check_training(good, 2, trained, initial, bounds, bounds)
    assert checks.check_training(good, 1, initial, initial, bounds, bounds)
    nan = {"w": np.array([1.0, np.nan, 0.0], dtype=np.float32)}
    assert checks.check_training(good, 1, nan, initial, bounds, bounds)
    below = [dict(good[0], best_cost_mean=0.9)]
    assert checks.check_training(below, 1, trained, initial, bounds, bounds)
    above = [dict(good[0], eval_cost_mean=2.1)]
    assert checks.check_training(above, 1, trained, initial, bounds, bounds)
    infinite = [dict(good[0], loss=float("inf"))]
    assert checks.check_training(infinite, 1, trained, initial, bounds, bounds)
