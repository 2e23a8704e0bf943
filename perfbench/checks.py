"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``sawt_qap``: instances, QAPLIB solutions and policy
checkpoints are read with this module's own readers, and every cost is this
module's own objective ``sum_ij F[i, j] * D[sigma[i], sigma[j]]``.  Each
check returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
_CHUNK = 8192


@dataclass
class Instance:
    name: str
    flow: np.ndarray
    distance: np.ndarray

    @property
    def n(self) -> int:
        return self.flow.shape[0]


def read_json_instance(path: Path) -> Instance:
    """An instance file as written by ``sawt-qap generate``."""
    data = json.loads(Path(path).read_text())
    n = int(data["n"])
    flow = np.asarray(data["flow"], dtype=np.float64).reshape(n, n)
    distance = np.asarray(data["distance"], dtype=np.float64).reshape(n, n)
    return Instance(str(data["name"]), flow, distance)


def read_qaplib(dat: Path) -> tuple[Instance, float, np.ndarray]:
    """A QAPLIB ``.dat`` (n, flow, distance) with its ``.sln`` optimum.

    Returns ``(instance, optimum, optimal_sigma)``; the ``.sln``
    permutation's cost must equal its stated value, which also confirms that
    the first matrix is read as the flow.
    """
    dat = Path(dat)
    tokens = dat.read_text().split()
    n = int(tokens[0])
    values = np.asarray([float(t) for t in tokens[1 : 1 + 2 * n * n]], dtype=np.float64)
    inst = Instance(dat.stem, values[: n * n].reshape(n, n), values[n * n :].reshape(n, n))
    sln = dat.with_suffix(".sln").read_text().split()
    optimum = float(sln[1])
    sigma = np.asarray([int(t) - 1 for t in sln[2 : 2 + n]], dtype=np.int64)
    if not close(objective(inst, sigma), optimum):
        raise ValueError(f"{dat.name}: .sln permutation does not cost {optimum}")
    return inst, optimum, sigma


def objective(inst: Instance, sigma) -> float:
    sigma = np.asarray(sigma, dtype=np.int64)
    return math.fsum((inst.flow * inst.distance[np.ix_(sigma, sigma)]).ravel())


def identity_cost(inst: Instance) -> float:
    return objective(inst, np.arange(inst.n))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _batch_costs(inst: Instance, perms: np.ndarray) -> np.ndarray:
    gathered = inst.distance[perms[:, :, None], perms[:, None, :]]
    return np.einsum("ij,kij->k", inst.flow, gathered)


def best_swap_neighbour(inst: Instance, sigma) -> tuple[float, tuple[int, int]]:
    """Lowest cost among all 2-swap neighbours of ``sigma`` and its pair."""
    sigma = np.asarray(sigma, dtype=np.int64)
    pairs = np.array(list(itertools.combinations(range(inst.n), 2)), dtype=np.int64)
    best, best_pair = math.inf, (-1, -1)
    for lo in range(0, len(pairs), 256):
        chunk = pairs[lo : lo + 256]
        perms = np.repeat(sigma[None, :], len(chunk), axis=0)
        rows = np.arange(len(chunk))
        perms[rows, chunk[:, 0]] = sigma[chunk[:, 1]]
        perms[rows, chunk[:, 1]] = sigma[chunk[:, 0]]
        costs = _batch_costs(inst, perms)
        k = int(np.argmin(costs))
        if costs[k] < best:
            best, best_pair = float(costs[k]), tuple(int(v) for v in chunk[k])
    return best, best_pair


def exact_optimum(inst: Instance) -> tuple[float, np.ndarray]:
    """Minimum cost over all n! permutations (plain enumeration) and its
    first minimiser in lexicographic order."""
    perms = itertools.permutations(range(inst.n))
    best, best_sigma = math.inf, None
    while True:
        block = np.array(list(itertools.islice(perms, _CHUNK)), dtype=np.int64)
        if block.size == 0:
            return best, best_sigma
        costs = _batch_costs(inst, block)
        k = int(np.argmin(costs))
        if costs[k] < best:
            best, best_sigma = float(costs[k]), block[k]


def _improves(lower: float, upper: float) -> bool:
    """Whether ``lower`` beats ``upper`` by more than the tolerance."""
    return lower < upper and not close(lower, upper)


def check_row(row: dict, inst: Instance) -> list[str]:
    """Checks every result row must pass: a permutation whose cost is reported
    exactly, and no worse than the identity start."""
    name = row["instance"]
    sigma = np.asarray(row["sigma"], dtype=np.int64)
    if sigma.shape != (inst.n,) or not np.array_equal(np.sort(sigma), np.arange(inst.n)):
        return [f"{name}: sigma is not a permutation of 0..{inst.n - 1}"]
    errors = []
    cost = objective(inst, sigma)
    if not close(cost, float(row["best_cost"])):
        errors.append(f"{name}: best_cost {row['best_cost']!r} but sigma costs {cost!r}")
    if _improves(identity_cost(inst), cost):
        errors.append(f"{name}: best_cost {cost!r} is above the identity cost")
    return errors


def check_tabu_row(row: dict, inst: Instance, set_on_final_step) -> list[str]:
    """A tabu incumbent has no improving swap unless it was set on the last
    step; ``set_on_final_step(row)`` confirms that case."""
    errors = check_row(row, inst)
    if errors:
        return errors
    neighbour, pair = best_swap_neighbour(inst, row["sigma"])
    if _improves(neighbour, float(row["best_cost"])) and not set_on_final_step(row):
        errors.append(
            f"{row['instance']}: swap {pair} lowers the tabu incumbent to {neighbour!r}"
        )
    return errors


def check_exact_row(row: dict, inst: Instance, tabu_cost: float,
                    enumerate_all: bool) -> list[str]:
    """An exact optimum is no worse than any swap neighbour or the tabu cost,
    and (when ``enumerate_all``) equals the full enumeration's minimum."""
    errors = check_row(row, inst)
    if errors:
        return errors
    cost = float(row["best_cost"])
    neighbour, pair = best_swap_neighbour(inst, row["sigma"])
    if _improves(neighbour, cost):
        errors.append(f"{row['instance']}: swap {pair} improves the exact optimum to {neighbour!r}")
    if _improves(tabu_cost, cost):
        errors.append(f"{row['instance']}: tabu found {tabu_cost!r} below the exact {cost!r}")
    if enumerate_all:
        best, _ = exact_optimum(inst)
        if not close(best, cost):
            errors.append(f"{row['instance']}: enumeration optimum {best!r} != {cost!r}")
    return errors


def check_qaplib_row(row: dict, inst: Instance, optimum: float) -> list[str]:
    errors = check_row(row, inst)
    if _improves(float(row["best_cost"]), optimum):
        errors.append(f"{row['instance']}: best_cost {row['best_cost']!r} is below the proven optimum {optimum!r}")
    return errors


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """Arrays of a policy checkpoint (magic, header, float32 payload, CRC32)."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"SAWTCKP1":
        raise ValueError(f"{path}: bad magic")
    body, crc = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ValueError(f"{path}: CRC mismatch")
    (header_len,) = struct.unpack_from("<I", body, 8)
    header = json.loads(body[12 : 12 + header_len])
    arrays, offset = {}, 12 + header_len
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arrays[entry["name"]] = np.frombuffer(body, "<f4", count, offset).reshape(shape)
        offset += 4 * count
    if offset != len(body):
        raise ValueError(f"{path}: payload length mismatch")
    return arrays


def check_training(metrics_rows: list[dict], epochs: int, trained: dict, initial: dict,
                   train_bounds: tuple[float, float],
                   eval_bounds: tuple[float, float]) -> list[str]:
    """Training outputs: one finite metrics row per epoch, a finite checkpoint
    that moved away from the seed-initialised policy, and mean costs between
    the mean exact optimum and the mean identity cost (``*_bounds``)."""
    errors = []
    if [r.get("epoch") for r in metrics_rows] != list(range(epochs)):
        errors.append(f"metrics.jsonl epochs {[r.get('epoch') for r in metrics_rows]}, expected 0..{epochs - 1}")
    for row in metrics_rows:
        bad = [k for k, v in row.items() if not math.isfinite(float(v))]
        if bad:
            errors.append(f"epoch {row.get('epoch')}: non-finite {bad}")
        lo, hi = train_bounds
        if not lo - REL_TOL * abs(lo) <= row["best_cost_mean"] <= hi + REL_TOL * abs(hi):
            errors.append(f"epoch {row.get('epoch')}: best_cost_mean {row['best_cost_mean']!r} outside [{lo!r}, {hi!r}]")
    if metrics_rows:
        lo, hi = eval_bounds
        last = metrics_rows[-1].get("eval_cost_mean")
        if last is None or not lo - REL_TOL * abs(lo) <= last <= hi + REL_TOL * abs(hi):
            errors.append(f"final eval_cost_mean {last!r} outside [{lo!r}, {hi!r}]")
    params = [k for k in initial if ":" not in k]
    if sorted(params) != sorted(k for k in trained if ":" not in k):
        errors.append("trained checkpoint holds different parameters from the initial one")
    elif not all(np.isfinite(trained[k]).all() for k in trained):
        errors.append("trained checkpoint holds non-finite values")
    elif all(np.array_equal(trained[k], initial[k]) for k in params):
        errors.append("trained parameters equal the seed-initialised policy")
    return errors
