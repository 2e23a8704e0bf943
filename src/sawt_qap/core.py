"""Core QAP types and operations.

A problem instance is a pair of square non-negative matrices ``flow`` and
``distance``; a solution assigns facility ``i`` to location ``sigma[i]`` and
costs ``sum_{i,j} flow[i, j] * distance[sigma[i], sigma[j]]`` (equivalently
``trace(F @ X @ D @ X.T)`` for the permutation matrix ``X`` of ``sigma``).

Hot paths (objective, swap deltas) run on the vectorized numpy kernels in
:mod:`sawt_qap._kernels`.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError

__all__ = [
    "QapInstance",
    "Assignment",
    "objective",
    "objective_trace",
    "permutation_matrix",
    "solution_aware_matrix",
    "objective_gradient",
    "swap_delta",
    "all_swap_deltas",
    "apply_swap",
    "generate_instance",
    "random_assignment",
    "identity_assignment",
    "is_permutation",
    "gap",
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "make_rng",
]

_COORD_TOL = 1e-9

JSON_SCHEMA_VERSION = 1


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return the toolkit's RNG: a PCG64 ``numpy.random.Generator``.

    Every stochastic routine in the package draws from a generator created
    here (or passed in by the caller), so a single integer seed pins the
    whole pipeline.  The algorithm (PCG64) and each routine's sampling order
    are part of the reproducibility contract.
    """
    return np.random.Generator(np.random.PCG64(seed))


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def check_field_types(config) -> None:
    """Raise :class:`ValidationError` naming a dataclass field of the wrong type.

    ``int`` fields take integers and ``float`` fields integers or floats;
    neither takes a bool.  Config dataclasses call this before range checks.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, _FIELD_TYPES[f.type]) or (
            isinstance(value, bool) and f.type != "bool"
        ):
            raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")


def _as_square_f64(arr, label: str) -> np.ndarray:
    mat = np.asarray(arr, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{label} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{label} contains non-finite entries")
    if np.any(mat < 0):
        raise ValidationError(f"{label} contains negative entries")
    return mat


@dataclass(frozen=True, eq=False)
class QapInstance:
    """A QAP instance: flow between facilities, distance between locations.

    Attributes:
        name: Human-readable identifier (used in reports and file names).
        flow: (n, n) non-negative float64 matrix; ``flow[i, j]`` is the flow
            from facility ``i`` to facility ``j``.
        distance: (n, n) non-negative float64 matrix between locations.
        coords: Optional (n, 2) location coordinates.  When present they must
            reproduce ``distance`` as pairwise Euclidean distances to 1e-9.
        seed: Seed used by :func:`generate_instance`, if this instance was
            generated (kept for provenance/serialization).
        p: Sparsification probability used at generation time, if any.
    """

    name: str
    flow: np.ndarray
    distance: np.ndarray
    coords: np.ndarray | None = None
    seed: int | None = None
    p: float | None = None

    def __post_init__(self):
        flow = _as_square_f64(self.flow, "flow")
        distance = _as_square_f64(self.distance, "distance")
        if flow.shape != distance.shape:
            raise ValidationError(
                f"flow {flow.shape} and distance {distance.shape} disagree on n"
            )
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "distance", distance)
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=np.float64)
            if coords.shape != (flow.shape[0], 2):
                raise ValidationError(
                    f"coords must have shape ({flow.shape[0]}, 2), got {coords.shape}"
                )
            diff = coords[:, None, :] - coords[None, :, :]
            euclid = np.sqrt((diff**2).sum(axis=2))
            err = np.max(np.abs(euclid - distance)) if flow.shape[0] else 0.0
            if err > _COORD_TOL:
                raise ValidationError(
                    f"coords do not reproduce distance (max abs error {err:.3e})"
                )
            object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.flow.shape[0]

    def __repr__(self) -> str:  # ndarrays make the default repr unreadable
        return f"QapInstance(name={self.name!r}, n={self.n})"


def is_permutation(sigma: np.ndarray, n: int | None = None) -> bool:
    """True iff ``sigma`` is a permutation of ``0..len(sigma)-1`` (of size n)."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 1 or (n is not None and sigma.shape[0] != n):
        return False
    if sigma.shape[0] == 0:
        return n in (None, 0)
    if not np.issubdtype(sigma.dtype, np.integer):
        return False
    seen = np.zeros(sigma.shape[0], dtype=bool)
    for v in sigma:
        if v < 0 or v >= sigma.shape[0] or seen[v]:
            return False
        seen[v] = True
    return True


def _check_sigma(sigma, n: int) -> np.ndarray:
    arr = np.asarray(sigma, dtype=np.int64)
    if not is_permutation(arr, n):
        raise ValidationError(f"sigma is not a permutation of 0..{n - 1}: {arr}")
    return arr


@dataclass(frozen=True, eq=False)
class Assignment:
    """A permutation together with its cached objective value.

    The cache is maintained incrementally by :func:`apply_swap`; the
    invariant ``cost == objective(inst, sigma)`` (to fp accumulation error)
    is what makes O(n) local-search steps possible.
    """

    sigma: np.ndarray
    cost: float

    def __post_init__(self):
        arr = np.asarray(self.sigma, dtype=np.int64)
        if not is_permutation(arr):
            raise ValidationError(f"sigma is not a permutation: {arr}")
        object.__setattr__(self, "sigma", arr)
        object.__setattr__(self, "cost", float(self.cost))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def copy(self) -> "Assignment":
        return Assignment(self.sigma.copy(), self.cost)

    def __repr__(self) -> str:
        return f"Assignment(cost={self.cost:g}, sigma={self.sigma.tolist()})"


def _sigma_of(sol) -> np.ndarray:
    return sol.sigma if isinstance(sol, Assignment) else np.asarray(sol, dtype=np.int64)


def objective(inst: QapInstance, sigma) -> float:
    """Objective ``sum_{i,j} F[i, j] * D[sigma[i], sigma[j]]``.

    Args:
        inst: Problem instance.
        sigma: Permutation vector or :class:`Assignment`.
    """
    arr = _check_sigma(_sigma_of(sigma), inst.n)
    return float(_kernels.objective(inst.flow, inst.distance, arr))


def permutation_matrix(sigma) -> np.ndarray:
    """(n, n) 0/1 matrix ``X`` with ``X[i, sigma[i]] = 1``."""
    arr = np.asarray(sigma, dtype=np.int64)
    n = arr.shape[0]
    x = np.zeros((n, n), dtype=np.float64)
    x[np.arange(n), arr] = 1.0
    return x


def objective_trace(inst: QapInstance, sigma) -> float:
    """Objective in trace form, ``trace(F @ X @ D @ X.T)``.

    Pairs ``F[i, j]`` with ``D[sigma(j), sigma(i)]``, so it equals
    :func:`objective` whenever ``F`` or ``D`` is symmetric — true for every
    generated instance and benchmark fixture.  Kept as a separate code path
    (explicit permutation-matrix products) so the two formulations can be
    checked against each other.
    """
    arr = _check_sigma(_sigma_of(sigma), inst.n)
    x = permutation_matrix(arr)
    return float(np.trace(inst.flow @ x @ inst.distance @ x.T))


def solution_aware_matrix(inst: QapInstance, sigma) -> np.ndarray:
    """Solution-aware matrix ``M[i, j] = F[i, j] * D[sigma[i], sigma[j]]``.

    Per-pair cost contributions of the current assignment; its total equals
    the objective, and it is what the policy's attention is modulated by.
    """
    arr = _check_sigma(_sigma_of(sigma), inst.n)
    return inst.flow * inst.distance[np.ix_(arr, arr)]


def objective_gradient(inst: QapInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of ``trace(F @ X @ D @ X.T)`` with respect to the matrix X.

    ``grad = F.T @ X @ D.T + F @ X @ D``; for symmetric F and D this reduces
    to ``2 * F @ X @ D``.  ``x`` is any real (n, n) matrix (the objective is
    defined on relaxations, not just permutation matrices).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n, inst.n):
        raise ValidationError(f"x must have shape ({inst.n}, {inst.n}), got {x.shape}")
    f, d = inst.flow, inst.distance
    return f.T @ x @ d.T + f @ x @ d


def swap_delta(inst: QapInstance, sol, i: int, j: int) -> float:
    """Exact objective change of swapping the locations of facilities i, j.

    O(n) incremental form valid for asymmetric ``flow``/``distance``.

    Raises:
        ValidationError: If ``i == j`` or an index is out of range.
    """
    n = inst.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"swap indices ({i}, {j}) out of range for n={n}")
    if i == j:
        raise ValidationError("swap requires two distinct facilities")
    arr = _sigma_of(sol)
    return float(_kernels.swap_delta(inst.flow, inst.distance, arr, i, j))


def all_swap_deltas(inst: QapInstance, sol) -> np.ndarray:
    """Symmetric (n, n) matrix of swap deltas for every facility pair."""
    arr = _sigma_of(sol)
    return np.asarray(_kernels.all_swap_deltas(inst.flow, inst.distance, arr))


def apply_swap(inst: QapInstance, sol: Assignment, i: int, j: int) -> Assignment:
    """Return the assignment after swapping i and j, cost updated in O(n)."""
    delta = swap_delta(inst, sol, i, j)
    sigma = sol.sigma.copy()
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return Assignment(sigma, sol.cost + delta)


def identity_assignment(inst: QapInstance) -> Assignment:
    """Assignment placing facility i at location i."""
    sigma = np.arange(inst.n, dtype=np.int64)
    return Assignment(sigma, objective(inst, sigma))


def random_assignment(inst: QapInstance, rng: np.random.Generator) -> Assignment:
    """Uniformly random assignment drawn from ``rng``."""
    sigma = rng.permutation(inst.n).astype(np.int64)
    return Assignment(sigma, objective(inst, sigma))


def generate_instance(
    n: int,
    p: float = 0.7,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> QapInstance:
    """Generate a random Euclidean/sparse-flow instance.

    Construction (sampling order is part of the determinism contract):

    1. ``coords``: n points uniform on the unit square, drawn as one
       ``rng.random((n, 2))`` call; ``distance`` is their pairwise Euclidean
       matrix (zero diagonal by construction).
    2. ``flow``: one ``rng.random((n, n))`` call; the strict upper triangle
       is mirrored to make the matrix symmetric and the diagonal is zeroed.
    3. Sparsity: one ``rng.random((n, n))`` call; each strict-upper pair
       (and its mirror) is zeroed where the draw is below ``p``.

    Args:
        n: Instance size (>= 2).
        p: Probability of zeroing each off-diagonal flow pair (in [0, 1]).
        seed: Seed for a fresh PCG64 generator (ignored if ``rng`` given).
        rng: Generator to draw from; mutually exclusive with ``seed``.
        name: Optional instance name; defaults to ``rand<n>-s<seed>``.

    Returns:
        A validated :class:`QapInstance` with coords attached.
    """
    if n < 2:
        raise ValidationError(f"instance size must be >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"sparsity p must be in [0, 1], got {p}")
    if rng is not None and seed is not None:
        raise ValidationError("pass either seed or rng, not both")
    if rng is None:
        rng = make_rng(seed)

    coords = rng.random((n, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    distance = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(distance, 0.0)  # exact zeros, no sqrt round-off

    draw = rng.random((n, n))
    flow = np.triu(draw, k=1)
    flow = flow + flow.T

    mask_draw = rng.random((n, n))
    zero_upper = np.triu(mask_draw < p, k=1)
    keep = ~(zero_upper | zero_upper.T)
    flow = np.where(keep, flow, 0.0)
    np.fill_diagonal(flow, 0.0)

    if name is None:
        name = f"rand{n}-s{seed}" if seed is not None else f"rand{n}"
    return QapInstance(
        name=name, flow=flow, distance=distance, coords=coords, seed=seed, p=p
    )


def gap(cost: float, reference: float) -> float:
    """Percentage gap ``100 * (cost - reference) / reference``.

    Raises:
        ValidationError: If ``reference <= 0`` (use absolute cost reporting
            for zero-bound instances instead).
    """
    if reference <= 0:
        raise ValidationError(f"gap undefined for non-positive reference {reference}")
    return 100.0 * (cost - reference) / reference


# ---------------------------------------------------------------------------
# JSON serialization (schema: name, n, flow/distance row-major, coords?, ...)
# ---------------------------------------------------------------------------


def instance_to_dict(inst: QapInstance) -> dict:
    """Plain-dict form of an instance (row-major matrix lists)."""
    out = {
        "schema_version": JSON_SCHEMA_VERSION,
        "name": inst.name,
        "n": inst.n,
        "flow": [float(v) for v in inst.flow.ravel()],
        "distance": [float(v) for v in inst.distance.ravel()],
    }
    if inst.coords is not None:
        out["coords"] = [[float(a), float(b)] for a, b in inst.coords]
    if inst.seed is not None:
        out["seed"] = int(inst.seed)
    if inst.p is not None:
        out["p"] = float(inst.p)
    return out


def instance_from_dict(data: dict) -> QapInstance:
    """Inverse of :func:`instance_to_dict` (validates shapes and content)."""
    try:
        n = int(data["n"])
        name = str(data.get("name", f"unnamed{n}"))
        flow = np.asarray(data["flow"], dtype=np.float64)
        distance = np.asarray(data["distance"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance dict: {exc}") from exc
    if flow.size != n * n or distance.size != n * n:
        raise ValidationError(
            f"matrix lengths {flow.size}/{distance.size} do not match n*n={n * n}"
        )
    coords = data.get("coords")
    if coords is not None:
        coords = np.asarray(coords, dtype=np.float64)
    return QapInstance(
        name=name,
        flow=flow.reshape(n, n),
        distance=distance.reshape(n, n),
        coords=coords,
        seed=data.get("seed"),
        p=data.get("p"),
    )


def instance_to_json(inst: QapInstance) -> str:
    """JSON text for an instance; floats use shortest round-trip repr."""
    return json.dumps(instance_to_dict(inst), indent=None, separators=(",", ":"))


def instance_from_json(text: str) -> QapInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid instance JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("instance JSON must be an object")
    return instance_from_dict(data)
