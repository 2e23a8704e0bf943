"""Classical QAP solvers: exact search, 2-swap descent, tabu, spectral.

All solvers are deterministic given their inputs (and config seeds); ties in
move selection are broken lexicographically by facility pair.  The step loops
run on the kernels in :mod:`sawt_qap._kernels`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _kernels
from .core import (
    Assignment,
    QapInstance,
    identity_assignment,
    objective,
    random_assignment,
)
from .errors import SizeLimitError, ValidationError

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "ASSOCIATION_MAX_N",
    "TabuConfig",
    "SpectralResult",
    "brute_force",
    "greedy_descent",
    "tabu_search",
    "tabu_multistart",
    "default_tenure",
    "association_graph",
    "power_iteration",
    "hungarian_projection",
    "spectral_matching",
]

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_N = 10
ASSOCIATION_MAX_N = 32


def brute_force(inst: QapInstance) -> Assignment:
    """Exact optimum by branch and bound.

    The kernel is a depth-first, block-vectorized branch and bound: a short
    tabu run sets the first upper bound, facilities are placed heaviest total
    flow first, and a partial assignment is pruned when its cost plus each
    unplaced facility's cheapest free location (counting its interactions
    with the placed facilities) exceeds the incumbent.  The bound is
    admissible because instances have non-negative entries.

    Ties are broken toward the lexicographically smallest permutation.  The
    search keeps every leaf within a relative 1e-9 of the incumbent and
    compares their costs, each from one batched ``einsum``, exactly, so the
    winner does not depend on the order the search met the leaves in.

    Raises:
        SizeLimitError: If ``inst.n > 10`` (factorial blow-up guard).
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}, got n={inst.n}"
        )
    perm, cost, _ = _kernels.brute_force(inst.flow, inst.distance, np.inf)
    return Assignment(perm, cost)


def greedy_descent(
    inst: QapInstance, start: Assignment | None = None, max_steps: int = 10_000
) -> Assignment:
    """Best-improvement 2-swap descent to a local optimum.

    Each step scans all n(n-1)/2 swap deltas and applies the most improving
    one (strictly negative; lexicographic tie-break), stopping when no swap
    improves or the step budget runs out.

    Args:
        inst: Problem instance.
        start: Starting assignment (identity when omitted).
        max_steps: Upper bound on applied swaps (>= 0).
    """
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if start is None:
        start = identity_assignment(inst)
    sigma, cost, _steps = _kernels.greedy(
        inst.flow, inst.distance, start.sigma, max_steps
    )
    return Assignment(sigma, cost)


def default_tenure(n: int) -> int:
    """Default tabu tenure ``max(7, n // 4)``."""
    return max(7, n // 4)


@dataclass(frozen=True)
class TabuConfig:
    """Tabu search parameters.

    Attributes:
        max_steps: Number of moves to apply (every step applies one swap).
        tenure: Steps a just-applied pair stays tabu; ``None`` resolves to
            :func:`default_tenure` for the instance at hand.
        aspiration: Admit a tabu move when it would beat the global best.
        rng_seed: Seed for derived randomness (the core loop is
            deterministic and consumes none; restarts draw their starting
            permutations from this seed).
    """

    max_steps: int = 5000
    tenure: int | None = None
    aspiration: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValidationError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.tenure is not None and self.tenure < 0:
            raise ValidationError(f"tenure must be >= 0, got {self.tenure}")


def tabu_search(
    inst: QapInstance,
    start: Assignment | None = None,
    config: TabuConfig | None = None,
    return_history: bool = False,
):
    """Tabu search over the 2-swap neighborhood; returns the best found.

    Every step applies the best admissible swap — admissible meaning the
    pair is not tabu, or (with aspiration) the move would beat the global
    best.  Applied pairs become tabu for ``tenure`` steps.  If every move is
    tabu and none aspirates, the best tabu move is applied so the search
    keeps moving.  Deterministic; ties break lexicographically.

    Args:
        inst: Problem instance.
        start: Starting assignment (identity when omitted).
        config: :class:`TabuConfig` (defaults used when omitted).
        return_history: Also return the best-so-far cost after each step.

    Returns:
        The best :class:`Assignment` seen, or ``(assignment, history)``.
    """
    cfg = config or TabuConfig()
    if start is None:
        start = identity_assignment(inst)
    tenure = cfg.tenure if cfg.tenure is not None else default_tenure(inst.n)
    best_sigma, best_cost, _cur, _cur_cost, history = _kernels.tabu(
        inst.flow, inst.distance, start.sigma, cfg.max_steps, tenure, cfg.aspiration
    )
    best = Assignment(best_sigma, best_cost)
    if start.cost <= best_cost:  # max_steps == 0 or the start was never beaten
        best = start.copy()
    if return_history:
        return best, np.asarray(history)
    return best


def tabu_multistart(
    inst: QapInstance, restarts: int = 10, config: TabuConfig | None = None
) -> Assignment:
    """Best of ``restarts`` tabu runs from seeded random starts.

    Start permutations are drawn from a PCG64 generator seeded with
    ``config.rng_seed``, so the whole procedure is reproducible.
    """
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    cfg = config or TabuConfig()
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    best: Assignment | None = None
    for _ in range(restarts):
        start = random_assignment(inst, rng)
        cand = tabu_search(inst, start=start, config=cfg)
        if best is None or cand.cost < best.cost:
            best = cand
    return best


# ---------------------------------------------------------------------------
# Spectral matching on the association graph.
# ---------------------------------------------------------------------------


def association_graph(inst: QapInstance) -> np.ndarray:
    """Association (compatibility) matrix ``K = kron(F, D)``.

    Row-major pair indexing: entry ``[(i * n + a), (j * n + b)]`` equals
    ``F[i, j] * D[a, b]``, so for a permutation matrix ``X``,
    ``vec(X) @ K @ vec(X)`` is the assignment objective.

    Raises:
        SizeLimitError: If ``inst.n > 32`` (K is n^2 x n^2 dense).
    """
    if inst.n > ASSOCIATION_MAX_N:
        raise SizeLimitError(
            f"association graph is limited to n <= {ASSOCIATION_MAX_N}, got {inst.n}"
        )
    return np.kron(inst.flow, inst.distance)


def power_iteration(
    k: np.ndarray, tol: float = 1e-8, max_iter: int = 1000
) -> tuple[np.ndarray, int, bool]:
    """Leading eigenvector of a non-negative matrix by power iteration.

    Starts from the normalized ones vector (deterministic); iterates
    ``v <- K v / ||K v||`` until the L2 change drops below ``tol``.  A zero
    matrix (or zero iterate) returns the start vector immediately — there is
    no meaningful direction to find.

    Returns:
        ``(vector, iterations, converged)``.
    """
    m = k.shape[0]
    v = np.full(m, 1.0 / math.sqrt(m))
    for it in range(1, max_iter + 1):
        w = k @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return v, it, True
        w /= norm
        if float(np.linalg.norm(w - v)) < tol:
            return w, it, True
        v = w
    return v, max_iter, False


def hungarian_projection(scores: np.ndarray) -> np.ndarray:
    """Permutation maximizing ``sum_i scores[i, sigma[i]]`` (Hungarian)."""
    rows, cols = linear_sum_assignment(-scores)
    sigma = np.empty(scores.shape[0], dtype=np.int64)
    sigma[rows] = cols
    return sigma


@dataclass(frozen=True)
class SpectralResult:
    """Spectral matching output.

    Attributes:
        assignment: Feasible assignment after Hungarian projection.
        iterations: Power-iteration count consumed.
        converged: Whether the tolerance was met within the budget.
        scores: The (n, n) relaxed score matrix (leading eigenvector,
            reshaped row-major; non-negative).
    """

    assignment: Assignment
    iterations: int
    converged: bool
    scores: np.ndarray


def spectral_matching(
    inst: QapInstance, tol: float = 1e-8, max_iter: int = 1000
) -> SpectralResult:
    """Spectral relaxation baseline: leading eigenvector + projection.

    Builds the association matrix ``kron(F, D)``, takes its leading
    eigenvector (a relaxed facility-location score), reshapes to (n, n), and
    projects to a feasible permutation with the Hungarian method on the
    negated scores.  Non-convergence is logged and the best iterate is still
    projected.
    """
    k = association_graph(inst)
    vec, iters, converged = power_iteration(k, tol=tol, max_iter=max_iter)
    if not converged:
        logger.warning(
            "power iteration did not converge on %s after %d iterations; "
            "projecting the last iterate", inst.name, iters,
        )
    scores = vec.reshape(inst.n, inst.n)
    sigma = hungarian_projection(scores)
    return SpectralResult(
        assignment=Assignment(sigma, objective(inst, sigma)),
        iterations=iters,
        converged=converged,
        scores=scores,
    )
