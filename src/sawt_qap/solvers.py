"""Classical QAP solvers: exact search, 2-swap descent, tabu, spectral.

All solvers are deterministic given their inputs; ties in move selection are
broken lexicographically by facility pair.  The step loops run on the kernels
in :mod:`sawt_qap._kernels`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    Assignment,
    QapInstance,
    check_type,
    identity_assignment,
    objective,
)
from .errors import SizeLimitError, ValidationError

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "SpectralResult",
    "brute_force",
    "greedy_descent",
    "tabu_search",
    "default_tenure",
    "hungarian_projection",
    "spectral_matching",
]

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_N = 10


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
        max_steps: Upper bound on applied swaps (int >= 0).
    """
    check_type("max_steps", max_steps, "int")
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


def tabu_search(
    inst: QapInstance,
    start: Assignment | None = None,
    max_steps: int = 5000,
) -> tuple[Assignment, np.ndarray]:
    """Tabu search over the 2-swap neighborhood; returns the best found.

    Every step applies the best admissible swap — admissible meaning the
    pair is not tabu, or the move would beat the global best by more than a
    relative 1e-9 (aspiration; the margin keeps out a move back to the best
    permutation, which only ties it, however it rounds).  Applied pairs
    become tabu for :func:`default_tenure` steps.  If every move is tabu and
    none aspirates, the best tabu move is applied so the search keeps
    moving.  Deterministic; ties break lexicographically.

    Args:
        inst: Problem instance.
        start: Starting assignment (identity when omitted).
        max_steps: Number of moves to apply (int >= 0; every step applies
            one swap).

    Returns:
        ``(best, history)``: the best :class:`Assignment` seen and the
        best-so-far cost after each step, shape ``(max_steps,)``.
    """
    check_type("max_steps", max_steps, "int")
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if start is None:
        start = identity_assignment(inst)
    best_sigma, best_cost, _cur, _cur_cost, history = _kernels.tabu(
        inst.flow, inst.distance, start.sigma, max_steps, default_tenure(inst.n)
    )
    best = Assignment(best_sigma, best_cost)
    if start.cost <= best_cost:  # max_steps == 0 or the start was never beaten
        best = start.copy()
    return best, history


# ---------------------------------------------------------------------------
# Spectral matching, matrix-free.
# ---------------------------------------------------------------------------


def hungarian_projection(scores: np.ndarray) -> np.ndarray:
    """Permutation maximizing ``sum_i scores[i, sigma[i]]`` (Hungarian)."""
    # Imported on first use: only `sm` needs scipy, and loading scipy.optimize
    # would otherwise dominate the start-up time of every command.
    from scipy.optimize import linear_sum_assignment

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
        scores: The (n, n) relaxed score matrix: the leading eigenvector of
            ``kron(F, D)`` reshaped row-major, unit Frobenius norm,
            non-negative.  Unconverged, the normalized sum of the last two
            iterates.
    """

    assignment: Assignment
    iterations: int
    converged: bool
    scores: np.ndarray


def spectral_matching(
    inst: QapInstance, tol: float = 1e-8, max_iter: int = 1000
) -> SpectralResult:
    """Spectral relaxation baseline: leading eigenvector + projection.

    The scores are the leading eigenvector of the association matrix
    ``K = kron(F, D)`` (Leordeanu & Hebert 2005), reshaped row-major to
    (n, n).  ``K`` is never built: ``K vec(V) = vec(F V D^T)``, so power
    iteration runs ``V <- F V D^T / ||F V D^T||`` at O(n^3) time and O(n^2)
    memory per step.  It starts from ``1/n`` everywhere and stops when the
    Frobenius change drops below ``tol``; an all-zero product (a zero flow,
    say) stops it on the current iterate.  The scores are projected to a
    permutation with the Hungarian method on their negation.

    Non-convergence is logged, and the sum of the last two iterates is
    projected.  A bipartite flow graph gives ``K`` a ``±ρ`` eigenvalue pair,
    so the iterate alternates between two vectors whose ``-ρ`` component
    flips sign every step; their sum cancels it, and the result no longer
    depends on the parity of ``max_iter``.
    """
    v = np.full((inst.n, inst.n), 1.0 / inst.n)
    v_prev = v
    iters, converged = 0, False
    while not converged and iters < max_iter:
        iters += 1
        w = inst.flow @ v @ inst.distance.T
        norm = float(np.linalg.norm(w))
        converged = norm == 0.0  # a zero iterate has no direction to find
        if not converged:
            w /= norm
            converged = float(np.linalg.norm(w - v)) < tol
            v_prev, v = v, w
    if not converged:
        logger.warning(
            "power iteration did not converge on %s after %d iterations; "
            "projecting the sum of the last two iterates", inst.name, iters,
        )
        v = v + v_prev
        v /= np.linalg.norm(v)
    sigma = hungarian_projection(v)
    return SpectralResult(
        assignment=Assignment(sigma, objective(inst, sigma)),
        iterations=iters,
        converged=converged,
        scores=v,
    )
