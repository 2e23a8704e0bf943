"""Hot numerical kernels: vectorized numpy, one implementation per kernel.

Conventions shared by all kernels:

* ``flow`` and ``distance`` are square ``float64`` arrays of the same shape.
* ``sigma`` is an ``int64`` permutation vector; ``sigma[i]`` is the location
  assigned to facility ``i``.
* The objective is ``sum_{i,j} flow[i, j] * distance[sigma[i], sigma[j]]``.
* A "swap (i, j)" exchanges the locations of facilities ``i`` and ``j``.
* No symmetry is assumed anywhere: deltas use the general asymmetric update.

All swap deltas come from one closed form (:func:`all_swap_deltas`) in
``P = D[sigma][:, sigma]`` and ``C = F P^T + F^T P``.  :func:`tabu` keeps ``C``
and the pair sums of ``P`` current across its steps and writes each step into
arrays allocated once per call, so a step costs O(n^2), not two matmuls.

Exact search (:func:`brute_force`) is a depth-first branch and bound over
blocks of partial assignments, seeded by a short tabu run and pruned with a
Gilmore–Lawler-style bound.  It needs non-negative ``flow`` and ``distance``
and returns, among the minimum-cost permutations, the lexicographically
smallest.  That tie rule does not depend on summation order: the search keeps
every leaf within a relative ``1e-9`` of the incumbent, scores each with one
batched ``einsum`` and compares those scores exactly.
"""

from __future__ import annotations

import numpy as np

# Tabu recomputes its maintained C = F P^T + F^T P from scratch this often.
_REFRESH_STEPS = 50
# Exact search keeps every leaf within this relative distance of the incumbent,
# so summation-order rounding can never prune a true tie; tabu's aspiration
# needs a move to beat the best by more than it, so rounding never admits one
# that only ties.
_TIE_RTOL = 1e-9
# Float64 entries of the widest bound array one block expansion may build.
_BLOCK_ENTRIES = 1 << 16


def objective(flow, distance, sigma):
    """Objective value via fancy indexing: sum(F * D[sigma][:, sigma])."""
    return float(np.sum(flow * distance[np.ix_(sigma, sigma)]))


def swap_delta(flow, distance, sigma, i, j):
    """O(n) swap delta from row/column slices (general asymmetric form)."""
    si = int(sigma[i])
    sj = int(sigma[j])
    row_j = distance[sj, sigma]
    row_i = distance[si, sigma]
    col_j = distance[sigma, sj]
    col_i = distance[sigma, si]
    row = (flow[i, :] - flow[j, :]) * (row_j - row_i)
    col = (flow[:, i] - flow[:, j]) * (col_j - col_i)
    row_sum = row.sum() - row[i] - row[j]
    col_sum = col.sum() - col[i] - col[j]
    corner = (flow[i, i] - flow[j, j]) * (distance[sj, sj] - distance[si, si])
    corner += (flow[i, j] - flow[j, i]) * (distance[sj, si] - distance[si, sj])
    return float(row_sum + col_sum + corner)


def _pair_sums(m):
    """``m[i, i] + m[j, j] - m[i, j] - m[j, i]``: exactly symmetric, zero diagonal."""
    d = np.diag(m)
    return d[:, None] + d[None, :] - (m + m.T)


def _cross(flow, perm_d):
    """``C = F P^T + F^T P``, the only O(n^3) part of the delta table."""
    return flow @ perm_d.T + flow.T @ perm_d


def _swap_deltas(flow, flow_pairs, perm_d):
    """The :func:`all_swap_deltas` table from ``G = _pair_sums(flow)`` and ``P``."""
    return flow_pairs * _pair_sums(perm_d) - _pair_sums(_cross(flow, perm_d))


def all_swap_deltas(flow, distance, sigma):
    """All-pairs swap deltas as a symmetric (n, n) matrix, in one closed form.

    With ``P = D[sigma][:, sigma]``, ``C = F P^T + F^T P`` and ``c = diag(C)``,
    the delta of swap (i, j) is ``C[i, j] + C[j, i] - c[i] - c[j] + G[i, j]
    * H[i, j]``, where ``G`` and ``H`` are the :func:`_pair_sums` of ``F`` and
    ``P``.  The ``C`` terms sum the asymmetric update over every ``k``; the
    product corrects its ``k in {i, j}`` terms.  Zero diagonal.
    """
    return _swap_deltas(flow, _pair_sums(flow), distance[np.ix_(sigma, sigma)])


def _lex_best_pair(deltas, upper):
    """Index (i, j), i < j, of the smallest delta, lexicographic tie-break."""
    n = deltas.shape[0]
    flat = int(np.argmin(np.where(upper, deltas, np.inf)))  # first minimum, row-major
    return flat // n, flat % n


def greedy(flow, distance, sigma, max_steps):
    """Best-improvement 2-swap descent (vectorized delta scans)."""
    sigma = sigma.copy()
    cost = objective(flow, distance, sigma)
    flow_pairs = _pair_sums(flow)
    n = sigma.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    steps = 0
    while steps < max_steps:
        deltas = _swap_deltas(flow, flow_pairs, distance[np.ix_(sigma, sigma)])
        i, j = _lex_best_pair(deltas, upper)
        if deltas[i, j] >= 0.0:
            break
        sigma[i], sigma[j] = sigma[j], sigma[i]
        cost += float(deltas[i, j])
        steps += 1
    return sigma, cost, steps


def _swap_lines(m, i, j, row):
    """Swap columns i and j of ``m`` through the length-n scratch ``row``."""
    row[:] = m[:, i]
    m[:, i] = m[:, j]
    m[:, j] = row


def tabu(flow, distance, sigma, max_steps, tenure):
    """Tabu search step loop at O(n^2) per step.

    See :func:`sawt_qap.solvers.tabu_search` for the semantics.  Returns
    ``(best, best_cost, current, current_cost, history)``.

    Deltas use the closed form of :func:`all_swap_deltas` (Taillard 1991).
    The loop carries ``C`` and ``H = _pair_sums(P)``, not ``P``: after swap
    (r, s) it swaps rows and columns r and s of ``H`` and columns r and s of
    ``C``, then adds ``(F[:, r] - F[:, s]) (P[:, r] - P[:, s])^T`` and ``(F[r]
    - F[s]) (P[r] - P[s])^T`` to ``C``, reading the rows and columns of the
    swapped ``P`` straight from ``distance``.  ``C`` is recomputed every
    ``_REFRESH_STEPS`` steps so rounding cannot build up on float data.  The
    n x n arrays of a step are allocated once per call and written in place,
    with the same operations in the same order as :func:`all_swap_deltas`.
    """
    n = sigma.shape[0]
    current = sigma.copy()
    current_cost = objective(flow, distance, current)
    best = current.copy()
    best_cost = current_cost
    expiry = np.zeros((n, n), dtype=np.int64)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    history = np.empty(max_steps, dtype=np.float64)
    flow_pairs = _pair_sums(flow)
    perm_pairs = _pair_sums(distance[np.ix_(current, current)])
    # Row r of a transposed copy is column r: contiguous, cheap to gather from.
    flow_t = flow.T.copy()
    distance_t = distance.T.copy()
    deltas = np.empty((n, n))
    work = np.empty((n, n))  # pair sums of C, then current_cost + deltas, then an outer product
    masked = np.empty((n, n))  # C + C^T, then the deltas of the candidate moves
    admissible = np.empty((n, n), dtype=bool)
    free = np.empty((n, n), dtype=bool)
    row = np.empty(n)
    for step in range(1, max_steps + 1):
        if (step - 1) % _REFRESH_STEPS == 0:
            cross = _cross(flow, distance[np.ix_(current, current)])
        diag = cross.diagonal()
        np.add(diag[:, None], diag, out=work)
        np.add(cross, cross.T, out=masked)
        np.subtract(work, masked, out=work)
        np.multiply(flow_pairs, perm_pairs, out=deltas)
        np.subtract(deltas, work, out=deltas)
        aspire = best_cost - _TIE_RTOL * abs(best_cost)
        np.add(current_cost, deltas, out=work)
        np.less(work, aspire, out=admissible)
        np.less(expiry, step, out=free)
        np.logical_or(free, admissible, out=admissible)
        np.logical_and(admissible, upper, out=admissible)
        masked.fill(np.inf)
        np.copyto(masked, deltas, where=admissible if admissible.any() else upper)
        flat = int(masked.argmin())
        i, j = flat // n, flat % n
        delta = float(masked[i, j])
        current[i], current[j] = current[j], current[i]
        current_cost += delta
        expiry[i, j] = step + tenure
        if current_cost < best_cost:
            best_cost = current_cost
            best = current.copy()
        history[step - 1] = best_cost
        _swap_lines(perm_pairs, i, j, row)
        _swap_lines(perm_pairs.T, i, j, row)  # rows, through the transposed view
        _swap_lines(cross, i, j, row)
        si, sj = current[i], current[j]
        np.multiply((flow_t[i] - flow_t[j])[:, None],
                    distance_t[si][current] - distance_t[sj][current], out=work)
        cross += work
        np.multiply((flow[i] - flow[j])[:, None],
                    distance[si][current] - distance[sj][current], out=work)
        cross += work
    return best, best_cost, current, current_cost, history


def _perm_costs(flow, distance, perms):
    """Objective of each row of a (k, n) permutation block, one batched einsum.

    A row's value does not depend on the other rows in the block, so every
    permutation gets the same cost bits wherever it is scored.
    """
    return np.einsum("ij,kij->k", flow, distance[perms[:, :, None], perms[:, None, :]])


def brute_force(flow, distance, init_bound=np.inf):
    """Exact search by depth-first, block-vectorized branch and bound.

    Requires ``flow >= 0`` and ``distance >= 0`` element-wise (``QapInstance``
    enforces it); the bound below is admissible only then.

    * Incumbent: a short :func:`tabu` run from the identity sets the
      starting upper bound (``init_bound`` when that is lower).
    * Facilities are placed heaviest total flow (row plus column sum) first.
    * Bound of a partial assignment: its cost so far plus, for every unplaced
      facility, the cheapest free location for it counting only its own
      diagonal term and its interactions with the placed facilities (a
      Gilmore–Lawler-style relaxation that drops the unplaced-pair terms and
      the all-different constraint).
    * Blocks of nodes are expanded depth-first, each expansion building at
      most about ``_BLOCK_ENTRIES`` bound entries, so memory stays bounded by
      the tree depth times that block size.
    * Tie rule: a node is pruned only when its bound exceeds the incumbent by
      more than a relative ``_TIE_RTOL``.  Every surviving leaf is re-scored
      with :func:`_perm_costs`; the result is the lexicographically smallest
      permutation with the exact minimum of those scores.  That is the
      permutation a full enumeration in lexicographic order would return.

    Only costs strictly below ``init_bound`` count:
    when none exists the result is ``(identity, init_bound)``.  Returns
    ``(perm, cost, leaves)`` with ``leaves`` the number of leaves scored.
    """
    n = flow.shape[0]
    if np.any(flow < 0) or np.any(distance < 0):
        raise ValueError("exact search needs non-negative flow and distance")
    best = float(init_bound)
    best_perm = np.arange(n)
    found = False
    leaves = 0
    if n == 0:
        return best_perm, (0.0 if 0.0 < best else best), 0
    upper = best
    if n >= 2:
        incumbent = tabu(flow, distance, np.arange(n), 10 * n, max(1, n // 2))[0]
        upper = min(upper, float(_perm_costs(flow, distance, incumbent[None])[0]))
    order = np.argsort(-(flow.sum(axis=0) + flow.sum(axis=1)), kind="stable")
    # step[d][l, v, l2]: what placing facility order[d] at location l adds to
    # the cost of putting the later facility order[d + 1 + v] at location l2.
    step = []
    for d in range(n):
        u, rest = order[d], order[d + 1 :]
        step.append(
            flow[u, rest][None, :, None] * distance[:, None, :]
            + flow[rest, u][None, :, None] * distance.T[:, None, :]
        )
    eye = np.eye(n, dtype=bool)
    # A block of nodes at depth d: locations of order[:d], cost so far, used
    # locations, and for each unplaced facility order[d:] the cost of each
    # location given the placed ones.
    root_cost = np.diag(flow)[order][:, None] * np.diag(distance)[None, :]
    stack = [(0, np.zeros((1, 0), np.int64), np.zeros(1), np.zeros((1, n), bool),
              root_cost[None])]
    while stack:
        d, locs, partial, used, place = stack.pop()
        # Each child holds at most n * n entries (bound terms or leaf gather).
        cap = max(1, _BLOCK_ENTRIES // ((n - d) * n * n))
        if len(partial) > cap:
            stack.append((d, locs[cap:], partial[cap:], used[cap:], place[cap:]))
            locs, partial, used, place = locs[:cap], partial[:cap], used[:cap], place[:cap]
        thresh = upper + _TIE_RTOL * abs(upper)
        child_cost = partial[:, None] + place[:, 0, :]
        rows, cols = np.nonzero(~used & (child_cost <= thresh))
        if rows.size == 0:
            continue
        child_locs = np.concatenate([locs[rows], cols[:, None]], axis=1)
        child_cost = child_cost[rows, cols]
        if d == n - 1:
            perms = np.empty_like(child_locs)
            perms[:, order] = child_locs
            costs = _perm_costs(flow, distance, perms)
            leaves += len(costs)
            low = float(costs.min())
            if low < best or (found and low == best):
                ties = perms[costs == low]
                cand = ties[np.lexsort(ties.T[::-1])[0]]
                if low < best or cand.tolist() < best_perm.tolist():
                    best, best_perm, found = low, cand, True
                    upper = min(upper, best)
            continue
        child_used = used[rows] | eye[cols]
        child_place = place[rows, 1:, :] + step[d][cols]
        free_min = np.where(child_used[:, None, :], np.inf, child_place).min(axis=2)
        keep = child_cost + free_min.sum(axis=1) <= thresh
        if keep.any():
            stack.append((d + 1, child_locs[keep], child_cost[keep], child_used[keep],
                          child_place[keep]))
    if not found and not np.isfinite(init_bound):
        raise ValueError("empty search space")
    return best_perm, best, leaves
