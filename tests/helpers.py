"""Shared test utilities: independent oracles and instance factories.

The oracles here are deliberately written as plain Python double loops (no
shared code with the package's kernels) so they can serve as independent
references for the fast paths.  The exceptions are ``greedy_reference`` and
``tabu_reference``: earlier vectorized kernels kept verbatim, which the
current ones must match to the bit on float data as well.

This module also holds the autodiff pieces only the tests need: the graph ops
``div``, ``sqrt``, ``transpose`` and ``stack``, which the package's policy and
trainer never call but the reference oracles below do, and the
finite-difference harness ``fd_gradient``/``gradcheck``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from sawt_qap import nn
from sawt_qap._kernels import _REFRESH_STEPS, _TIE_RTOL, _cross, _pair_sums
from sawt_qap._kernels import objective as kernel_objective, swap_delta as kernel_swap_delta
from sawt_qap.core import Assignment, QapInstance, make_rng, objective
from sawt_qap.errors import NumericalAbortError
from sawt_qap.nn.tensor import Tensor, _make, _unbroadcast
from sawt_qap.policy import InstanceBatch
from sawt_qap.rl import (
    EVAL_BATCH_SIZE, EvalResult, SearchState, _batches, reset_state, step_state,
)


# ---------------------------------------------------------------------------
# Graph ops used only by the reference oracles, built on the engine's node
# constructor: same conventions as the ops in ``sawt_qap.nn.tensor``.
# ---------------------------------------------------------------------------


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return (
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data**2), b.shape)),
        )

    return _make(a.data / b.data, (a, b), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        return ((a, g / (2.0 * out_data)),)

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def backward(g):
        return ((a, g.transpose(inverse)),)

    return _make(a.data.transpose(axes), (a,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple((t, p.squeeze(axis)) for t, p in zip(tensors, pieces))

    return _make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


# ---------------------------------------------------------------------------
# Finite-difference harness.
# ---------------------------------------------------------------------------


def fd_gradient(fn: Callable[[], Tensor], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn()`` w.r.t. ``x.data``."""
    grad = np.zeros_like(x.data)
    flat = x.data.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = float(fn().data)
        flat[k] = orig - h
        fm = float(fn().data)
        flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return grad


def gradcheck(
    fn: Callable[[], Tensor],
    inputs: Iterable[Tensor],
    h: float = 1e-5,
    rel_tol: float = 1e-5,
    abs_tol: float = 1e-7,
) -> float:
    """Compare analytic and finite-difference gradients; returns max rel err.

    ``fn`` must rebuild the graph from ``inputs`` on every call and return a
    scalar.  Inputs should be float64 for the tolerances to be meaningful.

    Raises:
        AssertionError: If any input's gradient disagrees beyond tolerance.
    """
    for t in inputs:
        t.zero_grad()
    out = fn()
    out.backward()
    worst = 0.0
    for t in inputs:
        assert t.grad is not None, f"no gradient reached input {t!r}"
        numeric = fd_gradient(fn, t, h=h)
        denom = np.maximum(np.abs(numeric), np.abs(t.grad))
        err = np.abs(t.grad - numeric)
        rel = err / np.maximum(denom, 1.0)
        bad = (err > abs_tol) & (rel > rel_tol)
        assert not bad.any(), (
            f"gradient mismatch for {t!r}: max abs err {err.max():.3e}, "
            f"max rel err {rel.max():.3e}"
        )
        worst = max(worst, float(rel.max()))
    return worst


def naive_objective(flow, distance, sigma) -> float:
    """Textbook double-sum objective; the independent reference."""
    n = len(sigma)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += float(flow[i][j]) * float(distance[sigma[i]][sigma[j]])
    return total


def naive_trace_objective(flow, distance, sigma) -> float:
    """trace(F X D X^T) assembled from an explicitly constructed X."""
    n = len(sigma)
    x = np.zeros((n, n))
    for i in range(n):
        x[i, sigma[i]] = 1.0
    return float(np.trace(np.asarray(flow) @ x @ np.asarray(distance) @ x.T))


def permutation_matrix(sigma) -> np.ndarray:
    """(n, n) 0/1 matrix ``X`` with ``X[i, sigma[i]] = 1``."""
    n = len(sigma)
    x = np.zeros((n, n))
    x[np.arange(n), sigma] = 1.0
    return x


def random_assignment(inst: QapInstance, rng) -> Assignment:
    """Uniformly random assignment drawn from ``rng`` (one ``permutation`` call)."""
    sigma = rng.permutation(inst.n).astype(np.int64)
    return Assignment(sigma, objective(inst, sigma))


def random_start_state(batch: InstanceBatch, rng) -> SearchState:
    """Search state at uniformly random assignments, one ``permutation`` call per row.

    Each row is its own incumbent, as at the identity start of ``reset_state``.
    """
    sigma = np.stack([rng.permutation(batch.n).astype(np.int64) for _ in range(batch.size)])
    cost = np.array([kernel_objective(i.flow, i.distance, s) for i, s in zip(batch.instances, sigma)])
    return SearchState(sigma, cost, sigma.copy(), cost.copy())


def random_asymmetric_instance(rng, n, scale=1.0, name=None) -> QapInstance:
    """Dense asymmetric instance (exercises the general delta formula)."""
    flow = rng.random((n, n)) * scale
    distance = rng.random((n, n)) * scale
    np.fill_diagonal(flow, 0.0)
    np.fill_diagonal(distance, 0.0)
    return QapInstance(name or f"asym{n}", flow, distance)


def random_integer_instance(rng, n, high=10, name=None, symmetric=True) -> QapInstance:
    """Integer-valued instance (exact float arithmetic), zero diagonal;
    symmetric unless ``symmetric=False``."""

    def off_diagonal(mat):
        upper = np.triu(mat, k=1)
        return upper + upper.T if symmetric else upper + np.tril(mat, k=-1)

    flow = off_diagonal(rng.integers(0, high + 1, size=(n, n))).astype(np.float64)
    distance = off_diagonal(rng.integers(0, high + 1, size=(n, n))).astype(np.float64)
    return QapInstance(name or f"int{n}", flow, distance)


def exhaustive_best(flow, distance):
    """Global optimum by literal enumeration (oracle for brute_force)."""
    import itertools

    n = flow.shape[0]
    best_cost = float("inf")
    best_perm = None
    for perm in itertools.permutations(range(n)):
        cost = naive_objective(flow, distance, perm)
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return np.array(best_perm, dtype=np.int64), best_cost


# ---------------------------------------------------------------------------
# Scalar-loop references for the vectorized kernels in ``sawt_qap._kernels``:
# same signatures and return values, one pair or one facility at a time.
# ---------------------------------------------------------------------------


def objective_loop(flow, distance, sigma):
    n = sigma.shape[0]
    total = 0.0
    for i in range(n):
        si = sigma[i]
        for j in range(n):
            total += flow[i, j] * distance[si, sigma[j]]
    return total


def swap_delta_loop(flow, distance, sigma, i, j):
    si = sigma[i]
    sj = sigma[j]
    n = sigma.shape[0]
    delta = (flow[i, i] - flow[j, j]) * (distance[sj, sj] - distance[si, si])
    delta += (flow[i, j] - flow[j, i]) * (distance[sj, si] - distance[si, sj])
    for k in range(n):
        if k == i or k == j:
            continue
        sk = sigma[k]
        delta += (flow[i, k] - flow[j, k]) * (distance[sj, sk] - distance[si, sk])
        delta += (flow[k, i] - flow[k, j]) * (distance[sk, sj] - distance[sk, si])
    return delta


def all_swap_deltas_loop(flow, distance, sigma):
    n = sigma.shape[0]
    deltas = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = swap_delta_loop(flow, distance, sigma, i, j)
            deltas[i, j] = d
            deltas[j, i] = d
    return deltas


def greedy_loop(flow, distance, sigma, max_steps):
    n = sigma.shape[0]
    sigma = sigma.copy()
    cost = objective_loop(flow, distance, sigma)
    steps = 0
    while steps < max_steps:
        best_delta = 0.0
        best_i = -1
        best_j = -1
        for i in range(n):
            for j in range(i + 1, n):
                d = swap_delta_loop(flow, distance, sigma, i, j)
                if d < best_delta:
                    best_delta = d
                    best_i = i
                    best_j = j
        if best_i < 0:
            break
        tmp = sigma[best_i]
        sigma[best_i] = sigma[best_j]
        sigma[best_j] = tmp
        cost += best_delta
        steps += 1
    return sigma, cost, steps


def tabu_loop(flow, distance, sigma, max_steps, tenure):
    n = sigma.shape[0]
    current = sigma.copy()
    current_cost = objective_loop(flow, distance, current)
    best = current.copy()
    best_cost = current_cost
    expiry = np.zeros((n, n), dtype=np.int64)
    history = np.empty(max_steps, dtype=np.float64)
    for step in range(1, max_steps + 1):
        pick_i = -1
        pick_j = -1
        pick_delta = np.inf
        esc_i = -1
        esc_j = -1
        esc_delta = np.inf
        for i in range(n):
            for j in range(i + 1, n):
                d = swap_delta_loop(flow, distance, current, i, j)
                if d < esc_delta:
                    esc_delta = d
                    esc_i = i
                    esc_j = j
                admissible = expiry[i, j] < step
                if not admissible:
                    # Aspiration: beat the best by more than a relative 1e-9.
                    admissible = current_cost + d < best_cost - 1e-9 * abs(best_cost)
                if admissible and d < pick_delta:
                    pick_delta = d
                    pick_i = i
                    pick_j = j
        if pick_i < 0:
            # Every move is tabu and none aspirates: take the best tabu move
            # so the search keeps moving (deterministic escape).
            pick_i = esc_i
            pick_j = esc_j
            pick_delta = esc_delta
        tmp = current[pick_i]
        current[pick_i] = current[pick_j]
        current[pick_j] = tmp
        current_cost += pick_delta
        expiry[pick_i, pick_j] = step + tenure
        if current_cost < best_cost:
            best_cost = current_cost
            best = current.copy()
        history[step - 1] = best_cost
    return best, best_cost, current, current_cost, history


def brute_force_loop(flow, distance, init_bound):
    """Exact search: lexicographic DFS with admissible partial-cost pruning.

    Requires ``flow >= 0`` and ``distance >= 0`` element-wise so that partial
    assignment cost is monotone non-decreasing, which makes the
    ``partial >= best`` prune exact.  Because the DFS visits permutations in
    lexicographic order and only a strict improvement replaces the incumbent,
    the returned optimum is the lexicographically smallest one.

    ``init_bound`` primes the incumbent cost (``np.inf`` for a cold start).
    Any leaf strictly below the bound is still reachable, so passing
    ``known_optimum + 0.5`` on integer-valued data is a safe accelerator.
    Returns ``(perm, cost, leaves)``; ``cost == inf`` and an identity ``perm``
    mean nothing beat the bound.
    """
    n = flow.shape[0]
    if n == 0:
        return np.arange(0), (0.0 if 0.0 < init_bound else init_bound), 0
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=np.bool_)
    partial = np.zeros(n + 1, dtype=np.float64)
    cand = np.zeros(n, dtype=np.int64)
    best_perm = np.arange(n)
    best = init_bound
    leaves = 0
    k = 0
    while k >= 0:
        loc = -1
        c = cand[k]
        while c < n:
            if not used[c]:
                loc = c
                break
            c += 1
        if loc < 0:
            k -= 1
            if k >= 0:
                prev = perm[k]
                used[prev] = False
                perm[k] = -1
                cand[k] = prev + 1
            continue
        add = flow[k, k] * distance[loc, loc]
        for i in range(k):
            pi = perm[i]
            add += flow[i, k] * distance[pi, loc] + flow[k, i] * distance[loc, pi]
        new_partial = partial[k] + add
        if new_partial >= best:
            cand[k] = loc + 1
            continue
        if k == n - 1:
            leaves += 1
            best = new_partial
            perm[k] = loc
            best_perm = perm.copy()
            perm[k] = -1
            cand[k] = loc + 1
            continue
        perm[k] = loc
        used[loc] = True
        partial[k + 1] = new_partial
        k += 1
        cand[k] = 0
    return best_perm, best, leaves


# ---------------------------------------------------------------------------
# Earlier vectorized kernels, kept verbatim as bit-exact oracles for the
# kernels that replaced them: the same IEEE operations in the same order, so
# every output must match to the bit on float data too.
# ---------------------------------------------------------------------------


def greedy_reference(flow, distance, sigma, max_steps):
    """``_kernels.greedy`` as it was when it rebuilt ``G`` and the mask each step."""
    sigma = sigma.copy()
    cost = kernel_objective(flow, distance, sigma)
    steps = 0
    while steps < max_steps:
        perm_d = distance[np.ix_(sigma, sigma)]
        deltas = _pair_sums(flow) * _pair_sums(perm_d) - _pair_sums(_cross(flow, perm_d))
        n = deltas.shape[0]
        masked = np.where(np.triu(np.ones_like(deltas, dtype=bool), k=1), deltas, np.inf)
        flat = int(np.argmin(masked))  # argmin returns the first minimum row-major
        i, j = flat // n, flat % n
        if deltas[i, j] >= 0.0:
            break
        sigma[i], sigma[j] = sigma[j], sigma[i]
        cost += float(deltas[i, j])
        steps += 1
    return sigma, cost, steps


def tabu_reference(flow, distance, sigma, max_steps, tenure):
    """``_kernels.tabu`` as it was when it carried ``P`` and allocated each step."""
    n = sigma.shape[0]
    current = sigma.copy()
    current_cost = kernel_objective(flow, distance, current)
    best = current.copy()
    best_cost = current_cost
    expiry = np.zeros((n, n), dtype=np.int64)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    history = np.empty(max_steps, dtype=np.float64)
    flow_pairs = _pair_sums(flow)
    perm_d = distance[np.ix_(current, current)]
    for step in range(1, max_steps + 1):
        if (step - 1) % _REFRESH_STEPS == 0:
            cross = _cross(flow, perm_d)
        deltas = flow_pairs * _pair_sums(perm_d) - _pair_sums(cross)
        aspire = best_cost - _TIE_RTOL * abs(best_cost)
        admissible = ((expiry < step) | (current_cost + deltas < aspire)) & upper
        if admissible.any():
            masked = np.where(admissible, deltas, np.inf)
        else:
            masked = np.where(upper, deltas, np.inf)
        flat = int(np.argmin(masked))
        i, j = flat // n, flat % n
        delta = float(masked[i, j])
        current[i], current[j] = current[j], current[i]
        current_cost += delta
        expiry[i, j] = step + tenure
        if current_cost < best_cost:
            best_cost = current_cost
            best = current.copy()
        history[step - 1] = best_cost
        pair, back = [i, j], [j, i]
        perm_d[pair] = perm_d[back]
        perm_d[:, pair] = perm_d[:, back]
        cross[:, pair] = cross[:, back]
        cross += np.outer(flow[:, i] - flow[:, j], perm_d[:, i] - perm_d[:, j])
        cross += np.outer(flow[i] - flow[j], perm_d[i] - perm_d[j])
    return best, best_cost, current, current_cost, history


# ---------------------------------------------------------------------------
# Per-row references for the batched transitions ``sawt_qap.rl.reset_state``
# and ``step_state``: one kernel call per row, which the batched versions
# must match to the bit.
# ---------------------------------------------------------------------------


def reset_state_loop(batch: InstanceBatch) -> SearchState:
    B, n = batch.size, batch.n
    sigma = np.tile(np.arange(n, dtype=np.int64), (B, 1))
    cost = np.array([kernel_objective(i.flow, i.distance, s) for i, s in zip(batch.instances, sigma)])
    return SearchState(sigma, cost, sigma.copy(), cost.copy())


def step_state_loop(batch: InstanceBatch, state: SearchState, swaps: np.ndarray):
    swaps = np.asarray(swaps, dtype=np.int64)
    new = SearchState(state.sigma.copy(), state.cost.copy(),
                      state.best_sigma.copy(), state.best_cost.copy())
    rewards = np.zeros(batch.size, dtype=np.float64)
    for b, inst in enumerate(batch.instances):
        i, j = int(swaps[b, 0]), int(swaps[b, 1])
        delta = kernel_swap_delta(inst.flow, inst.distance, new.sigma[b], i, j)
        new.sigma[b, i], new.sigma[b, j] = new.sigma[b, j], new.sigma[b, i]
        new.cost[b] += delta
        if new.cost[b] < new.best_cost[b]:
            rewards[b] = new.best_cost[b] - new.cost[b]
            new.best_cost[b] = new.cost[b]
            new.best_sigma[b] = new.sigma[b]
    return new, rewards


# ---------------------------------------------------------------------------
# Whole-graph reference for the streamed ``sawt_qap.rl.reinforce_update``:
# same signature and return values, but all T step graphs are kept alive and
# the episode loss is back-propagated once, with every return computed from
# the finished episode's rewards by ``compute_returns``.
# ---------------------------------------------------------------------------


def compute_returns(rewards: np.ndarray, gamma: float, window: int) -> np.ndarray:
    """Truncated discounted returns: ``G_t = sum_{k<window} gamma^k r_{t+k}``.

    ``rewards`` is (T, B).  The window is clipped at episode end; nothing is
    bootstrapped past it.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    T = rewards.shape[0]
    returns = np.zeros_like(rewards)
    for t in range(T - 1, -1, -1):
        returns[t] = rewards[t]
        if t + 1 < T:
            returns[t] += gamma * returns[t + 1]
        if t + window < T:
            returns[t] -= gamma**window * rewards[t + window]
    return returns


def whole_graph_update(policy, optimizer, batch, config, rng, epoch=0):
    state = reset_state(batch)
    outs, rewards = [], []
    for _ in range(config.episode_length):
        h_best = policy.encode(batch, state.best_sigma)
        out = policy.act(policy.encode(batch, state.sigma), h_best, rng=rng)
        state, r = step_state(batch, state, out.swaps)
        outs.append(out)
        rewards.append(r)
    rewards = np.stack(rewards)  # (T, B)
    returns = compute_returns(rewards, config.gamma, config.return_window)
    logp = stack([o.log_prob for o in outs], axis=0)  # (T, B)
    values = stack([o.value for o in outs], axis=0)  # (T, B)
    entropy = stack([o.entropy for o in outs], axis=0)  # (T, B)
    dt = logp.dtype
    advantage = returns - values.data.astype(np.float64)  # detached baseline
    coef = config.entropy_beta * config.entropy_decay**epoch

    def mean_tb(x):  # mean over (T, B)
        return nn.mean(nn.mean(x, axis=1), axis=0)

    policy_term = nn.neg(mean_tb(nn.mul(logp, nn.Tensor.const(advantage.astype(dt)))))
    entropy_term = mean_tb(entropy)
    err = nn.sub(nn.Tensor.const(returns.astype(dt)), values)
    value_term = mean_tb(nn.mul(err, err))
    loss = nn.sub(
        nn.add(policy_term, nn.mul(nn.Tensor.const(np.asarray(config.value_coef, dtype=dt)), value_term)),
        nn.mul(nn.Tensor.const(np.asarray(coef, dtype=dt)), entropy_term),
    )
    metrics = {
        "loss": float(loss.data),
        "policy_loss": float(policy_term.data),
        "value_loss": float(value_term.data),
        "entropy": float(entropy_term.data),
        "entropy_coef": float(coef),
        "mean_return": float(returns.mean()),
        "mean_reward": float(rewards.mean()),
    }
    if not all(np.isfinite(v) for v in metrics.values()):
        raise NumericalAbortError(
            "non-finite loss during policy update", diagnostics={"epoch": epoch, **metrics}
        )
    optimizer.zero_grad()
    loss.backward()
    grad_sq = sum(
        float(np.sum(t.grad.astype(np.float64) ** 2))
        for t in policy.params.values() if t.grad is not None
    )
    metrics["grad_norm"] = float(np.sqrt(grad_sq))
    optimizer.step()
    optimizer.zero_grad()
    return metrics, state


# ---------------------------------------------------------------------------
# Uncached reference for ``sawt_qap.rl.evaluate``: same signature and search,
# but the best-so-far assignment is encoded in full on every step instead of
# being copied from the pass that encoded it as the current assignment.
# ---------------------------------------------------------------------------


def uncached_evaluate(policy, instances, steps=100, seed=0):
    instances = list(instances)
    rng = make_rng(seed)
    best_costs = np.zeros(len(instances), dtype=np.float64)
    best_sigmas = [None] * len(instances)
    with nn.no_grad():
        for idxs in _batches(instances, EVAL_BATCH_SIZE):
            batch = policy.embed_instances([instances[i] for i in idxs], rng)
            state = reset_state(batch)
            for _ in range(steps):
                h_best = policy.encode(batch, state.best_sigma)
                out = policy.act(policy.encode(batch, state.sigma), h_best, rng=rng)
                state, _ = step_state(batch, state, out.swaps)
            for pos, idx in enumerate(idxs):
                best_costs[idx] = state.best_cost[pos]
                best_sigmas[idx] = state.best_sigma[pos].copy()
    return EvalResult(best_costs, best_sigmas, float(best_costs.mean()))


def sub_batch(batch, idx):
    """Rows ``idx`` of an ``InstanceBatch``, with detached embedding copies."""
    idx = np.asarray(idx, dtype=np.int64)
    return InstanceBatch(
        [batch.instances[i] for i in idx],
        batch.flow[idx],
        batch.dist[idx],
        Tensor.const(batch.fac_emb.data[idx]),
        Tensor.const(batch.loc_emb.data[idx]),
    )


# ---------------------------------------------------------------------------
# Composite references for the fused layers in ``sawt_qap.nn``: same
# signatures, built from primitive graph ops, one node per primitive.  Their
# forwards are the expressions the fused ops must reproduce bit for bit.
# ---------------------------------------------------------------------------


def linear_composite(x, weight, bias=None):
    out = nn.matmul(x, weight)
    if bias is not None:
        out = nn.add(out, bias)
    return out


def layer_norm_composite(a, gain, bias):
    def mean_last(x):  # mean over the last axis, kept as length 1
        return nn.reshape(nn.mean(x, axis=-1), x.shape[:-1] + (1,))

    mu = mean_last(a)
    centered = nn.sub(a, mu)
    var = mean_last(nn.mul(centered, centered))
    inv = div(centered, sqrt(nn.add(var, nn.Tensor.const(np.asarray(1e-5, dtype=a.dtype)))))
    return nn.add(nn.mul(inv, gain), bias)


def mixed_attention_composite(q, k, v, mix, scale, n_heads):
    b, n, d = q.shape

    def split(x):
        return transpose(nn.reshape(x, (b, n, n_heads, d // n_heads)), (0, 2, 1, 3))

    scores = nn.mul(
        nn.mul(
            nn.matmul(split(q), transpose(split(k), (0, 1, 3, 2))),
            nn.Tensor.const(np.asarray(scale, dtype=q.dtype)),
        ),
        nn.reshape(nn.Tensor.const(np.asarray(mix, dtype=q.dtype)), (b, 1, n, n)),
    )
    att = nn.matmul(nn.softmax(scores, axis=-1), split(v))
    return nn.reshape(transpose(att, (0, 2, 1, 3)), (b, n, d))
