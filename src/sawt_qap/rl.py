"""REINFORCE trainer for the swap policy.

The environment is improvement search: a state is (current assignment,
best-so-far assignment); an action is a facility pair to swap.  Swaps are
accepted unconditionally — exploration is the policy's job — and the reward
is the clipped one-step improvement of the incumbent,
``max(0, best_cost - new_cost)``, so episode return telescopes to the total
improvement of the best-so-far cost.  Every episode, in training and in
evaluation alike, starts at the identity assignment as its own incumbent.

Updates are n-step REINFORCE (Williams 1992) with a learned baseline:
returns are truncated discounted sums over a sliding window with no bootstrap
from the critic, as in n-step actor-critic (Mnih et al. 2016), the advantage
is return minus the detached critic value, and entropy is rewarded with a
coefficient that decays geometrically per epoch.  One Adam step is taken per
batch of episodes.

Because nothing is bootstrapped, step t's loss term is fixed once reward
t + w - 1 is known (w = ``return_window``).  :func:`reinforce_update`
therefore streams: it accumulates each step's return as the rewards arrive,
and rolls out and back-propagates in one loop, freeing each
step's graph as soon as its return is complete, so at most w + 1 step graphs
are alive at once instead of the whole episode's.  :func:`evaluate` runs the
same act/step loop with no graph and one encoder pass per step: a new
incumbent is the assignment the next step encodes as current, so its
encoding is copied from that pass.  Both batch same-size instances via
``_batches``.  Transitions are batched too: :func:`step_state` moves every
row with one vectorized evaluation of ``_kernels.swap_delta``'s expression,
and :func:`reset_state` costs every row with one sum, each bit-identical to
the per-row kernel call.  :func:`train` writes no files: it returns one row
per epoch and hands each row to an ``on_epoch`` callback, which may log or
checkpoint.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .core import check_field_types, check_type, make_rng
from .errors import NumericalAbortError, ValidationError
from .policy import InstanceBatch, SawtPolicy

__all__ = [
    "SearchState",
    "TrainConfig",
    "EvalResult",
    "reset_state",
    "step_state",
    "reinforce_update",
    "evaluate",
    "train",
]


@dataclass
class SearchState:
    """Batched improvement-search state over same-size instances."""

    sigma: np.ndarray  # (B, n) current assignment
    cost: np.ndarray  # (B,) current cost
    best_sigma: np.ndarray  # (B, n) incumbent assignment
    best_cost: np.ndarray  # (B,) incumbent cost


def reset_state(batch: InstanceBatch) -> SearchState:
    """Fresh search state: every episode starts at the identity assignment.

    The identity is its own incumbent; no random numbers are drawn.  Each
    row's cost is one sum over its n * n products, as ``objective`` takes it.
    """
    B, n = batch.size, batch.n
    flow, dist = batch.float64_matrices
    sigma = np.tile(np.arange(n, dtype=np.int64), (B, 1))
    cost = (flow * dist).reshape(B, n * n).sum(axis=1)
    return SearchState(sigma, cost, sigma.copy(), cost.copy())


def _batch_swap_delta(flow, dist, sigma, i, j) -> np.ndarray:
    """``swap_delta`` of swap (i[b], j[b]) on row b, for every row at once.

    The kernel's expression on (B, n) gathers; each row is summed along the
    last axis of a C-contiguous array, so every delta has the kernel's bits.
    """
    rows = np.arange(len(sigma))
    b = rows[:, None]
    si, sj = sigma[rows, i], sigma[rows, j]
    row_j, row_i = dist[b, sj[:, None], sigma], dist[b, si[:, None], sigma]
    col_j, col_i = dist[b, sigma, sj[:, None]], dist[b, sigma, si[:, None]]
    row = (flow[rows, i] - flow[rows, j]) * (row_j - row_i)
    col = (flow[rows, :, i] - flow[rows, :, j]) * (col_j - col_i)
    row_sum = row.sum(axis=-1) - row[rows, i] - row[rows, j]
    col_sum = col.sum(axis=-1) - col[rows, i] - col[rows, j]
    corner = (flow[rows, i, i] - flow[rows, j, j]) * (dist[rows, sj, sj] - dist[rows, si, si])
    corner += (flow[rows, i, j] - flow[rows, j, i]) * (dist[rows, sj, si] - dist[rows, si, sj])
    return row_sum + col_sum + corner


def step_state(batch: InstanceBatch, state: SearchState, swaps: np.ndarray) -> tuple[SearchState, np.ndarray]:
    """Apply one swap per element (unconditional accept); returns new state and rewards.

    Reward is ``max(0, best_cost - new_cost)``: positive only when the swap
    produces a new incumbent, by exactly the incumbent's improvement.  All
    rows move at once, each by the bits of its own ``swap_delta`` call.
    """
    swaps = np.asarray(swaps, dtype=np.int64)
    i, j = swaps[:, 0], swaps[:, 1]
    rows = np.arange(batch.size)
    cost = state.cost + _batch_swap_delta(*batch.float64_matrices, state.sigma, i, j)
    sigma = state.sigma.copy()
    sigma[rows, i], sigma[rows, j] = state.sigma[rows, j], state.sigma[rows, i]
    improved = cost < state.best_cost
    rewards = np.where(improved, state.best_cost - cost, 0.0)
    best_cost = np.where(improved, cost, state.best_cost)
    best_sigma = np.where(improved[:, None], sigma, state.best_sigma)
    return SearchState(sigma, cost, best_sigma, best_cost), rewards


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (defaults are desk-scale, minutes on a laptop).

    Attributes:
        epochs: Passes over the training set.
        batch_size: Episodes collected (and instances embedded) per update.
        episode_length: Swap steps per episode.
        return_window: Truncation horizon of the n-step return.
        gamma: Discount factor inside the window.
        entropy_beta: Initial entropy bonus coefficient (entropy is rewarded).
        entropy_decay: Per-epoch geometric decay of the entropy coefficient.
        value_coef: Weight of the critic's squared-error term.
        lr: Adam learning rate.
        seed: Master seed for shuffling, embeddings, and sampling.
        eval_every: Evaluate on held-out instances every k epochs (0 = never).
        eval_steps: Swap budget per instance during evaluation.
    """

    epochs: int = 30
    batch_size: int = 32
    episode_length: int = 64
    return_window: int = 8
    gamma: float = 0.99
    entropy_beta: float = 0.005
    entropy_decay: float = 0.99
    value_coef: float = 0.5
    lr: float = 1e-3
    seed: int = 0
    eval_every: int = 0
    eval_steps: int = 100

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_every < 0:
            raise ValidationError(f"eval_every must be >= 0 (0 = never), got {self.eval_every}")
        if self.batch_size < 1 or self.episode_length < 1:
            raise ValidationError("batch_size and episode_length must be positive")
        if self.return_window < 1 or self.eval_steps < 1:
            raise ValidationError("return_window and eval_steps must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.entropy_decay <= 1.0:
            raise ValidationError(f"entropy_decay must lie in (0, 1], got {self.entropy_decay}")
        if self.entropy_beta < 0 or self.value_coef < 0 or self.lr <= 0:
            raise ValidationError("entropy_beta/value_coef must be >= 0 and lr > 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _step_term(out, G: np.ndarray, value_coef: float, coef: float, scale: float):
    """Step t's loss term and its (policy, value, entropy) pieces.

    Each piece is summed over the batch and multiplied by ``scale = 1/(T*B)``,
    so the terms of all T steps add up to the episode loss, whose pieces are
    means over (T, B).  The advantage ``G - V`` is detached from the critic.
    """
    dt = out.value.dtype

    def const(x):
        return nn.Tensor.const(np.asarray(x, dtype=dt))

    advantage = G - out.value.data.astype(np.float64)
    policy_piece = nn.neg(nn.tensor_sum(nn.mul(out.log_prob, const(advantage * scale))))
    err = nn.sub(const(G), out.value)
    value_piece = nn.mul(nn.tensor_sum(nn.mul(err, err)), const(scale))
    entropy_piece = nn.mul(nn.tensor_sum(out.entropy), const(scale))
    term = nn.sub(
        nn.add(policy_piece, nn.mul(const(value_coef), value_piece)),
        nn.mul(const(coef), entropy_piece),
    )
    return term, policy_piece, value_piece, entropy_piece


def reinforce_update(
    policy: SawtPolicy,
    optimizer: nn.Adam,
    batch: InstanceBatch,
    config: TrainConfig,
    rng,
    epoch: int = 0,
) -> tuple[dict, SearchState]:
    """Roll out one episode batch and take one gradient step; returns (metrics, final state).

    Loss = -E[log pi * (G - V)] - beta * decay^epoch * E[H] + zeta * E[(G - V)^2],
    means over the T = ``episode_length`` steps and the batch, with the
    advantage detached from the critic.  Rollout and backward are streamed:
    the episode runs on leaf copies of the batch embeddings, and step t's term
    is back-propagated (and its graph dropped) as soon as reward
    t + ``return_window`` - 1 fixes its return, so at most ``return_window`` + 1
    step graphs are alive at once.  The accumulated leaf gradients then seed
    one backward through the embedding encoders before the single Adam step.

    A non-finite step term aborts with :class:`NumericalAbortError` before it
    is back-propagated, and so before the rest of the rollout; its diagnostics
    carry the epoch, the step and the partial sums.  A non-finite gradient
    aborts likewise before the optimizer steps.  Parameter gradients are
    cleared on every exit.
    """
    T, B, window, gamma = config.episode_length, batch.size, config.return_window, config.gamma
    coef = config.entropy_beta * config.entropy_decay**epoch
    scale = 1.0 / (T * B)
    fac_leaf = nn.Tensor(batch.fac_emb.data, requires_grad=True)
    loc_leaf = nn.Tensor(batch.loc_emb.data, requires_grad=True)
    leaf_batch = dataclasses.replace(batch, fac_emb=fac_leaf, loc_emb=loc_leaf)
    state = reset_state(leaf_batch)
    sums = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "return": 0.0, "reward": 0.0}

    def metrics_so_far() -> dict:
        return {
            "loss": sums["policy_loss"] + config.value_coef * sums["value_loss"] - coef * sums["entropy"],
            "policy_loss": sums["policy_loss"],
            "value_loss": sums["value_loss"],
            "entropy": sums["entropy"],
            "entropy_coef": float(coef),
            "mean_return": sums["return"] * scale,
            "mean_reward": sums["reward"] * scale,
        }

    pending: deque = deque()  # [step, ActionOutput, partial return] of steps awaiting rewards
    optimizer.zero_grad()
    try:
        for t in range(T):
            h_best = policy.encode(leaf_batch, state.best_sigma)
            h = policy.encode(leaf_batch, state.sigma)
            out = policy.act(h, h_best, rng=rng)
            state, rewards = step_state(leaf_batch, state, out.swaps)
            sums["reward"] += float(rewards.sum())
            pending.append([t, out, np.zeros(B)])
            for age, item in enumerate(reversed(pending)):
                item[2] += gamma**age * rewards
            # The oldest step's window is complete, or the episode is over.
            while pending and (len(pending) == window or t == T - 1):
                step, out, G = pending.popleft()
                term, *pieces = _step_term(out, G, config.value_coef, coef, scale)
                for key, piece in zip(("policy_loss", "value_loss", "entropy"), pieces):
                    sums[key] += float(piece.data)
                sums["return"] += float(G.sum())
                if not np.isfinite(term.data):
                    raise NumericalAbortError(
                        f"non-finite loss at step {step} of the policy update",
                        diagnostics={"epoch": epoch, "step": step, **metrics_so_far()},
                    )
                term.backward()

        metrics = metrics_so_far()
        for emb, leaf in ((batch.fac_emb, fac_leaf), (batch.loc_emb, loc_leaf)):
            if leaf.grad is not None:
                emb.backward(seed=leaf.grad)
        grad_sq = 0.0
        for p in policy.params.values():
            if p.grad is not None:
                grad_sq += float(np.sum(p.grad.astype(np.float64) ** 2))
        metrics["grad_norm"] = float(np.sqrt(grad_sq))
        if not np.isfinite(metrics["grad_norm"]):
            raise NumericalAbortError(
                "non-finite gradient during policy update",
                diagnostics={"epoch": epoch, **metrics},
            )
        optimizer.step()
    finally:
        optimizer.zero_grad()
    return metrics, state


@dataclass
class EvalResult:
    """Best costs found per instance within the evaluation swap budget.

    ``batches`` lists, in run order, each batch's instance indices and its
    measured wall time in seconds (embedding plus search).
    """

    best_costs: np.ndarray  # (N,)
    best_sigmas: list  # N arrays
    mean_cost: float
    batches: list = field(default_factory=list)  # (indices, wall_s) pairs


EVAL_BATCH_SIZE = 64


def _batches(instances, size: int, rng=None) -> list[list[int]]:
    """Index lists of at most ``size`` same-n instances, smallest n first.

    With ``rng``, every bucket's permutation is drawn before any batch runs.
    """
    by_n: dict[int, list[int]] = {}
    for idx, inst in enumerate(instances):
        by_n.setdefault(inst.n, []).append(idx)
    buckets = [by_n[n] for n in sorted(by_n)]
    if rng is not None:
        buckets = [rng.permutation(bucket).tolist() for bucket in buckets]
    return [bucket[lo : lo + size] for bucket in buckets for lo in range(0, len(bucket), size)]


def evaluate(policy: SawtPolicy, instances, steps: int = 100, seed: int = 0) -> EvalResult:
    """Sampled search from the identity on each instance; no gradients recorded.

    Same-size instances run in batches of up to ``EVAL_BATCH_SIZE``.  A
    ``steps=0`` budget reports the starting assignments unchanged and runs
    no encoder pass.  Each step encodes the current assignment once.  The
    best-so-far encoding starts as a copy of step 0's pass (the search starts
    at its incumbent); a row with a positive reward, exactly a row whose
    incumbent changed, has the new incumbent as its next current assignment,
    so that row is copied from the next step's pass.  Encoding is row-wise,
    so this equals encoding the incumbent itself.
    """
    instances = list(instances)
    if not instances:
        raise ValidationError("evaluate needs at least one instance")
    check_type("steps", steps, "int")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    rng = make_rng(seed)
    best_costs = np.zeros(len(instances), dtype=np.float64)
    best_sigmas: list = [None] * len(instances)
    batches = []
    with nn.no_grad():
        for idxs in _batches(instances, EVAL_BATCH_SIZE):
            tic = time.perf_counter()
            batch = policy.embed_instances([instances[i] for i in idxs], rng)
            state = reset_state(batch)
            h_best = None
            for _ in range(steps):
                h = policy.encode(batch, state.sigma)
                if h_best is None:  # step 0: the search starts at its incumbent
                    h_best = nn.Tensor.const(h.data.copy())
                else:
                    h_best.data[changed] = h.data[changed]
                out = policy.act(h, h_best, rng=rng)
                state, rewards = step_state(batch, state, out.swaps)
                changed = rewards > 0
            batches.append((idxs, time.perf_counter() - tic))
            for pos, idx in enumerate(idxs):
                best_costs[idx] = state.best_cost[pos]
                best_sigmas[idx] = state.best_sigma[pos].copy()
    return EvalResult(best_costs, best_sigmas, float(best_costs.mean()), batches)


def train(
    policy: SawtPolicy,
    instances,
    config: TrainConfig | None = None,
    eval_instances=None,
    start_epoch: int = 0,
    optimizer: nn.Adam | None = None,
    on_epoch=None,
) -> list[dict]:
    """Train ``policy`` on ``instances`` with batched n-step REINFORCE; return the epoch rows.

    Instances are bucketed by size (a batch never mixes sizes), shuffled each
    epoch, and embedded afresh per batch so the facility one-hot draw is
    resampled.  One optimizer step is taken per batch.  Each epoch's row (mean
    update metrics, plus ``eval_cost_mean`` on eval epochs) is passed to
    ``on_epoch`` as soon as it is complete.  ``start_epoch``/``optimizer``
    continue a resumed run: epoch numbering and entropy decay pick up where
    the checkpoint left off.
    """
    config = config or TrainConfig()
    instances = list(instances)
    if not instances:
        raise ValidationError("train needs at least one instance")
    if start_epoch < 0:
        raise ValidationError(f"start_epoch must be >= 0, got {start_epoch}")
    rng = make_rng(config.seed + start_epoch)
    optimizer = optimizer or nn.Adam(policy.params, lr=config.lr)
    rows: list[dict] = []
    for epoch in range(start_epoch, start_epoch + config.epochs):
        tic = time.perf_counter()
        epoch_metrics: list[dict] = []
        best_costs: list[float] = []
        for idxs in _batches(instances, config.batch_size, rng):
            batch = policy.embed_instances([instances[i] for i in idxs], rng)
            metrics, final = reinforce_update(policy, optimizer, batch, config, rng, epoch)
            epoch_metrics.append(metrics)
            best_costs.extend(final.best_cost.tolist())
        row = {
            "epoch": epoch,
            "updates": len(epoch_metrics),
            "best_cost_mean": float(np.mean(best_costs)),
            "wall_ms": int((time.perf_counter() - tic) * 1000),
        }
        for key in ("loss", "policy_loss", "value_loss", "entropy",
                    "entropy_coef", "mean_return", "grad_norm"):
            row[key] = float(np.mean([m[key] for m in epoch_metrics]))
        if eval_instances and config.eval_every and (epoch + 1) % config.eval_every == 0:
            ev = evaluate(
                policy, eval_instances, steps=config.eval_steps,
                seed=config.seed + 1_000_003 + epoch,
            )
            row["eval_cost_mean"] = ev.mean_cost
        rows.append(row)
        if on_epoch:
            on_epoch(row)
    return rows
