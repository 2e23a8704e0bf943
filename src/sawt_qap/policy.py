"""Solution-aware transformer policy for swap-based QAP search.

The policy scores pairwise exchanges of the current assignment.  Its encoder
stack injects the *solution-aware matrix* ``M_sigma = F * D[sigma, sigma]``
(the elementwise contribution of every facility pair to the current cost)
directly into each attention head, so attention weights are tied to the
objective landscape rather than to generic learned similarity.

Architecture, bottom to top:

* **Location encoder** — linear lift of 2-D coordinates followed by
  ``gcn_layers`` residual ReLU message-passing rounds over the distance
  matrix.
* **Facility encoder** — the flow matrix has no node features, so each
  facility starts as a one-hot row drawn without replacement from a pool of
  ``n_init`` indicator vectors; two attention blocks whose pre-softmax scores
  are multiplied elementwise by the flow matrix then turn raw flow structure
  into embeddings.
* **Solution-aware encoder** — facility and (permuted) location embeddings
  are concatenated and mixed by ``n_layers`` transformer blocks whose
  attention logits are gated by ``M_sigma``.
* **Heads** — two pointer-style MLPs factorize the swap distribution
  ``p(i, j) = p1(i) * p2(j | i)``; a scalar critic regresses the expected
  return from the mean node encoding plus a max-pooled summary of the
  best-so-far assignment's encoding.  The caller passes both encodings in:
  a new incumbent is always the assignment that search encodes as current
  on its next step, so search takes the incumbent's encoding from that pass
  and runs one encoder pass per step.

Everything runs on the in-package autodiff tensors; batches must share one
instance size.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from . import nn
from ._kernels import objective as _objective_kernel
from .core import QapInstance, check_field_types, make_rng
from .errors import CheckpointError, ValidationError
from .nn import Tensor

__all__ = [
    "SawtConfig",
    "SawtPolicy",
    "InstanceBatch",
    "ActionOutput",
    "save_policy",
    "load_policy",
]

@dataclass(frozen=True)
class SawtConfig:
    """Hyperparameters of the policy network.

    Attributes:
        d_emb: Width of every embedding and encoder layer.
        n_heads: Attention heads in the solution-aware blocks.
        n_layers: Number of solution-aware transformer blocks.
        n_init: Size of the one-hot pool for facility initialization; must be
            at least the largest instance size the policy will see.
        gcn_layers: Residual message-passing rounds in the location encoder.
        fac_blocks: Flow-mixed attention blocks in the facility encoder.
        ffn_mult: Feed-forward expansion factor inside encoder blocks.
        dtype: ``"float32"`` for training, ``"float64"`` for gradient checks.
        debug_checks: When set, every forward pass asserts that the
            solution-aware matrix sums to the assignment cost.
    """

    d_emb: int = 64
    n_heads: int = 8
    n_layers: int = 3
    n_init: int = 128
    gcn_layers: int = 3
    fac_blocks: int = 2
    ffn_mult: int = 4
    dtype: str = "float32"
    debug_checks: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.d_emb < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ValidationError("d_emb, n_heads and n_layers must be positive")
        if self.d_emb % self.n_heads != 0:
            raise ValidationError(
                f"d_emb ({self.d_emb}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.n_init < 2:
            raise ValidationError(f"n_init must be at least 2, got {self.n_init}")
        if self.gcn_layers < 0 or self.fac_blocks < 1 or self.ffn_mult < 1:
            raise ValidationError("gcn_layers must be >= 0, fac_blocks/ffn_mult >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValidationError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def d_head(self) -> int:
        return self.d_emb // self.n_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class InstanceBatch:
    """Embedded batch of same-size instances, ready for encoder passes.

    ``fac_emb``/``loc_emb`` are graph-attached tensors: gradients flow back
    into the facility and location encoders.  Rebuild the batch after every
    optimizer step (and per rollout, so the one-hot draw is resampled).
    """

    instances: list
    flow: np.ndarray  # (B, n, n) float
    dist: np.ndarray  # (B, n, n) float
    fac_emb: Tensor  # (B, n, d)
    loc_emb: Tensor  # (B, n, d)

    @property
    def size(self) -> int:
        return self.flow.shape[0]

    @property
    def n(self) -> int:
        return self.flow.shape[1]

    @functools.cached_property
    def float64_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The instances' float64 flow and distance, each stacked to (B, n, n).

        ``flow``/``dist`` hold the policy's dtype; search costs are float64.
        """
        return (np.stack([inst.flow for inst in self.instances]),
                np.stack([inst.distance for inst in self.instances]))

    def solution_aware(self, sigma: np.ndarray) -> np.ndarray:
        """Batched ``M_sigma = F * D[sigma, sigma]`` for sigma of shape (B, n).

        The package's one solution-aware matrix: ``M[b, i, j]`` is pair
        (i, j)'s contribution to row b's cost, so each ``M[b]`` sums to it.
        """
        b = np.arange(self.size)[:, None, None]
        return self.flow * self.dist[b, sigma[:, :, None], sigma[:, None, :]]


@dataclass
class ActionOutput:
    """One policy step over a batch: sampled swaps plus graph-attached stats."""

    a1: np.ndarray  # (B,) first swap index
    a2: np.ndarray  # (B,) second swap index, != a1
    log_prob: Tensor  # (B,)
    entropy: Tensor  # (B,) H(p1) + H(p2 | a1)
    value: Tensor  # (B,) critic estimate
    p1: np.ndarray = field(repr=False, default=None)  # (B, n) head-1 probabilities
    p2: np.ndarray = field(repr=False, default=None)  # (B, n) head-2 probabilities

    @property
    def swaps(self) -> np.ndarray:
        """Swap pairs normalized to i < j, shape (B, 2)."""
        lo = np.minimum(self.a1, self.a2)
        hi = np.maximum(self.a1, self.a2)
        return np.stack([lo, hi], axis=1)


class SawtPolicy:
    """Actor-critic network over swap actions (see module docstring)."""

    def __init__(self, config: SawtConfig | None = None, seed: int = 0):
        self.config = config or SawtConfig()
        self._np_dtype = np.float32 if self.config.dtype == "float32" else np.float64
        self.params: dict[str, Tensor] = {}
        self._init_params(make_rng(seed))

    # -- parameter construction -------------------------------------------------
    def _add_linear(self, rng, name: str, fan_in: int, fan_out: int, bias: bool = True):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(self._np_dtype)
        self.params[f"{name}.w"] = Tensor.param(w, f"{name}.w")
        if bias:
            b = rng.uniform(-bound, bound, size=(fan_out,)).astype(self._np_dtype)
            self.params[f"{name}.b"] = Tensor.param(b, f"{name}.b")

    def _add_layer_norm(self, name: str, dim: int):
        self.params[f"{name}.g"] = Tensor.param(
            np.ones(dim, dtype=self._np_dtype), f"{name}.g"
        )
        self.params[f"{name}.b"] = Tensor.param(
            np.zeros(dim, dtype=self._np_dtype), f"{name}.b"
        )

    def _init_params(self, rng):
        cfg = self.config
        d = cfg.d_emb
        # Location encoder: coordinate lift + residual GCN rounds.
        self._add_linear(rng, "loc.lift", 2, d)
        for l in range(cfg.gcn_layers):
            self._add_linear(rng, f"loc.gcn{l}", d, d)
        # Facility encoder: flow-mixed attention blocks + output projection.
        in_dim = cfg.n_init
        for b in range(cfg.fac_blocks):
            for proj in ("wq", "wk", "wv"):
                self._add_linear(rng, f"fac.b{b}.{proj}", in_dim, d)
            in_dim = d
        self._add_linear(rng, "fac.out", d, d)
        # Solution-aware encoder.
        self._add_linear(rng, "enc.fuse", 2 * d, d, bias=False)
        for l in range(cfg.n_layers):
            for proj in ("wq", "wk", "wv", "wo"):
                self._add_linear(rng, f"enc.l{l}.{proj}", d, d)
            self._add_layer_norm(f"enc.l{l}.ln1", d)
            self._add_linear(rng, f"enc.l{l}.ffn1", d, cfg.ffn_mult * d)
            self._add_linear(rng, f"enc.l{l}.ffn2", cfg.ffn_mult * d, d)
            self._add_layer_norm(f"enc.l{l}.ln2", d)
        # Swap heads: p1 over first index, p2 conditioned on it.
        for i, fan in enumerate((2 * d, d, d)):
            self._add_linear(rng, f"head1.l{i}", fan, d if i < 2 else 1)
        for i, fan in enumerate((3 * d, d, d)):
            self._add_linear(rng, f"head2.l{i}", fan, d if i < 2 else 1)
        # Critic.
        self._add_linear(rng, "value.l0", d, d)
        self._add_linear(rng, "value.l1", d, 1)

    def describe(self) -> dict:
        """Parameter census: per-tensor shapes/counts and the grand total."""
        entries = [
            {"name": k, "shape": list(t.shape), "count": int(np.prod(t.shape or (1,)))}
            for k, t in self.params.items()
        ]
        return {
            "config": self.config.to_dict(),
            "parameters": entries,
            "total_parameters": int(sum(e["count"] for e in entries)),
        }

    # -- small layer helpers -----------------------------------------------------
    def _linear(self, name: str, x: Tensor) -> Tensor:
        return nn.linear(x, self.params[f"{name}.w"], self.params.get(f"{name}.b"))

    def _layer_norm(self, name: str, x: Tensor) -> Tensor:
        return nn.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    # -- instance embedding -------------------------------------------------------
    def embed_instances(self, instances, rng) -> InstanceBatch:
        """Encode a same-size batch of instances (facility + location passes).

        ``rng`` draws each instance's one-hot facility initialization from the
        ``n_init`` pool (without replacement), so embeddings are stochastic
        across calls unless the generator state is fixed.
        """
        instances = list(instances)
        if not instances:
            raise ValidationError("embed_instances needs at least one instance")
        n = instances[0].n
        cfg = self.config
        for inst in instances:
            if inst.n != n:
                raise ValidationError(
                    f"batch mixes instance sizes {n} and {inst.n}; bucket by size"
                )
            if inst.coords is None:
                raise ValidationError(
                    f"instance {inst.name!r} has no coordinates; the location "
                    "encoder requires coordinate-based instances"
                )
        if n > cfg.n_init:
            raise ValidationError(
                f"instance size {n} exceeds one-hot pool n_init={cfg.n_init}"
            )
        B = len(instances)
        dt = self._np_dtype
        flow = np.stack([inst.flow for inst in instances]).astype(dt)
        dist = np.stack([inst.distance for inst in instances]).astype(dt)
        coords = np.stack([inst.coords for inst in instances]).astype(dt)

        # Location pass: lift coordinates, then distance-weighted message passing.
        dist_t = Tensor.const(dist)
        loc = self._linear("loc.lift", Tensor.const(coords))
        for l in range(cfg.gcn_layers):
            msg = self._linear(f"loc.gcn{l}", nn.matmul(dist_t, loc))
            loc = nn.add(loc, nn.relu(msg))

        # Facility pass: one-hot pool draw, then flow-mixed attention blocks.
        onehot = np.zeros((B, n, cfg.n_init), dtype=dt)
        for b in range(B):
            pick = rng.permutation(cfg.n_init)[:n]
            onehot[b, np.arange(n), pick] = 1.0
        fac = Tensor.const(onehot)
        in_dim = cfg.n_init
        for blk in range(cfg.fac_blocks):
            q = self._linear(f"fac.b{blk}.wq", fac)
            k = self._linear(f"fac.b{blk}.wk", fac)
            v = self._linear(f"fac.b{blk}.wv", fac)
            fac = nn.mixed_attention(q, k, v, flow, 1.0 / np.sqrt(in_dim), cfg.n_heads)
            in_dim = cfg.d_emb
        fac = self._linear("fac.out", fac)
        return InstanceBatch(instances, flow, dist, fac, loc)

    # -- solution-aware encoder -----------------------------------------------------
    def encode(self, batch: InstanceBatch, sigma: np.ndarray) -> Tensor:
        """Node encodings (B, n, d) of assignment ``sigma`` under the batch."""
        sigma = np.asarray(sigma, dtype=np.int64)
        if sigma.shape != (batch.size, batch.n):
            raise ValidationError(
                f"sigma must have shape {(batch.size, batch.n)}, got {sigma.shape}"
            )
        cfg = self.config
        m = batch.solution_aware(sigma)
        if cfg.debug_checks:
            costs = np.array(
                [
                    _objective_kernel(
                        batch.flow[b].astype(np.float64),
                        batch.dist[b].astype(np.float64),
                        sigma[b],
                    )
                    for b in range(batch.size)
                ]
            )
            if not np.allclose(m.sum(axis=(1, 2)), costs, rtol=1e-4, atol=1e-4):
                raise AssertionError(
                    "solution-aware matrix does not sum to assignment cost; "
                    f"got {m.sum(axis=(1, 2))}, expected {costs}"
                )
        loc_perm = nn.permute_rows(batch.loc_emb, sigma)
        h = self._linear("enc.fuse", nn.concat([batch.fac_emb, loc_perm], axis=-1))
        scale = 1.0 / np.sqrt(cfg.d_head)
        for l in range(cfg.n_layers):
            q = self._linear(f"enc.l{l}.wq", h)
            k = self._linear(f"enc.l{l}.wk", h)
            v = self._linear(f"enc.l{l}.wv", h)
            att = nn.mixed_attention(q, k, v, m, scale, cfg.n_heads)
            h = self._layer_norm(f"enc.l{l}.ln1", nn.add(h, self._linear(f"enc.l{l}.wo", att)))
            ffn = self._linear(f"enc.l{l}.ffn2", nn.relu(self._linear(f"enc.l{l}.ffn1", h)))
            h = self._layer_norm(f"enc.l{l}.ln2", nn.add(h, ffn))
        return h

    # -- heads ------------------------------------------------------------------------
    def _mlp(self, prefix: str, x: Tensor) -> Tensor:
        x = nn.relu(self._linear(f"{prefix}.l0", x))
        x = nn.relu(self._linear(f"{prefix}.l1", x))
        return self._linear(f"{prefix}.l2", x)

    def act(
        self,
        h: Tensor,
        h_best: Tensor,
        rng=None,
        forced: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> ActionOutput:
        """Score and pick one swap per batch element.

        Runs no encoder pass: ``h`` is the (B, n, d_emb) encoding of the
        current assignment, ``encode(batch, sigma)``, and ``h_best`` that of
        the best-so-far assignment, ``encode(batch, best_sigma)``.  The
        caller owns both, so search can take a new incumbent's encoding from
        the pass that encoded it as the current assignment, while training
        passes graph-attached encodings.  The swap distribution factorizes
        as ``p1(i) * p2(j | i)`` with ``j = i`` masked out.  ``rng`` samples
        both actions; ``forced`` pins them instead (gradient checks and
        deterministic tests).
        """
        if forced is None and rng is None:
            raise ValidationError("act needs an rng to sample, or forced actions")
        B, n = h.shape[:2]
        if h_best.shape != (B, n, self.config.d_emb):
            raise ValidationError(
                f"h_best must have shape {(B, n, self.config.d_emb)}, got {h_best.shape}"
            )
        h_star = nn.tensor_max(h_best, axis=1)  # (B, d) best-assignment summary
        star_bc = nn.broadcast_to(nn.reshape(h_star, (B, 1, self.config.d_emb)),
                                  (B, n, self.config.d_emb))

        logits1 = nn.reshape(self._mlp("head1", nn.concat([star_bc, h], axis=-1)), (B, n))
        p1 = nn.softmax(logits1, axis=-1)
        a1 = (
            np.asarray(forced[0], dtype=np.int64)
            if forced is not None
            else self._sample(p1.data, rng)
        )

        h_a1 = nn.take_rows(h, a1)  # (B, d)
        a1_bc = nn.broadcast_to(nn.reshape(h_a1, (B, 1, self.config.d_emb)),
                                (B, n, self.config.d_emb))
        logits2 = nn.reshape(
            self._mlp("head2", nn.concat([star_bc, h, a1_bc], axis=-1)), (B, n)
        )
        mask = np.zeros((B, n), dtype=self._np_dtype)
        mask[np.arange(B), a1] = -np.inf
        logits2 = nn.add(logits2, Tensor.const(mask))
        p2 = nn.softmax(logits2, axis=-1)
        a2 = (
            np.asarray(forced[1], dtype=np.int64)
            if forced is not None
            else self._sample(p2.data, rng)
        )

        log_prob = nn.add(
            nn.log(nn.take_rows(p1, a1)), nn.log(nn.take_rows(p2, a2))
        )
        entropy = nn.neg(
            nn.add(
                nn.tensor_sum(nn.xlogx(p1), axis=-1),
                nn.tensor_sum(nn.xlogx(p2), axis=-1),
            )
        )

        pooled = nn.add(nn.mean(h, axis=1), h_star)
        value = nn.reshape(
            self._linear("value.l1", nn.relu(self._linear("value.l0", pooled))), (B,)
        )
        return ActionOutput(a1, a2, log_prob, entropy, value, p1.data, p2.data)

    @staticmethod
    def _sample(probs: np.ndarray, rng) -> np.ndarray:
        """Inverse-CDF sampling, one uniform draw per row."""
        cum = np.cumsum(probs.astype(np.float64), axis=-1)
        cum /= cum[:, -1:]
        u = rng.random(probs.shape[0])
        return (cum < u[:, None]).sum(axis=-1).astype(np.int64)

    # -- persistence ---------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing parameter {name!r}")
            src = arrays[name]
            if tuple(src.shape) != t.shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {tuple(src.shape)}, expected {t.shape}"
                )
            t.data = src.astype(self._np_dtype)


def save_policy(path, policy: SawtPolicy, optimizer: nn.Adam | None = None,
                meta: dict | None = None) -> None:
    """Checkpoint a policy (and optionally its Adam state) to ``path``."""
    arrays = dict(policy.state_arrays())
    header = {
        "kind": "sawt-policy",
        "config": policy.config.to_dict(),
        "meta": meta or {},
        "adam_step": optimizer.step_count if optimizer is not None else None,
    }
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    nn.save_checkpoint(path, arrays, header)


def load_policy(path, optimizer_factory=None):
    """Restore a policy saved by :func:`save_policy`.

    Returns ``(policy, optimizer, meta)``; ``optimizer`` is ``None`` unless
    the checkpoint holds Adam state and ``optimizer_factory`` (a callable
    ``params -> Adam``) is given.
    """
    arrays, header = nn.load_checkpoint(path)
    if header.get("kind") != "sawt-policy":
        raise CheckpointError(f"not a policy checkpoint: kind={header.get('kind')!r}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise CheckpointError(f"policy checkpoint has no config object: config={config!r}")
    try:
        config = SawtConfig(**config)
    except (TypeError, ValidationError) as err:
        raise CheckpointError(f"policy checkpoint config rejected: {err}") from None
    policy = SawtPolicy(config, seed=0)
    policy.load_state_arrays(arrays)
    optimizer = None
    if optimizer_factory is not None and header.get("adam_step") is not None:
        optimizer = optimizer_factory(policy.params)
        optimizer.load_state_arrays(arrays, header["adam_step"])
    return policy, optimizer, header.get("meta", {})
