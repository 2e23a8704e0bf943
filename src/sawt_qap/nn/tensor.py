"""Minimal reverse-mode autodiff on numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
:meth:`Tensor.backward` on a scalar walks the recorded graph in reverse
topological order and accumulates gradients into every tensor that has
``requires_grad`` set.  Everything is batched: ops follow numpy broadcasting
and ``matmul`` semantics, and gradients are un-broadcast back to the operand
shapes.

Supported dtypes are float32 (training default) and float64 (for the
finite-difference gradient checks, which live with the tests).  Graph
recording can be suspended with :func:`no_grad` for evaluation rollouts.

Most of the cost of a training step is Python work per graph node, so the
policy's layers are fused: :func:`linear`, :func:`layer_norm` and
:func:`mixed_attention` (head split, scaled and mixed scores, softmax, value
product, head merge) each record one node with a hand-written backward.  Their
forwards evaluate the same numpy expressions, in the same order, as the
composites of primitives they replace (kept as test oracles), so outputs are
bit-identical to those composites.  They write their temporaries in place
(bias add, variance, square root and normalization, and the attention
scale, mix and softmax on the one score array), which saves passes, not
rounding steps.  :func:`relu` is ``fmax``-based and gives the bits of
``np.where(a > 0, a, 0)`` in a fraction of its time.

Every op's backward returns one ``(parent, grad)`` pair per parent, constants
included; :meth:`Tensor.backward` keeps only the gradients that reach a tracked
node or a ``requires_grad`` leaf.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "relu",
    "log",
    "xlogx",
    "tensor_sum",
    "mean",
    "tensor_max",
    "softmax",
    "concat",
    "reshape",
    "broadcast_to",
    "take_rows",
    "permute_rows",
    "layer_norm",
    "linear",
    "mixed_attention",
]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """An ndarray plus the tape machinery for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def param(data, name: str) -> "Tensor":
        return Tensor(data, requires_grad=True, name=name)

    @staticmethod
    def const(data) -> "Tensor":
        return Tensor(data)

    # -- basic introspection ---------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # -- graph ------------------------------------------------------------------
    def _track(self, parents: tuple["Tensor", ...], backward) -> "Tensor":
        if _grad_enabled and any(p.requires_grad for p in parents):
            self._parents = parents
            self._backward = backward
            self.requires_grad = True
        return self

    def zero_grad(self):
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this (scalar) tensor w.r.t. the graph."""
        if seed is None:
            if self.data.size != 1:
                raise ValidationError(
                    f"backward() without a seed needs a scalar, got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        pending: list[tuple[Tensor, bool]] = [(self, False)]
        while pending:
            node, processed = pending.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            pending.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    pending.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(seed, dtype=self.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    return out._track(parents, backward)


# ---------------------------------------------------------------------------
# Elementwise arithmetic.
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _make(a.data * b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: ((a, -g),))


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)`` with the bits of ``np.where(a > 0, a, 0.0)``.

    ``fmax`` maps NaN to 0 as the ``where`` does; adding +0 in place turns
    the -0 it may keep into +0.
    """
    out_data = np.fmax(a.data, 0)
    out_data += 0.0

    def backward(g):
        return ((a, g * (a.data > 0)),)

    return _make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, g / a.data),)

    return _make(np.log(a.data), (a,), backward)


def xlogx(a: Tensor) -> Tensor:
    """Elementwise ``x * log(x)`` with the continuous extension 0 at x = 0.

    The entropy of a distribution with exact zeros (masked actions) is then
    ``-sum(xlogx(p))`` without NaNs; the gradient at masked entries is 0.
    """
    pos = a.data > 0.0
    safe = np.where(pos, a.data, 1.0)
    out_data = np.where(pos, a.data * np.log(safe), 0.0)

    def backward(g):
        return ((a, g * np.where(pos, np.log(safe) + 1.0, 0.0)),)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra.
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy ``matmul`` broadcasting (>=2-D)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValidationError("matmul operands must be at least 2-D")

    def backward(g):
        return (
            (a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)),
            (b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)),
        )

    return _make(a.data @ b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# Reductions.
# ---------------------------------------------------------------------------


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over ``axis``, or over every element when ``axis`` is ``None``."""

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg, a.shape).copy()),)

    return _make(a.data.sum(axis=axis), (a,), backward)


def mean(a: Tensor, axis: int) -> Tensor:
    """Mean over ``axis``, which is dropped from the shape."""
    count = a.data.shape[axis]

    def backward(g):
        return ((a, np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy()),)

    return _make(a.data.mean(axis=axis), (a,), backward)


def tensor_max(a: Tensor, axis: int) -> Tensor:
    """Max over ``axis``, which is dropped; the gradient splits evenly over ties."""
    out_data = a.data.max(axis=axis, keepdims=True)
    mask = a.data == out_data
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(g):
        return ((a, mask * (np.expand_dims(g, axis) / counts)),)

    return _make(out_data.squeeze(axis), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction); -inf logits give exact 0."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return ((a, out_data * (g - dot)),)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation.
# ---------------------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer[axis] = slice(start, stop)
            outs.append((t, g[tuple(slicer)]))
        return tuple(outs)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        return ((a, g.reshape(a.shape)),)

    return _make(a.data.reshape(shape), (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.shape)),)

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


# ---------------------------------------------------------------------------
# Indexed gathers (batch-aware).
# ---------------------------------------------------------------------------


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select one row per batch element: (B, n, ...) x (B,) -> (B, ...)."""
    idx = np.asarray(idx, dtype=np.int64)
    batch = np.arange(a.shape[0])

    def backward(g):
        out = np.zeros_like(a.data)
        out[batch, idx] = g  # one row per batch element: no index repeats
        return ((a, out),)

    return _make(a.data[batch, idx], (a,), backward)


def permute_rows(a: Tensor, perm: np.ndarray) -> Tensor:
    """Reorder rows per batch element: (B, n, d) x (B, n) -> (B, n, d)."""
    perm = np.asarray(perm, dtype=np.int64)
    batch = np.arange(a.shape[0])[:, None]

    def backward(g):
        out = np.zeros_like(a.data)
        out[batch, perm] = g  # a permutation per batch element: no index repeats
        return ((a, out),)

    return _make(a.data[batch, perm], (a,), backward)


# ---------------------------------------------------------------------------
# Fused layers: one graph node each, with a hand-written backward.  Each
# forward evaluates the same numpy expressions, in the same order, as the
# composite of primitives it replaces, so its output is bit-identical to it;
# every array it writes in place is one it just allocated.
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis (weight is (in, out))."""
    if x.ndim < 2 or weight.ndim != 2:
        raise ValidationError("linear needs x of at least 2-D and a 2-D weight")
    if bias is not None and bias.shape != weight.shape[1:]:
        raise ValidationError(f"bias shape {bias.shape} does not match weight {weight.shape}")
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data

    def backward(g):
        # The batch axes fold into the rows of one 2-D product.
        g2 = g.reshape(-1, g.shape[-1])
        grads = [(x, g @ weight.data.T), (weight, x.data.reshape(-1, x.shape[-1]).T @ g2)]
        if bias is not None:
            grads.append((bias, g2.sum(axis=0)))
        return grads

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """LayerNorm over the last axis with learnable gain/bias (Ba et al. 2016).

    ``LAYER_NORM_EPS`` is added to the variance in the input's dtype.
    """
    normed = a.data - a.data.mean(axis=-1, keepdims=True)
    std = (normed * normed).mean(axis=-1, keepdims=True)
    std += np.asarray(LAYER_NORM_EPS, dtype=a.dtype)
    np.sqrt(std, out=std)
    normed /= std
    out_data = normed * gain.data
    out_data += bias.data

    def backward(g):
        gn = g * gain.data
        gx = gn - gn.mean(axis=-1, keepdims=True)
        gx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
        return (
            (a, gx / std),
            (gain, _unbroadcast(g * normed, gain.shape)),
            (bias, _unbroadcast(g, bias.shape)),
        )

    return _make(out_data, (a, gain, bias), backward)


def mixed_attention(q: Tensor, k: Tensor, v: Tensor, mix: np.ndarray,
                    scale: float, n_heads: int) -> Tensor:
    """Multi-head attention whose scaled scores are multiplied by ``mix``.

    ``q``, ``k`` and ``v`` are (B, n, d) and split into ``n_heads`` heads of
    width d / n_heads.  ``mix`` is a constant (B, n, n) array shared by all
    heads (no gradient reaches it).  Per head the output is
    ``softmax(Q Kᵀ · scale · mix) V``; the heads are merged back to (B, n, d).
    The backward reuses the stored softmax.
    """
    b, n, d = q.shape
    if d % n_heads:
        raise ValidationError(f"width {d} is not divisible by n_heads={n_heads}")
    heads = (b, n, n_heads, d // n_heads)
    qh = q.data.reshape(heads).transpose(0, 2, 1, 3)
    kh = k.data.reshape(heads).transpose(0, 2, 1, 3)
    vh = v.data.reshape(heads).transpose(0, 2, 1, 3)
    scale_arr = np.asarray(scale, dtype=q.dtype)
    mix_h = np.asarray(mix, dtype=q.dtype).reshape(b, 1, n, n)
    att = qh @ kh.transpose(0, 1, 3, 2)
    att *= scale_arr
    att *= mix_h
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, n, d)

    def backward(g):
        gh = g.reshape(heads).transpose(0, 2, 1, 3)
        g_att = gh @ vh.transpose(0, 1, 3, 2)
        g_scores = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))
        g_scores *= mix_h
        g_scores *= scale_arr
        return (
            (v, merge(att.transpose(0, 1, 3, 2) @ gh)),
            (q, merge(g_scores @ kh)),
            (k, merge(g_scores.transpose(0, 1, 3, 2) @ qh)),
        )

    return _make(merge(att @ vh), (q, k, v), backward)
