"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointError, ValidationError
from .tensor import Tensor

__all__ = ["Adam"]

# Kingma & Ba's defaults, the only values the trainer uses.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction and fixed ``BETA1``, ``BETA2``, ``EPS``.

    Moment buffers are float64 regardless of parameter dtype so that repeated
    tiny updates do not lose mass to rounding; updates are cast back to each
    parameter's dtype on write.  A freshly constructed optimizer given a zero
    gradient leaves parameters bit-for-bit unchanged.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        if not 0.0 < lr:
            raise ValidationError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.step_count = 0
        self.m = {k: np.zeros(t.shape, dtype=np.float64) for k, t in self.params.items()}
        self.v = {k: np.zeros(t.shape, dtype=np.float64) for k, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        """Apply one Adam update using each parameter's accumulated gradient.

        Parameters whose ``grad`` is ``None`` (unused in this graph) are
        treated as having a zero gradient: their moments decay but a fresh
        optimizer never moves them.
        """
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for name, t in self.params.items():
            g = np.zeros(t.shape, dtype=np.float64) if t.grad is None else t.grad.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            t.data = (t.data.astype(np.float64) - update).astype(t.data.dtype)

    # -- checkpoint plumbing ---------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for serialization (``m:<name>`` / ``v:<name>``)."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"m:{name}"] = self.m[name]
            out[f"v:{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.params:
            for prefix, slot in (("m", self.m), ("v", self.v)):
                key = f"{prefix}:{name}"
                if key not in arrays:
                    raise CheckpointError(f"optimizer state missing buffer {key!r}")
                src = arrays[key]
                if src.shape != slot[name].shape:
                    raise CheckpointError(
                        f"optimizer buffer {key!r} has shape {src.shape}, "
                        f"expected {slot[name].shape}"
                    )
                slot[name] = src.astype(np.float64)
        self.step_count = int(step_count)
