"""Span tracer that wraps sawt_qap's public functions from outside the package.

``install`` replaces every public function of the traced modules, and the
public methods of their classes, by a wrapper that records a span (name,
start, end, parent) while the tracer is active.  Every binding of the
original function in any ``sawt_qap`` module is replaced too, so calls made
through ``from .x import f`` imports and module globals are seen.

The span stack is one list shared by all threads.  That is exact only while
one thread at a time runs traced code, which holds for the CLI with
``--threads 1``: its single pool worker runs while the main thread waits.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = {
    "sawt_qap.cli": "cli",
    "sawt_qap.core": "core",
    "sawt_qap.qaplib": "qaplib",
    "sawt_qap.solvers": "solvers",
    "sawt_qap._kernels": "kernels",
    "sawt_qap.policy": "policy",
    "sawt_qap.nn.tensor": "nn",
    "sawt_qap.nn.optim": "nn",
    "sawt_qap.nn.checkpoint": "nn",
    "sawt_qap.rl": "rl",
}
# Functions of nn.tensor that are not graph ops.
_NOT_OPS = {"no_grad", "is_grad_enabled", "fd_gradient", "gradcheck"}
# Span names of methods: a "Class.method" entry wins over a "Class" pattern;
# any other method is named "<layer>.<Class>.<method>".
_METHOD_NAMES = {
    "SawtPolicy": "policy.{}",
    "Tensor.backward": "nn.backward",
    "Adam.step": "nn.adam_step",
}


class Tracer:
    """In-memory spans plus per-name nesting bookkeeping."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []  # no ancestor span of the same name
        self.layer_outer: list[bool] = []  # no ancestor span of the same layer
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        count_flop = name == "kernels.all_swap_deltas"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.outer.append(self._depth[name] == 0)
            self.layer_outer.append(self._depth[layer] == 0)
            self.ends.append(0)
            self._stack.append(idx)
            self._depth[name] += 1
            self._depth[layer] += 1
            if count_flop:
                n = args[0].shape[0]
                self.counts["kernels.all_swap_deltas.flop"] += 4 * n**3  # two n x n matmuls
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()
                self._depth[name] -= 1
                self._depth[layer] -= 1

        return traced

    def summary(self) -> dict[str, float]:
        """Totals per span name and per layer.

        ``<name>.s`` sums the outermost spans of a name, ``<name>.self_s``
        sums span time outside child spans, ``<name>.calls`` counts spans;
        ``<layer>.s`` and ``<layer>.self_s`` do the same per layer.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            self_s = (dur[i] - child[i]) / 1e9
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            if self.outer[i]:
                out[f"{name}.s"] += dur[i] / 1e9
            if self.layer_outer[i]:
                out[f"{layer}.s"] += dur[i] / 1e9
        out.update(self.counts)
        return dict(out)

    def spans(self) -> dict:
        """Spans as parallel lists, for writing out when the run ends."""
        return {"name": self.names, "start_ns": self.starts, "end_ns": self.ends,
                "parent": self.parents}


def _span_name(layer: str, module, attr: str) -> str:
    if layer == "nn" and module.__name__ == "sawt_qap.nn.tensor" and attr not in _NOT_OPS:
        return f"nn.op.{attr}"
    if layer == "kernels" and attr.endswith("_numpy"):
        # Name a numpy-flavour kernel after its dispatch alias unless that
        # alias is a distinct function (the exact-search dispatcher).
        alias = attr[: -len("_numpy")]
        if getattr(module, alias, None) in (None, getattr(module, attr)):
            return f"kernels.{alias}"
    return f"{layer}.{attr}"


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and methods (imports them)."""
    import sawt_qap.cli  # noqa: F401  (loads every traced module)

    wrapped: dict[int, tuple[object, object]] = {}
    for modname, layer in LAYERS.items():
        module = sys.modules[modname]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, types.FunctionType):
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = (obj, tracer.wrap(_span_name(layer, module, attr), obj))
            elif isinstance(obj, type):
                for mname, method in list(vars(obj).items()):
                    if mname.startswith("_") or not isinstance(method, types.FunctionType):
                        continue
                    key = f"{obj.__name__}.{mname}"
                    pattern = _METHOD_NAMES.get(key) or _METHOD_NAMES.get(obj.__name__)
                    name = pattern.format(mname) if pattern else f"{layer}.{key}"
                    setattr(obj, mname, tracer.wrap(name, method))
    for modname, module in list(sys.modules.items()):
        if modname != "sawt_qap" and not modname.startswith("sawt_qap."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
