"""Quadratic assignment toolkit.

Instance generation and QAPLIB ingestion, classical baselines (exhaustive
search, 2-swap descent, tabu search, spectral matching), and a
solution-aware transformer improvement policy trained with n-step REINFORCE
on a from-scratch numpy autodiff engine.
"""

from .core import (
    Assignment,
    QapInstance,
    all_swap_deltas,
    apply_swap,
    gap,
    generate_instance,
    identity_assignment,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    make_rng,
    objective,
    objective_gradient,
    objective_trace,
    swap_delta,
)
from .errors import (
    CheckpointError,
    NumericalAbortError,
    ParseError,
    SawtQapError,
    SizeLimitError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Assignment",
    "QapInstance",
    "all_swap_deltas",
    "apply_swap",
    "gap",
    "generate_instance",
    "identity_assignment",
    "instance_from_dict",
    "instance_from_json",
    "instance_to_dict",
    "instance_to_json",
    "make_rng",
    "objective",
    "objective_gradient",
    "objective_trace",
    "swap_delta",
    "CheckpointError",
    "NumericalAbortError",
    "ParseError",
    "SawtQapError",
    "SizeLimitError",
    "ValidationError",
]
