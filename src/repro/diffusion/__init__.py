"""RWR-based graph diffusion algorithms (Section IV of the paper)."""

from .base import DiffusionResult, validate_diffusion_inputs
from .batch import (
    BatchDiffusionResult,
    batch_adaptive_diffuse,
    batch_diffuse,
    batch_greedy_diffuse,
    batch_nongreedy_diffuse,
    validate_batch_inputs,
)
from .exact import exact_diffusion, exact_rwr, rwr_matrix
from .frontier import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from .push import push_diffuse
from .workspace import DiffusionWorkspace

__all__ = [
    "DiffusionResult",
    "DiffusionWorkspace",
    "BatchDiffusionResult",
    "validate_diffusion_inputs",
    "validate_batch_inputs",
    "exact_diffusion",
    "exact_rwr",
    "rwr_matrix",
    "greedy_diffuse",
    "nongreedy_diffuse",
    "adaptive_diffuse",
    "push_diffuse",
    "batch_diffuse",
    "batch_greedy_diffuse",
    "batch_nongreedy_diffuse",
    "batch_adaptive_diffuse",
]
