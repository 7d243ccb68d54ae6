"""RWR-based graph diffusion algorithms (Section IV of the paper)."""

from .base import DiffusionResult, validate_diffusion_inputs
from .batch import batch_diffuse, validate_batch_inputs
from .exact import exact_diffusion, exact_rwr, rwr_matrix
from .frontier import adaptive_diffuse, greedy_diffuse, nongreedy_diffuse
from .push import push_diffuse

__all__ = [
    "DiffusionResult",
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
]
