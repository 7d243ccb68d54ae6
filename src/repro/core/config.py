"""Configuration objects for LACA."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["LacaConfig"]


@dataclass(frozen=True)
class LacaConfig:
    """Hyper-parameters of LACA (Algo 3 + Algo 4).

    Attributes
    ----------
    alpha:
        RWR restart factor α ∈ (0, 1); mass moves with probability α.
        Paper's parameter study (Fig. 9a/b) favors large values, 0.8-0.9.
    sigma:
        AdaptiveDiffuse balancing parameter σ ≥ 0; small values run more
        one-shot (non-greedy) iterations (Fig. 9c/d favors ≤ 0.1), and
        σ ≥ 1 runs none, which is GreedyDiffuse (Lemma IV.3).  Only the
        "adaptive" engine reads it.
    epsilon:
        Diffusion threshold ε; output volume and work are O(1/((1-α)ε)).
    k:
        TNAM dimension (paper default 32; Fig. 9e/f).
    metric:
        SNAS metric: "cosine" → LACA (C), "exp_cosine" → LACA (E).
    delta:
        Sensitivity of the exponential cosine metric.
    use_snas:
        Table VI ablation switch — False replaces SNAS by the identity
        (LACA w/o SNAS, the non-attributed variant of Section II-C).
    use_svd:
        Table VI ablation switch — False skips the k-SVD denoising.
    diffusion:
        The Step 1 / Step 3 diffusion engine.  "adaptive" is Algo 2: each
        iteration converts either the above-threshold batch or every
        residual, chosen by σ and a cost budget.  "greedy" is Algo 1,
        the above-threshold batch only (the w/o-AdaptiveDiffuse
        ablation; the same bits as "adaptive" with σ ≥ 1).  "nongreedy"
        converts every residual each iteration (Eq. 17).  "push" converts
        one node at a time from a queue (the traversal baseline).
    """

    alpha: float = 0.8
    sigma: float = 0.1
    epsilon: float = 1e-6
    k: int = 32
    metric: str = "cosine"
    delta: float = 1.0
    use_snas: bool = True
    use_svd: bool = True
    diffusion: str = "adaptive"

    def with_updates(self, **changes) -> "LacaConfig":
        """Functional update helper (configs are frozen)."""
        return replace(self, **changes)

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.diffusion not in ("adaptive", "greedy", "nongreedy", "push"):
            raise ValueError(f"unknown diffusion engine {self.diffusion!r}")
