"""Fig. 5: greedy vs non-greedy convergence (residual sum per iteration).

The paper plots ``‖r‖₁`` at the end of each iteration for GreedyDiffuse
and its non-greedy variant on PubMed (ε = 1e-5) and ArXiv (ε = 1e-7),
showing the greedy strategy needs several times more iterations to drive
the residual down — the observation motivating AdaptiveDiffuse.
"""

from __future__ import annotations

import numpy as np

from ..diffusion import greedy_diffuse, nongreedy_diffuse
from ..eval.reporting import format_series
from .common import prepared

__all__ = ["run", "main"]

#: (dataset, epsilon) pairs mirroring Fig. 5(a) and 5(b).
DEFAULT_SETTINGS = [("pubmed", 1e-5), ("arxiv", 1e-5)]
#: (At our scaled-down sizes, ε=1e-5 on the arxiv analog sits in the same
#: partially-mixed regime the paper's ε=1e-7 does at full ArXiv scale.)


def run(
    settings: list[tuple[str, float]] | None = None,
    scale: float = 1.0,
    alpha: float = 0.8,
    seed_node: int = 0,
) -> dict:
    """Residual-history series for each (dataset, ε) setting."""
    settings = settings or DEFAULT_SETTINGS
    panels = {}
    for dataset, epsilon in settings:
        graph = prepared(dataset, scale)
        one_hot = np.zeros(graph.n)
        one_hot[seed_node % graph.n] = 1.0
        greedy = greedy_diffuse(
            graph, one_hot, alpha=alpha, epsilon=epsilon, track_history=True
        )
        nongreedy = nongreedy_diffuse(
            graph, one_hot, alpha=alpha, epsilon=epsilon, track_history=True
        )
        panels[dataset] = {
            "epsilon": epsilon,
            "greedy": greedy.residual_history,
            "nongreedy": nongreedy.residual_history,
            "greedy_iterations": greedy.iterations,
            "nongreedy_iterations": nongreedy.iterations,
        }
    return {"panels": panels, "alpha": alpha}


def main(scale: float = 1.0) -> dict:
    result = run(scale=scale)
    for dataset, panel in result["panels"].items():
        length = max(len(panel["greedy"]), len(panel["nongreedy"]))

        def padded(series: list[float]) -> list[float]:
            return series + [series[-1]] * (length - len(series))

        print(
            format_series(
                "iteration",
                list(range(1, length + 1)),
                {
                    "greedy ‖r‖₁": padded(panel["greedy"]),
                    "non-greedy ‖r‖₁": padded(panel["nongreedy"]),
                },
                title=(
                    f"Fig. 5 analog — {dataset} "
                    f"(α={result['alpha']}, ε={panel['epsilon']:g}): "
                    f"greedy={panel['greedy_iterations']} iters, "
                    f"non-greedy={panel['nongreedy_iterations']} iters"
                ),
            )
        )
        print()
    return result


if __name__ == "__main__":
    main()
