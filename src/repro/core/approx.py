"""Approximate monitoring MaxRS (paper §6.1).

The approximate monitor is ``AG2Monitor(..., epsilon=ε)``: the
branch-and-bound monitor with both pruning tests relaxed by ``(1-ε)``
(Pruning Rules 3 and 4).  Theorem 1 proves the monitored space ``s``
always satisfies ``s.w ≥ (1-ε) · s*.w``.  This module adds the error
metric the paper's Figure 10 reports.
"""

from __future__ import annotations

__all__ = ["practical_error"]


def practical_error(approx_weight: float, exact_weight: float) -> float:
    """The paper's practical error rate ``1 - s.w / s*.w`` (§7.4).

    Zero when the window is empty (both weights 0).  Negative values
    are clamped to zero: they can only arise from floating-point noise
    since ``s.w ≤ s*.w`` by definition.
    """
    if exact_weight <= 0.0:
        return 0.0
    return max(0.0, 1.0 - approx_weight / exact_weight)
