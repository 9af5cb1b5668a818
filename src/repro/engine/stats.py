"""Timing statistics for monitor updates.

The paper's headline metric is the *average computation time to update
s\\** per arrival batch (§7.1 "Evaluation"); :class:`TimingStats`
accumulates per-update wall-clock samples and derives the summary
statistics the benchmark harness prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import EmptyWindowError

__all__ = ["TimingStats"]


@dataclass
class TimingStats:
    """Accumulator of per-update durations (seconds)."""

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def _require_samples(self) -> None:
        if not self.samples:
            raise EmptyWindowError("no timing samples recorded")

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        self._require_samples()
        return self.total / len(self.samples)

    @property
    def mean_ms(self) -> float:
        return self.mean * 1000.0

    @property
    def median(self) -> float:
        self._require_samples()
        ordered = sorted(self.samples)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def minimum(self) -> float:
        self._require_samples()
        return min(self.samples)

    @property
    def maximum(self) -> float:
        self._require_samples()
        return max(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        self._require_samples()
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict[str, float]:
        """All headline statistics in milliseconds."""
        return {
            "updates": float(len(self.samples)),
            "mean_ms": self.mean * 1000.0,
            "median_ms": self.median * 1000.0,
            "p95_ms": self.percentile(95.0) * 1000.0,
            "min_ms": self.minimum * 1000.0,
            "max_ms": self.maximum * 1000.0,
            "total_ms": self.total * 1000.0,
        }
