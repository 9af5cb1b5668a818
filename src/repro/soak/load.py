"""Seeded arrival-rate profiles for soak phases.

:class:`LoadGenerator` turns a phase's load-shape knobs (base rate,
pattern, burst factor, period, burst length, jitter) into one arrival
count per tick; :mod:`repro.soak.harness` offers that many records to
the ingest guard on each tick.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import InvalidParameterError

__all__ = ["LoadGenerator"]


class LoadGenerator:
    """Seeded arrival-rate profile for one soak phase.

    Produces one arrival count per tick.  Patterns:

    * ``square`` — each period opens with ``burst_ticks`` ticks at
      ``base_rate * burst_factor``, then stays calm at ``base_rate``
      (the classic flash-crowd shape; the calm tail is what lets the
      ladder demonstrate recovery);
    * ``ramp`` — a triangle wave climbing linearly from ``base_rate``
      to the burst rate over the first half of each period and back
      down over the second (gradual pressure, exercises the hysteresis
      staircase rather than panic);
    * ``spike`` — a single tick at the burst rate per period, calm
      otherwise (tests that one catastrophic batch cannot wedge the
      ladder).

    Counts carry multiplicative seeded jitter (``±jitter``), so soaks
    are reproducible per seed yet not metronomic.
    """

    PATTERNS = ("square", "ramp", "spike")

    def __init__(
        self,
        base_rate: int,
        *,
        pattern: str = "square",
        burst_factor: float = 10.0,
        period: int = 80,
        burst_ticks: int = 15,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if base_rate <= 0:
            raise InvalidParameterError(
                f"base rate must be positive, got {base_rate}"
            )
        if pattern not in self.PATTERNS:
            raise InvalidParameterError(
                f"unknown load pattern {pattern!r}; choose from "
                f"{', '.join(self.PATTERNS)}"
            )
        if burst_factor < 1.0:
            raise InvalidParameterError(
                f"burst factor must be >= 1, got {burst_factor}"
            )
        if period <= 0:
            raise InvalidParameterError(f"period must be positive, got {period}")
        if not (0 < burst_ticks <= period):
            raise InvalidParameterError(
                f"need 0 < burst_ticks <= period, got {burst_ticks} / {period}"
            )
        if not (0.0 <= jitter < 1.0):
            raise InvalidParameterError(
                f"jitter must be in [0, 1), got {jitter}"
            )
        self.base_rate = int(base_rate)
        self.pattern = pattern
        self.burst_factor = float(burst_factor)
        self.period = int(period)
        self.burst_ticks = int(burst_ticks)
        self.jitter = float(jitter)
        self.seed = seed

    def _shape(self, tick: int) -> float:
        """Noise-free rate at ``tick`` (the pattern itself)."""
        phase = tick % self.period
        base = float(self.base_rate)
        peak = base * self.burst_factor
        if self.pattern == "square":
            return peak if phase < self.burst_ticks else base
        if self.pattern == "spike":
            return peak if phase == 0 else base
        # ramp: triangle — up over the first half-period, down over the rest
        half = self.period / 2.0
        frac = phase / half if phase < half else (self.period - phase) / half
        return base + (peak - base) * frac

    def arrivals(self, ticks: int) -> List[int]:
        """The arrival counts for ``ticks`` ticks (one list per call,
        jittered by a private RNG seeded from ``seed`` — repeatable)."""
        if ticks <= 0:
            raise InvalidParameterError(
                f"tick count must be positive, got {ticks}"
            )
        rng = random.Random(self.seed)
        counts = []
        for tick in range(ticks):
            rate = self._shape(tick)
            if self.jitter:
                rate *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            counts.append(max(1, round(rate)))
        return counts
