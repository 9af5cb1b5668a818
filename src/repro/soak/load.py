"""Seeded arrival-rate profiles for soak phases.

:class:`LoadGenerator` turns a phase's load-shape knobs (base rate,
burst factor, period, burst length, jitter) into one arrival
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

    Produces one arrival count per tick, in a square wave: each period
    opens with ``burst_ticks`` ticks at ``base_rate * burst_factor``,
    then stays calm at ``base_rate`` (the classic flash-crowd shape;
    the calm tail is what lets the ladder demonstrate recovery).  With
    ``burst_ticks=1`` it is one spike per period.

    Counts carry multiplicative seeded jitter (``±jitter``), so soaks
    are reproducible per seed yet not metronomic.
    """

    def __init__(
        self,
        base_rate: int,
        *,
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
        self.burst_factor = float(burst_factor)
        self.period = int(period)
        self.burst_ticks = int(burst_ticks)
        self.jitter = float(jitter)
        self.seed = seed

    def arrivals(self, ticks: int) -> List[int]:
        """The arrival counts for ``ticks`` ticks (one list per call,
        jittered by a private RNG seeded from ``seed`` — repeatable)."""
        if ticks <= 0:
            raise InvalidParameterError(
                f"tick count must be positive, got {ticks}"
            )
        rng = random.Random(self.seed)
        counts = []
        base = float(self.base_rate)
        peak = base * self.burst_factor
        for tick in range(ticks):
            rate = peak if tick % self.period < self.burst_ticks else base
            if self.jitter:
                rate *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            counts.append(max(1, round(rate)))
        return counts
