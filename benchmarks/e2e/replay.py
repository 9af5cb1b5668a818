"""Statistics of the end-to-end benchmark: percentiles, per-tick minima,
the open-loop FIFO replay and the sustainable-rate bisection.

Everything here is pure arithmetic over measured service times, so the
tests can check it against hand-worked schedules.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "speed_factors",
    "per_tick_minima",
    "fifo_waits",
    "latencies",
    "sustainable_rate",
]

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

INF = math.inf


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples
    lie beyond it: with 12 samples a "p95" is just the maximum, and a
    reader cannot tell.  Infinite samples (failed ticks) sort last.
    """
    n = len(values)
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"n={n} leaves {max(n - rank, 0)}"
        )
    return sorted(values)[rank - 1]


def speed_factors(
    probe: Sequence[float], reference: float, half: int = 25
) -> list[float]:
    """Per-tick factors that rescale a round to the reference host speed.

    ``probe[k]`` times a fixed job just before tick ``k``; the factor is
    ``reference`` over the probe's median across ticks
    ``k - half .. k + half``, which follows the host's drift without
    chasing single outliers.
    """
    out = []
    for k in range(len(probe)):
        window = sorted(probe[max(0, k - half):k + half + 1])
        out.append(reference / window[len(window) // 2])
    return out


def per_tick_minima(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Each tick's service time as its minimum across rounds.

    Every round replays the identical tick sequence in a fresh process,
    so the noise a round picks up on one tick (a neighbour's burst, a
    frequency step) is filtered while work that recurs on that tick in
    every round (a checkpoint, a GC pause) is kept.
    """
    if not rounds:
        raise ValueError("no rounds to combine")
    lengths = {len(r) for r in rounds}
    if len(lengths) != 1:
        raise ValueError(f"rounds disagree on tick count: {sorted(lengths)}")
    return [min(column) for column in zip(*rounds)]


def fifo_waits(service: Sequence[float], delta: float) -> list[float]:
    """Queueing delay of each tick under a single FIFO consumer.

    Tick ``k`` is due at ``k * delta``; it starts when it is due or when
    tick ``k - 1`` finishes, whichever is later:
    ``W_k = max(0, W_{k-1} + S_{k-1} - delta)``.  A stall therefore
    delays every tick queued behind it until the backlog drains.
    """
    waits = [0.0] * len(service)
    for k in range(1, len(service)):
        waits[k] = max(0.0, waits[k - 1] + service[k - 1] - delta)
    return waits


def latencies(
    service: Sequence[float],
    delta: float,
    holds: Sequence[int],
) -> list[float]:
    """Open-loop latency of each tick whose arrivals all got applied.

    ``holds[k]`` is how many ticks later than ``k`` the last arrival of
    tick ``k`` reached the monitor (records held by the reorder buffer
    or left in the queue).  The latency of tick ``k`` runs from its due
    time to the completion of tick ``h = k + holds[k]``:
    ``(h - k) * delta + W_h + S_h``.  A failed tick has infinite service
    time and so infinite latency, as does every tick waiting on it.
    Ticks whose arrivals are applied after the last measured tick are
    left out.
    """
    if len(holds) != len(service):
        raise ValueError("holds and service times must align")
    waits = fifo_waits(service, delta)
    n = len(service)
    out: list[float] = []
    for k, hold in enumerate(holds):
        h = k + hold
        if h < n:
            out.append(hold * delta + waits[h] + service[h])
    return out


def _feasible(
    service: Sequence[float],
    holds: Sequence[int],
    batch: int,
    rate: float,
    limit: float,
    mean_service: float,
) -> bool:
    delta = batch / rate
    if not mean_service < delta:
        return False
    return percentile(latencies(service, delta, holds), 99.0) <= limit


def sustainable_rate(
    service: Sequence[float],
    holds: Sequence[int],
    batch: int,
    limit: float,
    iterations: int = 40,
) -> float:
    """Highest arrival rate whose replayed p99 latency meets ``limit``
    with no growing backlog (mean service time below the tick period).

    The search starts at the saturation rate ``batch / mean(S)``, which
    is never sustainable, halves until it finds a feasible rate, and
    bisects between the two.  Returns 0.0 when no rate down to 2^-20 of
    saturation meets the limit.
    """
    finite = [s for s in service if math.isfinite(s)]
    if len(finite) < len(service) or not finite:
        mean_service = INF
    else:
        mean_service = sum(service) / len(service)
    if not math.isfinite(mean_service) or mean_service <= 0.0:
        return 0.0
    hi = batch / mean_service
    lo = hi / 2.0
    for _ in range(20):
        if _feasible(service, holds, batch, lo, limit, mean_service):
            break
        hi = lo
        lo /= 2.0
    else:
        return 0.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if _feasible(service, holds, batch, mid, limit, mean_service):
            lo = mid
        else:
            hi = mid
    return lo
