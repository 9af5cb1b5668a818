"""Dependency-free metrics primitives: counters and histograms.

* :class:`Counter` — monotone event count;
* :class:`Histogram` — streaming distribution summary with optional
  fixed buckets;
* :class:`Ewma` — exponentially weighted moving average, the smoothing
  primitive of the overload controller (it holds one directly);
* :class:`Metrics` — a flat registry of named counters;
* :data:`NULL_METRICS` — a no-op registry.

Nothing in the library mirrors its counts here.  Monitors count in
their :class:`~repro.core.monitor.MonitorStats` (``monitor.stats``),
which ``profile`` reads per batch through :func:`repro.bench.measure`;
every other component counts its events in plain attributes
(``IngestGuard.quarantined``, ``WriteAheadLog.fsyncs``,
``AdaptiveMonitor.rebuilds``, …).  The one registry writer is
``WriteAheadLog.metrics``, whose ``wal_bytes_written`` counter the
end-to-end benchmark reads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Ewma",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
]


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Histogram:
    """Streaming distribution summary: count/sum/min/max (+ buckets).

    Memory is O(1) (O(buckets) with buckets): no samples are retained,
    so hot paths can observe every update without growth.  ``buckets``
    are upper bounds of cumulative bins, Prometheus-style; observations
    above the last bound land in the implicit ``+Inf`` bin.
    """

    __slots__ = ("name", "count", "total", "_min", "_max", "bounds", "bins")

    def __init__(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        if buckets is None:
            self.bounds: tuple[float, ...] = ()
            self.bins: list[int] = []
        else:
            bounds = tuple(float(b) for b in buckets)
            if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise InvalidParameterError(
                    f"histogram {name!r} buckets must be strictly increasing"
                )
            self.bounds = bounds
            self.bins = [0] * (len(bounds) + 1)  # last bin = +Inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.bounds:
            self.bins[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def summary(self) -> dict[str, float]:
        out = {
            "count": float(self.count),
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }
        if self.bounds:
            running = 0
            for bound, n in zip(self.bounds, self.bins):
                running += n
                out[f"le_{bound:g}"] = float(running)
            out["le_inf"] = float(self.count)
        return out


class Ewma:
    """Exponentially weighted moving average of an observed series.

    The smoothing primitive behind latency-based control loops (the
    overload :class:`~repro.overload.controller.DeadlineController`
    tracks per-update milliseconds through one of these): ``value``
    follows the series with weight ``alpha`` on the newest sample, and
    the first sample seeds it directly, so the average is meaningful
    from the first observation on.
    """

    __slots__ = ("name", "alpha", "value", "count")

    def __init__(self, name: str, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError(
                f"ewma {name!r} alpha must be in (0, 1], got {alpha}"
            )
        self.name = name
        self.alpha = float(alpha)
        self.value = 0.0
        self.count = 0

    def observe(self, value: float) -> float:
        if self.count == 0:
            self.value = float(value)
        else:
            self.value += self.alpha * (float(value) - self.value)
        self.count += 1
        return self.value

    def reset(self) -> None:
        self.value = 0.0
        self.count = 0


class Metrics:
    """Registry of named counters.

    Counters are get-or-create by name, so instrumentation sites never
    need set-up code.
    """

    __slots__ = ("namespace", "_counters")

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)


class _NullCounter:
    """Shared do-nothing stand-in for a counter."""

    __slots__ = ()

    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class NullMetrics(Metrics):
    """The disabled registry: every operation is a no-op.

    ``WriteAheadLog.metrics`` holds :data:`NULL_METRICS` until a caller
    sets a real registry, so the disabled cost is a single method call
    per append — no branches at the instrumentation site, no state.
    """

    __slots__ = ()

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER  # type: ignore[return-value]

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass


#: The shared disabled registry (``WriteAheadLog.metrics``'s default).
NULL_METRICS = NullMetrics()
