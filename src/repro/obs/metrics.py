"""Dependency-free metrics primitives: counters and histograms.

The paper's efficiency argument (§7) is carried by *internal* quantities
— cells visited, branch-and-bound prunings, upper-bound recomputations —
not only wall-clock time.  This module provides the substrate that makes
those quantities first-class observables:

* :class:`Counter` — monotone event count (``cells_visited``);
* :class:`Histogram` — streaming distribution summary with optional
  fixed buckets (``update_ms``);
* :class:`Ewma` — exponentially weighted moving average, the smoothing
  primitive of the overload controller (it holds one directly);
* :class:`Metrics` — a registry of counters and histograms under named
  scopes, so one engine run owns a tree like ``g2.cells_visited`` /
  ``ag2.update_ms``;
* :data:`NULL_METRICS` — a no-op registry.

The registry holds monitor stats plus ``update_ms`` only.  Monitors
count in their :class:`~repro.core.monitor.MonitorStats`, and the
engine (:class:`~repro.engine.engine.StreamEngine`) publishes those
counts into the monitor's scope and observes ``update_ms`` beside
them.  Every other component counts its events in plain attributes
(``IngestGuard.quarantined``, ``WriteAheadLog.fsyncs``,
``MonitorSupervisor.heals``, …) and writes nothing here; the one
exception is ``WriteAheadLog.metrics``, whose ``wal_bytes_written``
counter the end-to-end benchmark reads.

Snapshots are plain-data (:class:`MetricsSnapshot`) with flattened
dotted names, which makes per-batch deltas, JSON export and CSV rows
trivial downstream (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Ewma",
    "Histogram",
    "Metrics",
    "MetricsSnapshot",
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

    def reset(self) -> None:
        self.value = 0.0


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

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self.bins = [0] * len(self.bins)


class Ewma:
    """Exponentially weighted moving average of an observed series.

    The smoothing primitive behind latency-based control loops (the
    overload :class:`~repro.overload.controller.DeadlineController`
    tracks ``update_ms`` through one of these): ``value`` follows the
    series with weight ``alpha`` on the newest sample, and the first
    sample seeds it directly, so the average is meaningful from the
    first observation on.
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


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time, plain-data view of a registry (dotted flat names)."""

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between ``earlier`` and this snapshot.

        Counters and histogram count/sum subtract; min/max/mean are not
        recoverable from two cumulative summaries and are omitted.
        """
        counters = {
            name: value - earlier.counters.get(name, 0.0)
            for name, value in self.counters.items()
        }
        histograms: Dict[str, Dict[str, float]] = {}
        for name, summ in self.histograms.items():
            prev = earlier.histograms.get(name, {})
            histograms[name] = {
                key: summ[key] - prev.get(key, 0.0)
                for key in summ
                if key not in ("min", "max", "mean")
            }
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def to_dict(self) -> dict[str, object]:
        return {
            "counters": dict(self.counters),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsSnapshot":
        histograms: Mapping[str, Mapping[str, float]]
        histograms = data.get("histograms", {})  # type: ignore[assignment]
        return cls(
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            histograms={k: dict(v) for k, v in histograms.items()},
        )


class Metrics:
    """Registry of named instruments with named child scopes.

    One registry belongs to one observed component; child scopes nest
    components (``engine → monitor``).  Instruments are get-or-create by
    name, so instrumentation sites never need set-up code.  Snapshots
    flatten the tree into dotted names (``ag2.cells_visited``).
    """

    __slots__ = ("namespace", "_counters", "_histograms", "_scopes")

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._scopes: Dict[str, Metrics] = {}

    # -- structure ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return True

    def scope(self, name: str) -> "Metrics":
        """Get-or-create the child scope ``name``."""
        child = self._scopes.get(name)
        if child is None:
            child = Metrics(namespace=name)
            self._scopes[name] = child
        return child

    def scopes(self) -> tuple[str, ...]:
        return tuple(self._scopes)

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name, buckets=buckets)
            self._histograms[name] = instrument
        return instrument

    # -- hot-path conveniences ---------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- lifecycle ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Flattened cumulative view of this registry and its scopes."""
        counters: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        self._collect(counters, histograms, prefix="")
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def _collect(
        self,
        counters: Dict[str, float],
        histograms: Dict[str, Dict[str, float]],
        prefix: str,
    ) -> None:
        for name, c in self._counters.items():
            counters[prefix + name] = c.value
        for name, h in self._histograms.items():
            histograms[prefix + name] = h.summary()
        for name, child in self._scopes.items():
            child._collect(counters, histograms, f"{prefix}{name}.")

    def reset(self) -> None:
        """Zero every instrument, recursively; structure is kept."""
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()
        for child in self._scopes.values():
            child.reset()


class _NullInstrument:
    """Shared do-nothing stand-in for any instrument type."""

    __slots__ = ()

    name = "null"
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    minimum = 0.0
    maximum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict[str, float]:
        return {}

    def reset(self) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics(Metrics):
    """The disabled registry: every operation is a no-op.

    ``WriteAheadLog.metrics`` holds :data:`NULL_METRICS` until a caller
    sets a real registry, so the disabled cost is a single method call
    per append — no branches at the instrumentation site, no state.
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def scope(self, name: str) -> "Metrics":
        return self

    def counter(self, name: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: The shared disabled registry (``WriteAheadLog.metrics``'s default).
NULL_METRICS = NullMetrics()
