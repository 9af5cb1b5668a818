"""Self-healing supervision for monitors and flaky sources.

:class:`MonitorSupervisor` wraps any :class:`MaxRSMonitor` behind the
same ``update``/``ingest``/``result`` surface and adds the recovery
behaviour a long-running deployment needs:

* a mid-update exception no longer aborts the run — the supervisor
  rebuilds the index from the *surviving window contents* (an
  in-memory :func:`repro.persist.snapshot`/:func:`repro.persist.restore`
  round-trip, the same JSON state checkpoints write) and re-answers
  over the restored window at the failed update's tick;
* an optional periodic ``check_invariants()`` probe catches silent
  index corruption before it surfaces as a wrong answer, triggering
  the same heal;
* a rejected batch (``WindowOrderError`` — the window refused it
  before any index state changed) is *not* corruption: the batch is
  dropped, counted, and the previous answer stands.

Heal is a rebuild from the window, not a checkpoint + WAL-tail
restore.  An index fault leaves the process and its window alive, and
the window holds exactly the state the last checkpoint plus the WAL
tail would rebuild.  :meth:`MaxRSMonitor.update` pushes a batch to the
window before it touches the index, so a batch that fails half-way is
kept exactly once: the rebuilt index contains it, and the answer
carries its tick.

:class:`RetryingSource` is the companion for the other side of the
pipe: transient source failures (flaky file systems, network hiccups)
are retried with exponential backoff before giving up.
"""

from __future__ import annotations

import random
import time
import types
from typing import Callable, Iterator, Sequence, Type

from repro import persist
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import SpatialObject
from repro.core.spaces import MaxRSResult
from repro.errors import (
    InvalidParameterError,
    InvariantViolationError,
    SourceRetryExhaustedError,
    UnrecoverableMonitorError,
    WindowOrderError,
)
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.streams.source import StreamSource
from repro.window.base import SlidingWindow

__all__ = ["MonitorSupervisor", "RetryingSource"]


class MonitorSupervisor:
    """Fault-isolating wrapper around one monitor.

    Drop-in for a :class:`MaxRSMonitor` anywhere the library consumes
    one structurally (``StreamEngine``, ``MultiQueryGroup``,
    ``CheckpointManager``): it forwards ``update``/``ingest``/
    ``attach_metrics`` and exposes ``window``/``result``/``stats`` from
    the supervised monitor.

    Args:
        monitor: The monitor to supervise.  Must be snapshotable by
            :mod:`repro.persist`.
        probe_every: Run ``check_invariants()`` after every N-th
            successful update (0 disables probing).  Monitors without
            the method are probed as no-ops.
        max_heals: Heal budget; one more failure past it raises
            :class:`UnrecoverableMonitorError` (None = unlimited).
        metrics: Observability scope; counters ``monitor_failures``,
            ``invariant_failures``, ``heals``, ``batches_rejected``,
            ``objects_resurrected``.
        on_heal: Optional callback invoked (with the triggering
            exception) after every successful heal.  This is how heal
            events feed an overload
            :class:`~repro.overload.breaker.CircuitBreaker`: repeated
            index rebuilds are a symptom that serving stale answers
            beats continuing to limp (pass ``breaker.note_heal``).
    """

    def __init__(
        self,
        monitor: MaxRSMonitor,
        *,
        probe_every: int = 0,
        max_heals: int | None = None,
        metrics: Metrics = NULL_METRICS,
        on_heal: Callable[[BaseException], None] | None = None,
    ) -> None:
        self._monitor = monitor
        self.probe_every = max(0, int(probe_every))
        self.max_heals = max_heals
        self.on_heal = on_heal
        self.metrics = metrics
        self.failures = 0  # update/ingest raised mid-flight
        self.invariant_failures = 0  # probe caught corruption
        self.heals = 0  # successful index rebuilds
        self.batches_rejected = 0  # window refused the batch cleanly
        self._updates_since_probe = 0

    # -- monitor surface ---------------------------------------------------

    @property
    def monitor(self) -> MaxRSMonitor:
        """The currently live supervised monitor (changes on heal)."""
        return self._monitor

    @property
    def window(self) -> SlidingWindow:
        return self._monitor.window

    @property
    def result(self) -> MaxRSResult:
        return self._monitor.result

    @property
    def stats(self):
        return self._monitor.stats

    @property
    def rect_width(self) -> float:
        return self._monitor.rect_width

    @property
    def rect_height(self) -> float:
        return self._monitor.rect_height

    def attach_metrics(self, metrics: Metrics) -> None:
        """Engine attachment point: supervisor counters live alongside
        the monitor's own scope (under ``supervisor``)."""
        self.metrics = metrics.scope("supervisor")
        self._monitor.attach_metrics(metrics)

    def check_invariants(self) -> None:
        """Forward to the supervised monitor (no-op when unsupported)."""
        probe = getattr(self._monitor, "check_invariants", None)
        if probe is not None:
            probe()

    # -- supervised operations ---------------------------------------------

    def update(self, objects: Sequence[SpatialObject]) -> MaxRSResult:
        """Push a batch; heal and re-answer instead of propagating."""
        try:
            result = self._monitor.update(objects)
        except WindowOrderError:
            # the window rejected the batch before any state changed:
            # drop it and keep the previous answer (an IngestGuard
            # upstream makes this path unreachable in practice)
            self.batches_rejected += 1
            self.metrics.inc("batches_rejected")
            return self._monitor.result
        except Exception as exc:  # index corrupted mid-update
            self.failures += 1
            self.metrics.inc("monitor_failures")
            self._heal(exc)
            # the window admitted the batch before the index failed: the
            # rebuild holds it, so answer at its tick without a new push
            return self._monitor.refresh()
        if self._maybe_probe():
            # the probed index produced this answer; re-answer from the
            # rebuild at the same tick
            return self._monitor.refresh()
        return self._monitor.result if result is None else result

    def ingest(self, objects: Sequence[SpatialObject]) -> None:
        """Bulk-load without an answer, with the same healing."""
        try:
            self._monitor.ingest(objects)
        except WindowOrderError:
            self.batches_rejected += 1
            self.metrics.inc("batches_rejected")
        except Exception as exc:
            self.failures += 1
            self.metrics.inc("monitor_failures")
            self._heal(exc)

    # -- healing -----------------------------------------------------------

    def _maybe_probe(self) -> bool:
        """Run the periodic probe when due; True iff it forced a heal."""
        if not self.probe_every:
            return False
        self._updates_since_probe += 1
        if self._updates_since_probe < self.probe_every:
            return False
        self._updates_since_probe = 0
        try:
            self.check_invariants()
        except InvariantViolationError as exc:
            self.invariant_failures += 1
            self.metrics.inc("invariant_failures")
            self._heal(exc)
            return True
        return False

    def _heal(self, cause: BaseException) -> None:
        """Rebuild the index from the surviving window contents, keeping
        the window's tick."""
        if self.max_heals is not None and self.heals >= self.max_heals:
            raise UnrecoverableMonitorError(
                f"heal budget exhausted after {self.heals} heals"
            ) from cause
        survivors = len(self._monitor.window)
        try:
            healed = persist.restore(persist.snapshot(self._monitor))
        except Exception as heal_exc:
            raise UnrecoverableMonitorError(
                f"could not rebuild monitor from {survivors} "
                f"surviving objects: {heal_exc}"
            ) from cause
        if self._monitor.metrics is not NULL_METRICS:
            healed.attach_metrics(self._monitor.metrics)
        self._monitor = healed
        self.heals += 1
        self._updates_since_probe = 0
        self.metrics.inc("heals")
        self.metrics.inc("objects_resurrected", survivors)
        if self.on_heal is not None:
            self.on_heal(cause)


class RetryingSource(StreamSource):
    """Retry-with-backoff wrapper for transiently failing sources.

    The wrapped source's iterator is re-polled after a failure, so it
    must tolerate ``__next__`` being called again after raising (custom
    iterator classes do; a plain generator is closed by its first
    exception — wrap the *source object*, and the iterator is recreated
    and fast-forwarded past the records already delivered).

    Args:
        source: The flaky upstream.
        retry_on: Exception types treated as transient (anything else
            propagates immediately).
        max_retries: Attempts per record beyond the first; exhausting
            them raises :class:`SourceRetryExhaustedError`.
        base_delay: First backoff sleep, seconds.
        backoff: Multiplier applied per consecutive failure.
        jitter: Fraction of each backoff sleep that is randomised, in
            ``[0, 1]``.  ``0`` keeps the classic deterministic ladder;
            ``1`` is *full jitter* — the sleep is uniform in
            ``[0, delay]`` — which de-synchronises a fleet of retriers
            hammering one recovering upstream.
        max_elapsed: Cap, in seconds, on the total time one record may
            spend in its retry loop; once exceeded the loop gives up
            with :class:`SourceRetryExhaustedError` even if attempts
            remain (None = attempts are the only budget).
        sleep: Injectable sleeper for tests (defaults to ``time.sleep``).
        rng: Injectable uniform-[0,1) generator for the jitter (defaults
            to :func:`random.random`); seed a ``random.Random`` and pass
            its ``.random`` for reproducible schedules.
        clock: Injectable monotonic clock for the ``max_elapsed``
            budget (defaults to :func:`time.monotonic`).
        metrics: Registry scope; retry behaviour is observable without
            timing sleeps — counters ``source_retries``,
            ``source_resets``, ``source_retry_gave_up`` and the
            ``source_retry_sleep_s`` histogram.
    """

    def __init__(
        self,
        source: StreamSource | Iterator[SpatialObject],
        *,
        retry_on: tuple[Type[BaseException], ...] = (OSError, TimeoutError),
        max_retries: int = 3,
        base_delay: float = 0.05,
        backoff: float = 2.0,
        jitter: float = 0.0,
        max_elapsed: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Metrics = NULL_METRICS,
    ) -> None:
        if not 0.0 <= jitter <= 1.0:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {jitter}"
            )
        if max_elapsed is not None and max_elapsed <= 0:
            raise InvalidParameterError(
                f"max_elapsed must be positive, got {max_elapsed}"
            )
        self._source = source
        self.retry_on = retry_on
        self.max_retries = max(0, int(max_retries))
        self.base_delay = base_delay
        self.backoff = backoff
        self.jitter = float(jitter)
        self.max_elapsed = max_elapsed
        self._sleep = sleep
        self._rng = rng if rng is not None else random.random
        self._clock = clock
        self.metrics = metrics
        self.retries = 0  # transient failures retried
        self.resets = 0  # iterator rebuilds (generator sources)
        self.gave_up = 0  # retry loops that exhausted their budget

    def __iter__(self) -> Iterator[SpatialObject]:
        iterator = iter(self._source)
        delivered = 0
        while True:
            attempts = 0
            delay = self.base_delay
            started: float | None = None
            while True:
                try:
                    obj = next(iterator)
                    break
                except StopIteration:
                    return
                except self.retry_on as exc:
                    now = self._clock()
                    if started is None:
                        started = now
                    attempts += 1
                    self.retries += 1
                    self.metrics.inc("source_retries")
                    if attempts > self.max_retries:
                        self._give_up()
                        raise SourceRetryExhaustedError(
                            f"source still failing after {self.max_retries} "
                            f"retries: {exc}"
                        ) from exc
                    if (
                        self.max_elapsed is not None
                        and now - started >= self.max_elapsed
                    ):
                        self._give_up()
                        raise SourceRetryExhaustedError(
                            f"source still failing after "
                            f"{now - started:.3f}s, past the max_elapsed "
                            f"budget of {self.max_elapsed}s: {exc}"
                        ) from exc
                    pause = delay
                    if self.jitter:
                        # full jitter at 1.0: uniform in [0, delay]
                        pause = delay * (
                            (1.0 - self.jitter) + self.jitter * self._rng()
                        )
                    self.metrics.observe("source_retry_sleep_s", pause)
                    self._sleep(pause)
                    delay *= self.backoff
                    iterator = self._reset(iterator, delivered)
            delivered += 1
            yield obj

    def _give_up(self) -> None:
        self.gave_up += 1
        self.metrics.inc("source_retry_gave_up")

    def _reset(
        self, iterator: Iterator[SpatialObject], delivered: int
    ) -> Iterator[SpatialObject]:
        """Recreate a closed generator, skipping delivered records."""
        if not isinstance(iterator, types.GeneratorType):
            return iterator  # resumable iterator: keep polling it
        fresh = iter(self._source)
        for _ in range(delivered):
            next(fresh)
        self.resets += 1
        self.metrics.inc("source_resets")
        return fresh
