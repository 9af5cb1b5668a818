"""Deterministic fault injection for chaos-testing the pipeline.

:class:`FaultInjectingSource` wraps any stream source and perturbs it
with the four classic stream pathologies — **drop** (record lost),
**duplicate** (at-least-once delivery), **corrupt** (the record decays
into a malformed raw payload), and **delay** (the record is held back
and re-emitted later with its original timestamp, i.e. a bounded-
lateness out-of-order arrival).  Everything is driven by one private
seeded RNG, so a chaos run is exactly reproducible: same seed, same
faults, same positions.

The injected-fault tallies are public attributes, which is what lets
the chaos CLI (and the soak test) prove end-to-end accounting: every
corrupt record must reappear in the dead-letter queue, every delayed
record must be either re-sequenced or dead-lettered as late, and the
answer must match a naive recompute over whatever survived.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError
from repro.streams.source import StreamSource

__all__ = ["FaultInjectingSource"]

# ways a record can decay in flight; each produces a payload that fails
# IngestGuard validation for a *different* reason
_CORRUPTIONS = ("nan_x", "inf_y", "negative_weight", "garbage_field", "missing_y")


def _corrupt(obj: SpatialObject, kind: str) -> object:
    if kind == "nan_x":
        return {"x": float("nan"), "y": obj.y, "weight": obj.weight,
                "timestamp": obj.timestamp}
    if kind == "inf_y":
        return (obj.x, float("inf"), obj.weight, obj.timestamp)
    if kind == "negative_weight":
        return {"x": obj.x, "y": obj.y, "weight": -abs(obj.weight) - 1.0,
                "timestamp": obj.timestamp}
    if kind == "garbage_field":
        return (obj.x, obj.y, "garbage", obj.timestamp)
    return {"x": obj.x, "weight": obj.weight, "timestamp": obj.timestamp}


class FaultInjectingSource(StreamSource):
    """Seeded chaos wrapper: drop / duplicate / corrupt / delay.

    Fault probabilities are evaluated per record, mutually exclusively
    (one record suffers at most one fault).  A delayed record re-enters
    the stream after 1..``max_delay`` subsequent upstream records, out
    of timestamp order but by a bounded amount — sized to be absorbable
    by an :class:`~repro.resilience.guard.IngestGuard` whose
    ``max_lateness`` covers ``max_delay`` upstream timestamp steps.

    Args:
        source: The clean upstream.
        seed: Chaos RNG seed (independent of the stream's own RNG).
        p_drop / p_duplicate / p_corrupt / p_delay: Per-record fault
            probabilities; must sum to at most 1.
        max_delay: Maximum hold-back, in upstream record positions.
    """

    def __init__(
        self,
        source: StreamSource | Iterator[SpatialObject],
        *,
        seed: int = 0,
        p_drop: float = 0.0,
        p_duplicate: float = 0.0,
        p_corrupt: float = 0.0,
        p_delay: float = 0.0,
        max_delay: int = 3,
    ) -> None:
        for name, p in (
            ("p_drop", p_drop),
            ("p_duplicate", p_duplicate),
            ("p_corrupt", p_corrupt),
            ("p_delay", p_delay),
        ):
            if not 0.0 <= p <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0, 1], got {p}"
                )
        if p_drop + p_duplicate + p_corrupt + p_delay > 1.0:
            raise InvalidParameterError(
                "fault probabilities must sum to at most 1"
            )
        if max_delay <= 0:
            raise InvalidParameterError(
                f"max_delay must be positive, got {max_delay}"
            )
        self._source = source
        self.seed = seed
        self.p_drop = p_drop
        self.p_duplicate = p_duplicate
        self.p_corrupt = p_corrupt
        self.p_delay = p_delay
        self.max_delay = max_delay
        self.drops = 0
        self.duplicates = 0
        self.corrupted = 0
        self.delayed = 0
        self.emitted = 0  # records (incl. corrupt payloads) sent on

    @property
    def injected(self) -> int:
        """Total faults injected so far."""
        return self.drops + self.duplicates + self.corrupted + self.delayed

    def __iter__(self) -> Iterator[object]:
        rng = random.Random(self.seed)
        pending: List[Tuple[int, SpatialObject]] = []  # (due position, obj)
        position = 0
        for obj in self._source:
            position += 1
            # release held-back records that are now due: they come out
            # *after* newer records, with their original (older) stamp
            due = [p for p in pending if p[0] <= position]
            if due:
                pending = [p for p in pending if p[0] > position]
                for _, late in due:
                    self.emitted += 1
                    yield late
            roll = rng.random()
            if roll < self.p_drop:
                self.drops += 1
                continue
            roll -= self.p_drop
            if roll < self.p_duplicate:
                self.duplicates += 1
                self.emitted += 2
                yield obj
                yield obj
                continue
            roll -= self.p_duplicate
            if roll < self.p_corrupt:
                self.corrupted += 1
                self.emitted += 1
                yield _corrupt(obj, _CORRUPTIONS[rng.randrange(len(_CORRUPTIONS))])
                continue
            roll -= self.p_corrupt
            if roll < self.p_delay:
                self.delayed += 1
                pending.append((position + rng.randint(1, self.max_delay), obj))
                continue
            self.emitted += 1
            yield obj
        # end of stream: flush whatever is still held back, oldest due first
        for _, late in sorted(pending, key=lambda p: p[0]):
            self.emitted += 1
            yield late
