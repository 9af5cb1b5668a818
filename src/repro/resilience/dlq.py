"""Ingest error policy and the bounded dead-letter queue.

A long-running continuous query cannot treat every malformed record as
fatal: the stream boundary needs a *policy*.  :class:`ErrorPolicy`
names the three standard choices — fail fast, drop silently, or keep
the rejected record around for offline inspection — and
:class:`DeadLetterQueue` is the bounded buffer that the QUARANTINE
policy captures into.  Every entry records *why* it was rejected, so
operators can distinguish a corrupt producer (``invalid`` records)
from network reordering (``late`` records) at a glance.
"""

from __future__ import annotations

import json
import os
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Deque, Iterator

from repro.errors import InvalidParameterError, wrap_os_error

__all__ = ["ErrorPolicy", "DeadLetter", "DeadLetterQueue"]


def _letter_doc(letter: "DeadLetter") -> dict[str, Any]:
    """JSON-able view of one dead letter.

    The record field is arbitrary — a raw payload, a tuple, a
    :class:`~repro.core.objects.SpatialObject` — so anything JSON
    cannot carry verbatim is stored as its ``repr`` instead of failing
    the drain (the audit trail must be best-effort complete, not
    type-perfect).
    """
    record: Any = letter.record
    try:
        json.dumps(record)
    except (TypeError, ValueError):
        record = repr(record)
    return {
        "record": record,
        "reason": letter.reason,
        "detail": letter.detail,
        "seq": letter.seq,
    }


class ErrorPolicy(Enum):
    """What the ingest boundary does with a rejected record.

    * ``RAISE`` — re-raise as :class:`~repro.errors.QuarantineError`
      (strict mode; matches the library's historical fail-fast
      behaviour).
    * ``SKIP`` — count and drop; nothing is retained.
    * ``QUARANTINE`` — count and capture into the dead-letter queue.
    """

    RAISE = "raise"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    @classmethod
    def parse(cls, name: "str | ErrorPolicy") -> "ErrorPolicy":
        """Accept an enum member or its case-insensitive string name."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise InvalidParameterError(
                f"unknown error policy {name!r}; expected one of: {valid}"
            ) from None


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One rejected record with its rejection context.

    Attributes:
        record: The offending record, verbatim (a raw payload for
            corrupt records, a valid :class:`SpatialObject` for late
            arrivals dropped past the watermark).
        reason: Short machine-matchable category (``"invalid"``,
            ``"late"``).
        detail: Human-readable explanation (the validation error text,
            or the watermark the record missed).
        seq: Arrival position at the guard, for correlating with logs.
    """

    record: object
    reason: str
    detail: str
    seq: int


class DeadLetterQueue:
    """Bounded FIFO of rejected records.

    When full, the *oldest* entry is evicted to admit the new one — the
    queue is a diagnostic surface, and recent rejections are worth more
    than ancient ones.  ``total_enqueued`` keeps global accounting
    intact even after evictions: every record ever rejected under
    QUARANTINE is counted exactly once.  ``total_evicted`` counts the
    evictions and ``len()`` is the depth retained now.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise InvalidParameterError(
                f"dead-letter capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._entries: Deque[DeadLetter] = deque()
        self.total_enqueued = 0
        self.total_evicted = 0
        self._by_reason: TallyCounter[str] = TallyCounter()

    def put(self, letter: DeadLetter) -> None:
        """Capture one rejection (evicting the oldest entry when full)."""
        if len(self._entries) >= self.capacity:
            self._entries.popleft()
            self.total_evicted += 1
        self._entries.append(letter)
        self.total_enqueued += 1
        self._by_reason[letter.reason] += 1

    def drain(self) -> list[DeadLetter]:
        """Remove and return all retained entries, oldest first."""
        out = list(self._entries)
        self._entries.clear()
        return out

    def drain_to_jsonl(self, path: "str | Path") -> int:
        """Drain retained entries, *appending* them to a JSONL file.

        Quarantine evidence survives a crash-restart this way: each
        drained entry becomes one JSON line (append-only, fsynced), so
        repeated drains across process incarnations accumulate into a
        single durable audit trail instead of replacing it.  Returns
        the number of entries written; an empty queue touches nothing.

        A disk failure mid-write raises a typed
        :class:`~repro.errors.DurableWriteError`
        (:class:`~repro.errors.DiskFullError` for ``ENOSPC``) and the
        entries stay queued — evidence is only dropped once it is on
        disk.
        """
        if not self._entries:
            return 0
        lines = [
            json.dumps(_letter_doc(letter), sort_keys=True)
            for letter in self._entries
        ]
        try:
            with open(path, "a") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise wrap_os_error(exc, "dead-letter drain") from exc
        count = len(lines)
        self._entries.clear()
        return count

    def counts_by_reason(self) -> dict[str, int]:
        """Lifetime rejection tallies per reason (eviction-proof)."""
        return dict(self._by_reason)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(tuple(self._entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeadLetterQueue(depth={len(self)}/{self.capacity}, "
            f"total={self.total_enqueued}, by_reason={dict(self._by_reason)})"
        )
