"""Segmented append-only write-ahead log for admitted arrival batches.

:class:`WriteAheadLog` journals every batch *before* it reaches the
compute tier, so crash recovery becomes *checkpoint + WAL-tail replay
from disk* — zero reads of the original stream source, which is the
only recovery story that holds for live spatial streams (the paper's
setting) where an arrival is gone the moment it is consumed.

Records (see :mod:`repro.durability.record`) carry two numbers:

* ``seq`` — the log's own monotone record counter, CRC-protected in
  the frame header; gap-free for an undamaged log;
* ``index`` — the *batch index* in the payload: the engine's count of
  applied batches, the same coordinate
  :class:`~repro.resilience.checkpoint.CheckpointManager` records as
  its position.  Replay after a checkpoint at position ``p`` feeds
  exactly the batch records with ``index > p``.

Two record kinds share the log: ``batch`` (one applied arrival batch)
and ``spill`` (the backpressure queue's in-flight buffer journalled at
a consumer crash — see :meth:`~repro.overload.backpressure.
BackpressureQueue.spill`).  Record indexes are non-decreasing in append
order, which is what makes retention a directory-level operation:
a segment is fully covered by a checkpoint at ``floor`` as soon as the
*next* segment's first record has ``index <= floor`` (see
:meth:`WriteAheadLog.compact`).

Write failures never surface as bare ``OSError``: ``ENOSPC`` becomes
:class:`~repro.errors.DiskFullError` (actionable — checkpoint, compact,
retry) and anything else :class:`~repro.errors.DurableWriteError`.
A ``fault_hook`` attribute lets the soak injectors simulate exactly
those failures on the append path.

The log counts in plain attributes: ``appends``, ``fsyncs``,
``torn_tails_truncated``, ``segments_compacted``, with ``last_seq`` and
``last_index`` as its position.  Bytes written are the one count kept
in a registry: ``wal_bytes_written`` in :attr:`WriteAheadLog.metrics`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

from repro.core.objects import SpatialObject
from repro.durability.record import (
    decode_payload,
    encode_payload,
    encode_record,
    iter_frames,
    objects_to_payload,
)
from repro.durability.segment import (
    FsyncPolicy,
    list_segments,
    segment_name,
)
from repro.errors import (
    InvalidParameterError,
    WalError,
    wrap_os_error,
)
from repro.obs.metrics import NULL_METRICS

__all__ = ["WriteAheadLog"]


@dataclass
class _Segment:
    first_seq: int
    path: Path
    first_index: int | None  # lazily read for segments found on open


class WriteAheadLog:
    """Durable journal of admitted batches, segmented and compactable.

    Args:
        directory: Where segment files live; created if missing.
            Reopening a directory resumes the log: the newest segment
            is scanned, a torn tail (a crash mid-append) is truncated
            away, and appends continue after the last complete record.
        fsync: Durability policy (see
            :class:`~repro.durability.segment.FsyncPolicy`).  The
            string forms ``"always"`` / ``"batch"`` / ``"os"`` are
            accepted.
        segment_records: Rotate to a fresh segment after this many
            records (bounds both the recovery scan unit and the
            granularity of retention).

    Attributes:
        fault_hook: Test/soak injection point — when set, called as
            ``fault_hook(op)`` (``op`` is ``"append"`` or ``"fsync"``)
            before the corresponding physical operation; an ``OSError``
            raised by the hook takes the same typed-error path as a
            real disk failure.
        metrics: Registry of the ``wal_bytes_written`` counter, the
            log's only count outside its attributes.  The frozen
            end-to-end benchmark (``benchmarks/e2e/stack.py``) sets this
            attribute and reads the counter there, so it stays; it
            holds :data:`~repro.obs.metrics.NULL_METRICS` until set.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: FsyncPolicy | str = FsyncPolicy.ALWAYS,
        segment_records: int = 256,
    ) -> None:
        if segment_records <= 0:
            raise InvalidParameterError(
                f"segment_records must be positive, got {segment_records}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = FsyncPolicy.coerce(fsync)
        self.segment_records = int(segment_records)
        self.metrics = NULL_METRICS
        self.fault_hook: Callable[[str], None] | None = None
        self.last_seq = 0  # newest record sequence number on disk
        self.last_index = 0  # newest batch index journalled
        self.appends = 0
        self.fsyncs = 0
        self.torn_tails_truncated = 0
        self.segments_compacted = 0
        self._segments: List[_Segment] = []
        self._fh = None  # open handle on the newest segment
        self._records_in_current = 0
        self._resume()

    # -- opening / resuming --------------------------------------------------

    def _resume(self) -> None:
        """Adopt existing segments; truncate a torn tail on the newest."""
        for first_seq, path in list_segments(self.directory):
            self._segments.append(
                _Segment(first_seq=first_seq, path=path, first_index=None)
            )
        if not self._segments:
            return
        newest = self._segments[-1]
        with newest.path.open("rb") as fh:
            last_seq = newest.first_seq - 1
            last_index = 0
            count = 0
            truncate_at = 0
            for item in iter_frames(fh):
                if isinstance(item, int):
                    truncate_at = item
                    break
                count += 1
                # damaged frames still reserve their sequence number —
                # reusing it after a skip would forge history
                last_seq = max(last_seq, item.seq)
                if item.ok:
                    last_index = max(
                        last_index, int(decode_payload(item.payload)["index"])
                    )
            fh.seek(0, 2)
            size = fh.tell()
        if truncate_at < size:
            with newest.path.open("r+b") as fh:
                fh.truncate(truncate_at)
            self.torn_tails_truncated += 1
        self.last_seq = last_seq
        self.last_index = last_index
        self._records_in_current = count
        if last_index == 0:
            # the newest segment can be empty (a rotation's fresh file,
            # or its only record torn away): walk older segments so the
            # resumed index never regresses into already-used history
            for segment in reversed(self._segments[:-1]):
                found = self._last_index_in(segment)
                if found:
                    self.last_index = found
                    break

    # -- appending -----------------------------------------------------------

    def append_batch(
        self, objects: list[SpatialObject], index: int | None = None
    ) -> int:
        """Journal one arrival batch; returns its record ``seq``.

        ``index`` defaults to ``last_index + 1`` — the engine appends
        batches in apply order, so the default keeps the WAL aligned
        with the checkpoint position without threading a counter
        through every caller.
        """
        if not objects:
            raise InvalidParameterError("cannot journal an empty batch")
        batch_index = self.last_index + 1 if index is None else int(index)
        if batch_index <= self.last_index:
            raise InvalidParameterError(
                f"batch index must advance: {batch_index} after "
                f"{self.last_index}"
            )
        seq = self._append(
            {
                "kind": "batch",
                "index": batch_index,
                "objects": objects_to_payload(objects),
            }
        )
        self.last_index = batch_index
        return seq

    def log_spill(self, objects: list[SpatialObject], index: int) -> int:
        """Journal a consumer-crash spill (possibly empty) at ``index``.

        Spill records are always synced regardless of policy: they are
        written *because* a crash is in progress, and losing them means
        losing the in-flight buffer they preserve.
        """
        if index < 0:
            raise InvalidParameterError(f"spill index must be >= 0, got {index}")
        seq = self._append(
            {
                "kind": "spill",
                "index": int(index),
                "objects": objects_to_payload(objects),
            }
        )
        self._sync_current(force=True)
        return seq

    def _append(self, document: dict) -> int:
        seq = self.last_seq + 1
        frame = encode_record(seq, encode_payload(document))
        fh = self._current_handle()
        try:
            if self.fault_hook is not None:
                self.fault_hook("append")
            fh.write(frame)
            fh.flush()
            if self.fsync_policy is FsyncPolicy.ALWAYS:
                self._fsync(fh)
        except OSError as exc:
            raise wrap_os_error(exc, "WAL append") from exc
        self.last_seq = seq
        self.appends += 1
        self._records_in_current += 1
        # the one registry count outside the engine: the e2e benchmark
        # reads it (see the ``metrics`` attribute)
        self.metrics.inc("wal_bytes_written", len(frame))
        if self._records_in_current >= self.segment_records:
            self._rotate()
        return seq

    def sync(self) -> None:
        """Force buffered appends to stable storage (``BATCH`` policy's
        durability point; a flush-only no-op under ``OS``)."""
        fh = self._fh
        if fh is None:
            return
        try:
            fh.flush()
            if self.fsync_policy is not FsyncPolicy.OS:
                self._fsync(fh)
        except OSError as exc:
            raise wrap_os_error(exc, "WAL sync") from exc

    def _sync_current(self, force: bool = False) -> None:
        fh = self._fh
        if fh is None:
            return
        try:
            fh.flush()
            if force or self.fsync_policy is not FsyncPolicy.OS:
                self._fsync(fh)
        except OSError as exc:
            raise wrap_os_error(exc, "WAL sync") from exc

    def _fsync(self, fh) -> None:
        if self.fault_hook is not None:
            self.fault_hook("fsync")
        os.fsync(fh.fileno())
        self.fsyncs += 1

    def _current_handle(self):
        if self._fh is None or self._fh.closed:
            if self._segments:
                segment = self._segments[-1]
                self._fh = segment.path.open("ab")
            else:
                self._open_segment(self.last_seq + 1, self.last_index + 1)
        return self._fh

    def _open_segment(self, first_seq: int, first_index: int) -> None:
        path = self.directory / segment_name(first_seq)
        self._segments.append(
            _Segment(first_seq=first_seq, path=path, first_index=first_index)
        )
        self._fh = path.open("ab")
        self._records_in_current = 0

    def _rotate(self) -> None:
        """Seal the current segment and start the next one."""
        self._sync_current(force=self.fsync_policy is not FsyncPolicy.OS)
        self._fh.close()
        self._fh = None
        self._open_segment(self.last_seq + 1, self.last_index + 1)

    # -- retention -----------------------------------------------------------

    def compact(self, floor_index: int) -> int:
        """Delete segments fully covered by a checkpoint at ``floor_index``.

        Record indexes are non-decreasing in append order, so a segment
        is provably covered as soon as its successor's first record has
        ``index <= floor_index`` — checked from the successor's first
        frame alone, without reading the candidate.  The newest segment
        is never deleted.  Returns the number of segments removed.

        Call this with the *oldest retained* checkpoint position
        (:attr:`CheckpointManager.retention_floor`), not the newest —
        recovery may fall back through the rotation history, and the
        WAL must still hold the tail for the oldest rotation it can
        land on.
        """
        removed = 0
        while len(self._segments) >= 2:
            successor = self._segments[1]
            if successor.first_index is None:
                successor.first_index = self._read_first_index(successor)
            if (
                successor.first_index is None
                or successor.first_index > floor_index
            ):
                break
            victim = self._segments.pop(0)
            try:
                victim.path.unlink()
            except OSError as exc:  # pragma: no cover - racing cleanup
                raise wrap_os_error(exc, "WAL compaction") from exc
            removed += 1
        if removed:
            self.segments_compacted += removed
        return removed

    def _read_first_index(self, segment: _Segment) -> int | None:
        """Index of a segment's first readable record (None if none)."""
        with segment.path.open("rb") as fh:
            for item in iter_frames(fh):
                if isinstance(item, int):
                    return None
                if item.ok:
                    return int(decode_payload(item.payload)["index"])

    def _last_index_in(self, segment: _Segment) -> int:
        """Highest readable record index in a segment (0 if none)."""
        last = 0
        with segment.path.open("rb") as fh:
            for item in iter_frames(fh):
                if isinstance(item, int):
                    break
                if item.ok:
                    last = max(
                        last, int(decode_payload(item.payload)["index"])
                    )
        return last

    # -- lifecycle -----------------------------------------------------------

    def note_recovered(self, index: int) -> None:
        """Re-align the batch-index counter after a disk recovery."""
        self.last_index = max(self.last_index, int(index))

    @property
    def segments(self) -> list[Path]:
        """Paths of the live segments, oldest first."""
        return [segment.path for segment in self._segments]

    def close(self) -> None:
        """Seal the log (sync + close the open segment handle)."""
        if self._fh is not None and not self._fh.closed:
            try:
                self._sync_current(
                    force=self.fsync_policy is not FsyncPolicy.OS
                )
            except WalError:  # pragma: no cover - best-effort seal
                pass
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
