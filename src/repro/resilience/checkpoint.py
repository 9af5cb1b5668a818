"""Atomic periodic checkpoints with load-last + replay-tail recovery.

A checkpoint is a :mod:`repro.persist` snapshot plus a *stream
position* (how many arrival batches had been consumed when it was
taken).  Recovery is then exactly two steps:

1. load the last complete checkpoint (:func:`CheckpointManager.load`) —
   atomic writes guarantee the file on disk is always a complete
   document, never a torn write;
2. replay the tail: re-feed the batches after the recorded position,
   which reproduces the uninterrupted run bit-for-bit because the
   indexes are pure functions of the arrival sequence.

The replay tail can come from two places.  A deterministic, replayable
source can simply be re-read.  For live streams — the paper's actual
setting, where an arrival is gone once consumed — the tail comes from
the write-ahead log instead (:mod:`repro.durability`), which journals
every admitted batch before it reaches the compute tier.  The manager
exposes :attr:`CheckpointManager.retention_floor` so WAL compaction
never deletes a segment some retained checkpoint might still need.

The manager also keeps a bounded history of previous checkpoints
(``keep``), so a checkpoint corrupted *after* being written (disk
fault) still leaves an older recovery point behind.  The write order
makes ``ENOSPC`` safe: the new document is written and fsynced to a
temporary file *before* the history is rotated, so a full disk raises
:class:`~repro.errors.DiskFullError` with every previous checkpoint
still readable in place.

A checkpoint is encoded once, as ``json.dumps`` of the document would
write it: the snapshot's columns (:func:`repro.core.objects.objects_to_columns`,
one compiled pass over the window) are spliced in whole, since their
base64 text needs no escaping, the oid list is written by the kernel
(:func:`json_ints`), and the CRC32 covers the bytes written.
Loading reads the file once and checks the CRC over the bytes it parses.

The manager counts in plain attributes: ``checkpoints_written`` and
``batch_index`` on the write side, and ``recoveries``, ``fallbacks``
and ``checksum_failures`` on the recovery side.  Recovery is a method
of the manager, so its counts outlive the monitor a crash discards.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Any

from repro import persist
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import json_ints
from repro.errors import (
    CheckpointChecksumError,
    InvalidParameterError,
    SnapshotError,
    wrap_os_error,
)

__all__ = ["CheckpointManager"]

#: format 2 checksums the bytes written; format 1 files (a checksum of
#: a second, canonical encoding of the payload) still load
_CHECKPOINT_FORMAT = 2
#: what separates the checksummed bytes of a format-2 file from its
#: ``crc32`` field, the document's last
_CRC_FIELD = b', "crc32": '


def _snapshot_target(monitor: Any) -> MaxRSMonitor:
    """The snapshotable monitor: a monitor exposing
    ``checkpoint_target()`` (the degradation ladder) nominates its own
    persistable view."""
    nominate = getattr(monitor, "checkpoint_target", None)
    return monitor if nominate is None else nominate()


def _encode(batch_index: int, state: dict[str, Any]) -> bytes:
    """A format-2 checkpoint file: ``json.dumps`` of the document
    ``{"format", "batch_index", "state", "crc32"}``, byte for byte, with
    the CRC32 taken over every byte before the ``crc32`` field, exactly
    as written.

    The state is a :func:`persist.snapshot`, whose last member,
    ``objects``, is assembled from its columns: the base64 strings need
    no escaping, so they are spliced in whole rather than scanned; the
    oid list is written by :func:`json_ints` (``json.dumps`` when an
    oid is not a 64-bit int), and only the rest of the state goes
    through ``json.dumps``.  The document is built in one string, so no
    second copy of it is live while it is encoded."""
    columns = state["objects"]
    head = json.dumps({k: v for k, v in state.items() if k != "objects"})
    oids = json_ints(columns["oid"])
    if oids is None:
        oids = json.dumps(columns["oid"])
    blob = (
        f'{{"format": {_CHECKPOINT_FORMAT}, "batch_index": {batch_index}, '
        f'"state": {head[:-1]}, "objects": {{'
        f'"oid": {oids}, "x": "{columns["x"]}", '
        f'"y": "{columns["y"]}", "weight": "{columns["weight"]}", '
        f'"timestamp": "{columns["timestamp"]}"}}}}'
    ).encode()
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    return blob + _CRC_FIELD + b"%d}" % crc


def _written_crc(raw: bytes) -> int | None:
    """CRC32 of a format-2 file's checksummed bytes, ``None`` when its
    ``crc32`` field cannot be found."""
    cut = raw.rfind(_CRC_FIELD)
    return None if cut < 0 else zlib.crc32(raw[:cut]) & 0xFFFFFFFF


def _read_document(path: str | Path) -> tuple[Any, bytes]:
    """Read one checkpoint file once: its parsed document and the bytes
    it was parsed from, mapping corruption to :class:`SnapshotError`
    and a missing file to :class:`InvalidParameterError`."""
    file = Path(path)
    try:
        raw = file.read_bytes()
    except FileNotFoundError:
        raise InvalidParameterError(f"no such checkpoint file: {file}") from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"checkpoint file {file} is truncated or not valid JSON: {exc}"
        ) from exc


def _payload_crc(batch_index: int, state: Any) -> int:
    """The format-1 checksum: CRC32 over the canonical JSON form of the
    checkpoint payload.

    Canonical = sorted keys, no whitespace — the same bytes regardless
    of envelope key order, so the stored checksum survives a parse +
    re-serialise round trip (floats repr-round-trip exactly in JSON).
    """
    blob = json.dumps(
        {"batch_index": batch_index, "state": state},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


class CheckpointManager:
    """Periodic atomic snapshots of one monitor.

    Args:
        monitor: Monitor to checkpoint; a degradation ladder is
            checkpointed through its ``checkpoint_target()``.  ``None``
            builds a manager that can only :meth:`recover` until
            :meth:`resume` binds the recovered monitor.
        path: Checkpoint file.  Rotated history lives next to it as
            ``<name>.1``, ``<name>.2``, … (most recent first).
        every: Take a checkpoint each time this many batches have been
            noted (0 disables automatic checkpointing; :meth:`checkpoint`
            still works on demand).
        keep: How many *previous* checkpoints to retain besides the
            current one.
    """

    def __init__(
        self,
        monitor: Any,
        path: str | Path,
        *,
        every: int = 0,
        keep: int = 1,
    ) -> None:
        if every < 0:
            raise InvalidParameterError(f"every must be >= 0, got {every}")
        if keep < 0:
            raise InvalidParameterError(f"keep must be >= 0, got {keep}")
        self._monitor = monitor
        self.path = Path(path)
        self.every = every
        self.keep = keep
        self.batch_index = 0  # arrival batches consumed so far
        self.checkpoints_written = 0
        self.recoveries = 0  # recover() calls that found a checkpoint
        self.fallbacks = 0  # damaged candidates recover() skipped
        self.checksum_failures = 0  # of those, checksum mismatches
        self._fsync = os.fsync  # injectable for disk-fault tests
        # positions (batch indexes) of the retained checkpoints on
        # disk, newest first — scanned so a manager constructed over an
        # existing directory still knows what its rotations cover
        self.positions: list[int] = self._scan_positions()

    # -- writing -----------------------------------------------------------

    def note_batch(self) -> bool:
        """Record one consumed batch; checkpoint when the period elapses.

        Returns True when a checkpoint was written for this batch —
        the engine calls this after every successfully applied batch.
        """
        self.batch_index += 1
        if self.every and self.batch_index % self.every == 0:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> Path:
        """Write the current state atomically, rotating history.

        The new document reaches stable storage (mkstemp + fsync in the
        target directory) *before* the rotation touches any existing
        file, so a disk failure mid-write — ``ENOSPC`` included —
        leaves every previously retained checkpoint readable in place
        and raises a typed :class:`~repro.errors.DurableWriteError`
        (:class:`~repro.errors.DiskFullError` for a full disk), never a
        bare ``OSError``.
        """
        data = _encode(
            self.batch_index, persist.snapshot(_snapshot_target(self._monitor))
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent or Path("."),
            prefix=self.path.name,
            suffix=".tmp",
        )
        try:
            try:
                with os.fdopen(fd, "wb") as fh:
                    # one encode, one write: json.dump's chunked
                    # writes cost more CPU than the encode itself
                    fh.write(data)
                    fh.flush()
                    self._fsync(fh.fileno())
                # the new checkpoint is durable; only now disturb history
                self._rotate()
                os.replace(tmp_name, self.path)
            except OSError as exc:
                raise wrap_os_error(exc, "checkpoint write") from exc
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.positions = ([self.batch_index] + self.positions)[
            : self.keep + 1
        ]
        self.checkpoints_written += 1
        return self.path

    def _rotate(self) -> None:
        if self.keep <= 0 or not self.path.exists():
            return
        # shift <name>.(keep-1) ... <name>.1 up one slot, then current → .1
        oldest = self.path.with_name(f"{self.path.name}.{self.keep}")
        if oldest.exists():
            oldest.unlink()
        for slot in range(self.keep - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{slot}")
            if src.exists():
                src.replace(self.path.with_name(f"{self.path.name}.{slot + 1}"))
        self.path.replace(self.path.with_name(f"{self.path.name}.1"))

    # -- retention ---------------------------------------------------------

    def _candidates(self) -> list[Path]:
        """The checkpoint files on disk, newest first: ``<name>``, then
        ``<name>.1``, ``<name>.2``, … up to the first missing slot."""
        candidates = [self.path] if self.path.exists() else []
        slot = 1
        while True:
            rotated = self.path.with_name(f"{self.path.name}.{slot}")
            if not rotated.exists():
                return candidates
            candidates.append(rotated)
            slot += 1

    def _scan_positions(self) -> list[int]:
        """Batch indexes of the checkpoints already on disk, newest first.

        Unreadable files are skipped — a checkpoint that cannot be
        parsed can never be a recovery target, so it does not constrain
        WAL retention either.
        """
        found: list[int] = []
        for candidate in self._candidates():
            try:
                document, _ = _read_document(candidate)
                found.append(int(document["batch_index"]))
            except (SnapshotError, InvalidParameterError, KeyError,
                    TypeError, ValueError):
                continue
        return sorted(found, reverse=True)

    @property
    def retention_floor(self) -> int:
        """Oldest position any retained checkpoint could recover to.

        WAL compaction must use *this* — not the newest position —
        because :meth:`recover` falls back through the rotation history
        and the oldest readable rotation still needs its replay tail.
        Zero (retain everything) when no checkpoint exists yet.
        """
        return min(self.positions) if self.positions else 0

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def load(
        path: str | Path, *, verify_checksum: bool = True
    ) -> tuple[MaxRSMonitor, int]:
        """Rebuild ``(monitor, batch_index)`` from one checkpoint file.

        Truncated files, non-JSON content, unknown format versions and
        missing fields all raise a :class:`~repro.errors.ReproError`
        subclass (:class:`SnapshotError` / ``InvalidParameterError``),
        never a bare ``KeyError``/``JSONDecodeError``.  When
        ``verify_checksum`` is on, silent payload corruption raises
        :class:`~repro.errors.CheckpointChecksumError`, and so does a
        format-2 file without its ``crc32`` field.  The file is read
        once, so a format-2 checksum covers the very bytes that are
        parsed and restored.  Format-1 files still load: their checksum
        covers a canonical re-encoding, and one without a ``crc32``
        loads unverified.
        """
        document, raw = _read_document(path)
        if not isinstance(document, dict):
            raise SnapshotError(f"checkpoint {path} is not a JSON object")
        fmt = document.get("format")
        if fmt not in (1, _CHECKPOINT_FORMAT):
            raise SnapshotError(
                f"unsupported checkpoint format "
                f"{document.get('format')!r} in {path}"
            )
        if "state" not in document or "batch_index" not in document:
            raise SnapshotError(f"checkpoint {path} is missing fields")
        batch_index = int(document["batch_index"])
        stored_crc = document.get("crc32")
        # only format 1 may lack a checksum; every format-2 file is
        # written with one, so a missing field is damage
        if verify_checksum and (stored_crc is not None or fmt != 1):
            if fmt == 1:
                actual = _payload_crc(batch_index, document["state"])
            else:
                actual = _written_crc(raw)
            if stored_crc is None or actual != int(stored_crc):
                raise CheckpointChecksumError(
                    f"checkpoint {path} failed its checksum: stored "
                    f"crc32 {stored_crc}, payload hashes to {actual}"
                )
        monitor = persist.restore(document["state"])
        return monitor, batch_index

    def recover(
        self, *, verify_checksum: bool = True
    ) -> tuple[MaxRSMonitor, int]:
        """Load the newest readable checkpoint, falling back through
        the rotated history when the current file is damaged.

        Every damaged candidate skipped counts in :attr:`fallbacks`
        (and in :attr:`checksum_failures` when the damage was a
        checksum mismatch), so silent corruption leaves an observable
        trace even though recovery succeeds; a success counts in
        :attr:`recoveries`.  Raises :class:`SnapshotError` when no
        retained checkpoint is readable.
        """
        last_error: Exception | None = None
        for candidate in self._candidates():
            try:
                monitor, batch_index = self.load(
                    candidate, verify_checksum=verify_checksum
                )
            except (SnapshotError, InvalidParameterError) as exc:
                if isinstance(exc, CheckpointChecksumError):
                    self.checksum_failures += 1
                self.fallbacks += 1
                last_error = exc
                continue
            self.recoveries += 1
            return monitor, batch_index
        raise SnapshotError(
            f"no readable checkpoint at {self.path}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def resume(self, monitor: Any, batch_index: int) -> None:
        """Rebind the manager after recovery so periods keep aligning."""
        self._monitor = monitor
        self.batch_index = int(batch_index)
