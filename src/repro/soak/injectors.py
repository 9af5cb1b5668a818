"""Fault injectors for soak campaigns, beside the record-level
:class:`~repro.resilience.chaos.FaultInjectingSource`.

Three families:

* :class:`ClockSkewSource` — clock-skew / watermark-regression bursts:
  periodically rewrites a run of timestamps *backwards*, as a producer
  with a skewed clock would, forcing the reorder buffer to absorb (or
  late-drop) the regressed records while its watermark stays monotone.
* :func:`corrupt_checkpoint` — damages a checkpoint file on disk the
  two ways the recovery path must survive: a *torn* write (truncated
  bytes, caught by the JSON layer) and a *bit flip* (payload altered,
  envelope still valid JSON — only the CRC32 content checksum can
  catch it).
* :func:`corrupt_wal` + :class:`NonReplayableSource` — the durability
  campaign's tools: damage a write-ahead log the ways a crash or
  failing media would (a tail torn mid-record, a kill mid-append, a
  bit flip under a now-stale CRC), and wrap a stream so any attempt to
  re-read it during recovery is counted — and a re-*iteration* refused
  outright — which is how every soak campaign proves its recovery
  path performed zero source reads.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.objects import SpatialObject, pack_doubles, unpack_doubles
from repro.errors import InvalidParameterError, ReproError

__all__ = [
    "ClockSkewSource",
    "NonReplayableSource",
    "corrupt_checkpoint",
    "corrupt_wal",
    "CORRUPTION_MODES",
    "WAL_CORRUPTION_MODES",
]

CORRUPTION_MODES = ("torn", "bitflip")
WAL_CORRUPTION_MODES = ("torn_tail", "partial_append", "bitflip")


class ClockSkewSource:
    """Wrap a record stream, periodically regressing timestamps.

    Every ``period`` records, the next ``burst`` valid objects are
    re-stamped ``skew`` time units into the past.  Non-``SpatialObject``
    payloads (e.g. records already corrupted by an upstream
    :class:`~repro.resilience.chaos.FaultInjectingSource`) pass through
    untouched but still advance the position counter, so the skew
    schedule is deterministic for a fixed upstream sequence.

    Args:
        source: Upstream records (objects or raw payloads).
        skew: How far back (in timestamp units) skewed stamps regress.
        period: Distance between burst starts, in records.
        burst: Number of consecutive records skewed per burst.
    """

    def __init__(
        self,
        source: Iterable[object],
        *,
        skew: float,
        period: int,
        burst: int = 1,
    ) -> None:
        if skew <= 0:
            raise InvalidParameterError(f"skew must be positive, got {skew}")
        if period <= 0:
            raise InvalidParameterError(
                f"period must be positive, got {period}"
            )
        if not 0 < burst <= period:
            raise InvalidParameterError(
                f"need 0 < burst <= period, got {burst} / {period}"
            )
        self._source = source
        self.skew = float(skew)
        self.period = int(period)
        self.burst = int(burst)
        self.skewed = 0
        self._position = 0

    def __iter__(self) -> Iterator[object]:
        for record in self._source:
            in_burst = self._position % self.period < self.burst
            self._position += 1
            if in_burst and isinstance(record, SpatialObject):
                self.skewed += 1
                yield dataclasses.replace(
                    record, timestamp=record.timestamp - self.skew
                )
            else:
                yield record


def corrupt_checkpoint(path: str | Path, mode: str) -> None:
    """Damage a checkpoint file in place (soak/testing hook).

    * ``"torn"`` — truncate the file to ~60% of its bytes, simulating
      a write torn by power loss on a filesystem without atomic
      rename (or post-write media damage).  The JSON no longer parses,
      so even checksum-less loading detects it.
    * ``"bitflip"`` — silently perturb the payload (the *newest*
      object's weight — the oldest would be evicted during tail replay
      before any check could see it — or the batch index when the
      window was empty) without touching the stored ``crc32``.  The
      weight is changed inside the snapshot's packed ``weight`` column,
      so the file must hold a format-2 snapshot (the one checkpoints
      write).  The file still parses and restores; only checksum
      verification can tell it is wrong.
    """
    file = Path(path)
    if not file.exists():
        raise InvalidParameterError(f"no checkpoint to corrupt at {file}")
    if mode == "torn":
        data = file.read_bytes()
        file.write_bytes(data[: max(1, (len(data) * 3) // 5)])
        return
    if mode == "bitflip":
        document = json.loads(file.read_text())
        columns = document["state"]["objects"]
        if columns["oid"]:
            weights = unpack_doubles(columns["weight"])
            weights[-1] += 1.0
            columns["weight"] = pack_doubles(weights)
        else:
            document["batch_index"] = int(document.get("batch_index", 0)) + 1
        file.write_text(json.dumps(document))
        return
    raise InvalidParameterError(
        f"unknown corruption mode {mode!r}; choose from "
        f"{', '.join(CORRUPTION_MODES)}"
    )


def corrupt_wal(directory: str | Path, mode: str) -> None:
    """Damage a write-ahead log on disk (soak/testing hook).

    * ``"torn_tail"`` — truncate the newest segment mid-way through its
      final frame: post-crash media damage of the tail.  The final
      record at a harness crash is the queue's spill record, so the
      injury recovery must absorb is *losing the spill* — the spilled
      objects stay in the ledger's ``spilled`` bucket instead of being
      restored, exactly the pre-WAL behaviour.
    * ``"partial_append"`` — append the first half of a plausible frame
      to the newest segment: the appender was killed mid-``write``.
      Under append-before-apply the torn record was never applied, so
      recovery truncates it away losing nothing.
    * ``"bitflip"`` — flip one payload byte of the *first* record of the
      *oldest* segment without touching its CRC (bit-rot with a stale
      checksum).  That record's batch is covered by any later
      checkpoint, so recovery must skip it and still replay an exact
      tail.

    All three target the log *between* incarnations — corrupt after the
    old ``WriteAheadLog`` is closed and before the recovery one opens.
    """
    from repro.durability.record import MAGIC
    from repro.durability.segment import list_segments

    segments = list_segments(Path(directory))
    if not segments:
        raise InvalidParameterError(f"no WAL segments under {directory}")
    if mode == "torn_tail":
        # the newest segment can be an empty fresh rotation — tear the
        # newest one that actually holds bytes
        candidates = [p for _seq, p in segments if p.stat().st_size > 0]
        if not candidates:
            raise InvalidParameterError(
                f"no non-empty WAL segment under {directory} to tear"
            )
        path = candidates[-1]
        data = path.read_bytes()
        # chop into the last frame: enough to lose its CRC'd payload
        # tail but keep earlier frames intact
        path.write_bytes(data[: max(1, len(data) - 7)])
        return
    if mode == "partial_append":
        path = segments[-1][1]
        with path.open("ab") as fh:
            fh.write(MAGIC + b"\x00\x01\x02\x03\x04")
        return
    if mode == "bitflip":
        path = segments[0][1]
        data = bytearray(path.read_bytes())
        # frame layout: 2B magic + 16B header, payload follows — flip a
        # byte safely inside the first record's payload
        target = len(MAGIC) + 16 + 4
        if target >= len(data):
            raise InvalidParameterError(
                f"segment {path} too small to bit-flip"
            )
        data[target] ^= 0x20
        path.write_bytes(bytes(data))
        return
    raise InvalidParameterError(
        f"unknown WAL corruption mode {mode!r}; choose from "
        f"{', '.join(WAL_CORRUPTION_MODES)}"
    )


class NonReplayableSource:
    """A stream that can be consumed exactly once, with read accounting.

    Models the paper's live-stream setting: an arrival is gone the
    moment it is consumed.  Iterating a second time raises
    :class:`~repro.errors.ReproError`, and every object handed out
    increments :attr:`reads` — so a recovery path that touches the
    source at all is caught either by the counter (same iterator) or
    by the refusal (fresh iteration), never silently forgiven.
    """

    def __init__(self, source: Iterable[object]) -> None:
        self._iterator = iter(source)
        self.reads = 0
        self._consumed = False

    def __iter__(self) -> Iterator[object]:
        if self._consumed:
            raise ReproError(
                "source is not replayable: it has already been iterated "
                "once and its records are gone"
            )
        self._consumed = True
        return self._generate()

    def _generate(self) -> Iterator[object]:
        for record in self._iterator:
            self.reads += 1
            yield record
