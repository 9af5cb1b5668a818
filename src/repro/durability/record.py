"""Length-prefixed WAL record framing with per-record CRC32.

One record is one journalled event (an applied arrival batch, or a
crash-time queue spill).  The frame is designed so that a scanner can
recover from exactly the two kinds of damage a crashed appender leaves
behind:

* a **torn tail** — the process died mid-append, so the file ends with
  a partial frame.  The length prefix makes this detectable (fewer
  bytes remain than the header promises), and everything before the
  torn frame is still readable;
* a **bit flip** — post-write media damage inside an otherwise complete
  frame.  The CRC32 covers the sequence number *and* the payload, so
  any flipped bit in either fails verification and the record can be
  skipped without desynchronising the scan (the length prefix still
  frames it correctly as long as the header survived; a damaged header
  is indistinguishable from a torn tail and truncates the scan there).

Frame layout (big-endian)::

    magic   2 bytes   b"WR"
    crc32   4 bytes   CRC32 over seq bytes + payload bytes
    seq     8 bytes   monotone record sequence number
    length  4 bytes   payload byte count
    payload N bytes   canonical JSON (see :func:`encode_payload`)

Payloads are canonical JSON (sorted keys, no whitespace) so a record
byte-identically round-trips through decode + re-encode — the property
the crash-consistency loop in ``scripts/wal_crashtest.py`` pins.

A batch or spill payload is ``{"index": i, "kind": k, "objects": c}``
where ``c`` is the batch in column form
(:func:`repro.core.objects.objects_to_columns`)::

    {"oid": [int, ...], "timestamp": "<base64>", "weight": "<base64>",
     "x": "<base64>", "y": "<base64>"}

Each base64 string packs one float field as little-endian IEEE-754
doubles, so floats replay bit for bit without being printed as decimal
text.  Logs written before the column form carry ``c`` as a list of
``[oid, x, y, w, t]`` rows; :func:`objects_from_payload` still reads
them, and nothing writes them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterator

from repro.core.objects import (
    SpatialObject,
    objects_from_columns,
    objects_to_columns,
)
from repro.errors import WalCorruptionError

__all__ = [
    "HEADER",
    "MAGIC",
    "FrameScan",
    "ScannedRecord",
    "decode_payload",
    "encode_payload",
    "encode_record",
    "iter_frames",
    "objects_from_payload",
    "objects_to_payload",
    "payload_object_count",
    "scan_frames",
]

MAGIC = b"WR"
# crc32 (I), seq (Q), payload length (I) — the magic rides in front
HEADER = struct.Struct(">IQI")
_FRAME_OVERHEAD = len(MAGIC) + HEADER.size

# a single arrival batch is at most a few thousand objects; anything
# claiming more than this is a corrupt length field, not a real record
MAX_PAYLOAD = 64 * 1024 * 1024


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "big"))) & 0xFFFFFFFF


def encode_record(seq: int, payload: bytes) -> bytes:
    """One complete frame for ``payload`` at sequence number ``seq``."""
    return MAGIC + HEADER.pack(_crc(seq, payload), seq, len(payload)) + payload


def encode_payload(document: dict[str, Any]) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode()


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Parse a frame payload back into its document.

    Only called on CRC-verified payloads, so a parse failure means the
    *writer* produced garbage — surfaced as corruption, not ignored.
    """
    try:
        document = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalCorruptionError(
            f"CRC-valid WAL payload is not JSON: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise WalCorruptionError(
            f"WAL payload must be a JSON object, got "
            f"{type(document).__name__}"
        )
    return document


def objects_to_payload(objects: list[SpatialObject]) -> dict[str, Any]:
    """The ``objects`` field of a record: the batch in column form."""
    return objects_to_columns(objects)


def objects_from_payload(
    objects: dict[str, Any] | list[list[float]],
) -> list[SpatialObject]:
    """Rebuild a batch from a record's ``objects`` field: the column
    form, or the ``[oid, x, y, w, t]`` rows of an older log.

    Both round-trip every float exactly, so the rebuilt objects compare
    equal field-for-field with the originals — which is what makes WAL
    replay bit-identical to the uninterrupted run.
    """
    if isinstance(objects, dict):
        return objects_from_columns(objects)
    return [
        SpatialObject(
            x=float(x),
            y=float(y),
            weight=float(w),
            timestamp=float(t),
            oid=int(oid),
        )
        for oid, x, y, w, t in objects
    ]


def payload_object_count(objects: dict[str, Any] | list[Any]) -> int:
    """How many objects a record's ``objects`` field holds, in either
    shape, without decoding them."""
    if isinstance(objects, dict):
        return len(objects.get("oid", ()))
    return len(objects)


@dataclass(frozen=True)
class ScannedRecord:
    """One frame the scanner classified.

    ``ok`` frames carry a verified payload; damaged frames carry the
    reason instead (``"crc"``) and a ``None`` payload.
    """

    seq: int
    offset: int
    payload: bytes | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.payload is not None


@dataclass(frozen=True)
class FrameScan:
    """Outcome of scanning one segment file.

    Attributes:
        records: Every frame found, valid or CRC-damaged, in file order.
        truncate_at: Byte offset of the first torn frame — the scan
            could not read a complete frame past it.  Equal to the file
            size when the tail is clean.
        torn: True when trailing bytes had to be abandoned.
    """

    records: tuple[ScannedRecord, ...]
    truncate_at: int
    torn: bool


def iter_frames(fh: BinaryIO) -> Iterator[ScannedRecord | int]:
    """Low-level frame walk: yields :class:`ScannedRecord` per complete
    frame, then the truncation offset (an ``int``) exactly once at the
    end — the file size for a clean tail, the torn frame's start
    otherwise."""
    offset = fh.tell()
    while True:
        head = fh.read(_FRAME_OVERHEAD)
        if len(head) < _FRAME_OVERHEAD:
            yield offset
            return
        if head[: len(MAGIC)] != MAGIC:
            # garbage where a frame should start: everything from here
            # on is unframed noise — treat as a torn tail
            yield offset
            return
        crc, seq, length = HEADER.unpack(head[len(MAGIC):])
        if length > MAX_PAYLOAD:
            yield offset
            return
        payload = fh.read(length)
        if len(payload) < length:
            yield offset
            return
        if _crc(seq, payload) != crc:
            yield ScannedRecord(
                seq=seq, offset=offset, payload=None, reason="crc"
            )
        else:
            yield ScannedRecord(seq=seq, offset=offset, payload=payload)
        offset += _FRAME_OVERHEAD + length


def scan_frames(fh: BinaryIO) -> FrameScan:
    """Scan a segment file from its current position to the end."""
    records: list[ScannedRecord] = []
    truncate_at = fh.tell()
    for item in iter_frames(fh):
        if isinstance(item, int):
            truncate_at = item
            break
        records.append(item)
    fh.seek(0, 2)
    return FrameScan(
        records=tuple(records),
        truncate_at=truncate_at,
        torn=truncate_at < fh.tell(),
    )
