"""Offline WAL inspection for the ``maxrs-stream wal inspect`` command.

Everything here is read-only and tolerant: a damaged log still
produces a report (the point of inspection is triage), and only
``max_skips`` exhaustion during a *strict* verify raises.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.durability.record import (
    decode_payload,
    payload_object_count,
    scan_frames,
)
from repro.durability.segment import list_segments
from repro.errors import WalCorruptionError

__all__ = ["inspect_wal"]


def _segment_doc(first_seq: int, path: Path) -> dict[str, Any]:
    with path.open("rb") as fh:
        scan = scan_frames(fh)
        fh.seek(0, 2)
        size = fh.tell()
    records = []
    for record in scan.records:
        entry: dict[str, Any] = {
            "seq": record.seq,
            "offset": record.offset,
            "ok": record.ok,
        }
        if record.ok:
            try:
                document = decode_payload(record.payload)
            except WalCorruptionError:
                entry["ok"] = False
                entry["reason"] = "payload"
            else:
                entry["kind"] = document.get("kind")
                entry["index"] = document.get("index")
                entry["objects"] = payload_object_count(
                    document.get("objects", [])
                )
        else:
            entry["reason"] = record.reason
        records.append(entry)
    return {
        "segment": path.name,
        "first_seq": first_seq,
        "bytes": size,
        "torn": scan.torn,
        "torn_bytes": size - scan.truncate_at if scan.torn else 0,
        "records": records,
    }


def inspect_wal(directory: str | Path) -> dict[str, Any]:
    """Walk every segment under ``directory`` into a JSON-able report.

    The report's top level carries the verdicts a human (or the CI
    durability-smoke job) wants first: whether every record verified,
    how many were damaged, and whether any tail is torn; per-segment
    detail follows.
    """
    directory = Path(directory)
    segments = [
        _segment_doc(first_seq, path)
        for first_seq, path in list_segments(directory)
    ]
    damaged = sum(
        1
        for segment in segments
        for record in segment["records"]
        if not record["ok"]
    )
    total = sum(len(segment["records"]) for segment in segments)
    return {
        "directory": str(directory),
        "segments": len(segments),
        "records": total,
        "damaged_records": damaged,
        "torn_segments": sum(1 for s in segments if s["torn"]),
        "clean": damaged == 0 and all(not s["torn"] for s in segments),
        "detail": segments,
    }
