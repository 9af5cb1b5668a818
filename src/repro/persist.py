"""Monitor state persistence: snapshot and restore.

Continuous queries run for days; process restarts must not lose the
window.  A snapshot captures the monitor's configuration and the alive
window contents as plain JSON-compatible data; restore rebuilds the
monitor and bulk-loads the objects through :meth:`ingest`, which
reconstructs the index deterministically (the indexes are pure
functions of the arrival sequence).

Only data is persisted — never code or derived index structures — so
snapshots are portable across library versions that keep the object
model stable.

Example::

    snap = snapshot(monitor)
    json.dump(snap, open("state.json", "w"))
    ...
    monitor = restore(json.load(open("state.json")))
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.core.quadtree import QuadtreeAG2Monitor
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvalidParameterError, SnapshotError
from repro.window import CountWindow, SlidingWindow, TimeWindow

__all__ = [
    "snapshot",
    "restore",
    "save_json",
    "load_json",
    "atomic_write_json",
    "read_json",
]

_FORMAT_VERSION = 1

_MONITOR_KINDS = {
    "naive": NaiveMonitor,
    "g2": G2Monitor,
    "ag2": AG2Monitor,
    "ag2_quadtree": QuadtreeAG2Monitor,
    "topk": TopKAG2Monitor,
}


def _monitor_kind(monitor: MaxRSMonitor) -> str:
    # subclass checks from most to least specific
    if isinstance(monitor, TopKAG2Monitor):
        return "topk"
    if isinstance(monitor, QuadtreeAG2Monitor):
        return "ag2_quadtree"
    if isinstance(monitor, AG2Monitor):
        return "ag2"
    if isinstance(monitor, G2Monitor):
        return "g2"
    if isinstance(monitor, NaiveMonitor):
        return "naive"
    raise InvalidParameterError(
        f"cannot snapshot monitor type {type(monitor).__name__}"
    )


def _window_spec(window: SlidingWindow) -> dict[str, Any]:
    if isinstance(window, CountWindow):
        return {"kind": "count", "capacity": window.capacity}
    if isinstance(window, TimeWindow):
        return {"kind": "time", "duration": window.duration}
    raise InvalidParameterError(
        f"cannot snapshot window type {type(window).__name__}"
    )


def _window_from_spec(spec: dict[str, Any]) -> SlidingWindow:
    kind = spec.get("kind")
    if kind == "count":
        return CountWindow(int(spec["capacity"]))
    if kind == "time":
        return TimeWindow(float(spec["duration"]))
    raise InvalidParameterError(f"unknown window kind {kind!r}")


def snapshot(monitor: MaxRSMonitor) -> dict[str, Any]:
    """Serialisable state of a monitor: configuration + alive objects."""
    kind = _monitor_kind(monitor)
    extra: dict[str, Any] = {}
    if isinstance(monitor, TopKAG2Monitor):
        extra["k"] = monitor.k
        extra["cell_size"] = monitor.grid.cell_size
    elif isinstance(monitor, QuadtreeAG2Monitor):
        # the adaptive structure itself is derived state — replaying
        # the window through ingest() regrows an equivalent tree
        extra["epsilon"] = monitor.epsilon
        extra["tile_size"] = monitor.tree.tile_size
        extra["min_leaf_size"] = monitor.tree.min_leaf_size
        extra["split_occupancy"] = monitor.split_occupancy
        extra["merge_occupancy"] = monitor.merge_occupancy
        extra["split_load"] = monitor.split_load
        extra["merge_load"] = monitor.merge_load
        extra["load_decay"] = monitor.load_decay
    elif isinstance(monitor, AG2Monitor):
        extra["epsilon"] = monitor.epsilon
        extra["cell_size"] = monitor.grid.cell_size
    elif isinstance(monitor, G2Monitor):
        extra["cell_size"] = monitor.grid.cell_size
    elif isinstance(monitor, NaiveMonitor):
        extra["k"] = monitor.k
    return {
        "format": _FORMAT_VERSION,
        "kind": kind,
        "rect_width": monitor.rect_width,
        "rect_height": monitor.rect_height,
        "window": _window_spec(monitor.window),
        "extra": extra,
        "objects": [
            {
                "oid": o.oid,
                "x": o.x,
                "y": o.y,
                "weight": o.weight,
                "timestamp": o.timestamp,
            }
            for o in monitor.window.contents
        ],
    }


def restore(state: dict[str, Any]) -> MaxRSMonitor:
    """Rebuild a monitor from a snapshot and replay its window.

    Unknown format versions and unknown monitor/window kinds raise
    :class:`InvalidParameterError`; a structurally damaged snapshot
    (missing fields, wrong field types) raises :class:`SnapshotError`
    rather than leaking ``KeyError``/``TypeError`` — both are
    :class:`~repro.errors.ReproError`, so recovery code has one thing
    to catch.
    """
    if not isinstance(state, dict):
        raise SnapshotError(
            f"snapshot must be a JSON object, got {type(state).__name__}"
        )
    if state.get("format") != _FORMAT_VERSION:
        raise InvalidParameterError(
            f"unsupported snapshot format {state.get('format')!r}"
        )
    kind = state.get("kind")
    cls = _MONITOR_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise InvalidParameterError(f"unknown monitor kind {kind!r}")
    try:
        window = _window_from_spec(state["window"])
        extra = dict(state.get("extra", {}))
        # older snapshots name the sweep kernel they ran on; every
        # kernel gave byte-identical answers, so the key carries nothing
        extra.pop("backend", None)
        monitor = cls(
            state["rect_width"], state["rect_height"], window, **extra
        )
        objects = [
            SpatialObject(
                x=rec["x"],
                y=rec["y"],
                weight=rec["weight"],
                timestamp=rec["timestamp"],
                oid=int(rec["oid"]),
            )
            for rec in state.get("objects", [])
        ]
    except (KeyError, TypeError) as exc:
        raise SnapshotError(f"snapshot is missing or malformed: {exc!r}") from exc
    if objects:
        monitor.ingest(objects)
    return monitor


def atomic_write_json(path: str | Path, document: Any) -> None:
    """Serialise ``document`` to ``path`` atomically.

    The JSON is written to a temporary file in the same directory,
    flushed and fsynced, then moved into place with :func:`os.replace`
    — readers (and crash recovery) see either the old complete file or
    the new complete file, never a truncated intermediate.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(document, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json(path: str | Path) -> Any:
    """Load a JSON document, mapping corruption to :class:`SnapshotError`."""
    file = Path(path)
    if not file.exists():
        raise InvalidParameterError(f"no such snapshot file: {file}")
    try:
        with file.open() as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot file {file} is truncated or not valid JSON: {exc}"
        ) from exc


def save_json(monitor: MaxRSMonitor, path: str | Path) -> None:
    """Snapshot a monitor straight to a JSON file (atomically)."""
    atomic_write_json(path, snapshot(monitor))


def load_json(path: str | Path) -> MaxRSMonitor:
    """Restore a monitor from a JSON snapshot file."""
    return restore(read_json(path))
