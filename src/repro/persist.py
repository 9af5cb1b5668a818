"""Monitor state persistence: snapshot and restore.

Continuous queries run for days; process restarts must not lose the
window.  A snapshot captures the monitor's configuration and the alive
window contents as plain JSON-compatible data; restore rebuilds the
monitor and bulk-loads the objects through :meth:`ingest`, which
reconstructs the index deterministically (the indexes are pure
functions of the arrival sequence), then resumes the window's tick so
later answers continue the original tick sequence.  This JSON is the
library's one state format, and this module never touches a file:
:class:`~repro.resilience.checkpoint.CheckpointManager` is the one
writer (and reader) of monitor state on disk, with a CRC, rotated
history and typed ``OSError`` mapping.

Only data is persisted — never code or derived index structures — so
snapshots are portable across library versions that keep the object
model stable.

Snapshot format 2 (the one written)::

    {"format": 2, "kind": "ag2", "rect_width": ..., "rect_height": ...,
     "window": {"kind": "count", "capacity": ...}, "tick": ...,
     "extra": {...},
     "objects": {"oid": [int, ...], "x": "<base64>", "y": "<base64>",
                 "weight": "<base64>", "timestamp": "<base64>"}}

``objects`` holds the alive window in arrival order as columns (see
:func:`repro.core.objects.objects_to_columns`, one compiled pass over a
window of plain objects): the oids as a JSON int list, and each float field as one base64 string of little-endian
IEEE-754 doubles, so every float — ``-0.0`` and infinite timestamps
included — restores bit for bit, without decimal float text.  Format 1
(one ``{"oid", "x", "y", "weight", "timestamp"}`` dict per object) is
still restored, never written.  ``objects`` is the last member, so
:class:`~repro.resilience.checkpoint.CheckpointManager` can encode a
snapshot by splicing its column strings in after the rest.

Example::

    clone = restore(snapshot(monitor))
"""

from __future__ import annotations

from typing import Any

from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import (
    SpatialObject,
    objects_from_columns,
    objects_to_columns,
)
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvalidParameterError, SnapshotError
from repro.window import CountWindow, SlidingWindow, TimeWindow

__all__ = ["snapshot", "restore"]

#: the format :func:`snapshot` writes; :func:`restore` also reads 1
_FORMAT_VERSION = 2

_MONITOR_KINDS = {
    "naive": NaiveMonitor,
    "g2": G2Monitor,
    "ag2": AG2Monitor,
    "topk": TopKAG2Monitor,
    # the skew-adaptive quadtree aG2 index is gone; its checkpoints
    # replay into grid aG2, which gives the same answers
    "ag2_quadtree": AG2Monitor,
}


def _monitor_kind(monitor: MaxRSMonitor) -> str:
    # subclass checks from most to least specific
    if isinstance(monitor, TopKAG2Monitor):
        return "topk"
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
    """Serialisable state of a monitor: configuration, window tick and
    alive objects."""
    kind = _monitor_kind(monitor)
    extra: dict[str, Any] = {}
    if isinstance(monitor, TopKAG2Monitor):
        extra["k"] = monitor.k
        extra["cell_size"] = monitor.grid.cell_size
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
        "tick": monitor.window.tick,
        "extra": extra,
        "objects": objects_to_columns(monitor.window.contents),
    }


def restore(state: dict[str, Any]) -> MaxRSMonitor:
    """Rebuild a monitor from a snapshot and replay its window.

    Format 1 and format 2 snapshots both restore.  Other format
    versions and unknown monitor/window kinds raise
    :class:`InvalidParameterError`; a structurally damaged snapshot
    (missing fields, wrong field types) raises :class:`SnapshotError`
    rather than leaking ``KeyError``/``TypeError`` — both are
    :class:`~repro.errors.ReproError`, so recovery code has one thing
    to catch.  A snapshot without a ``tick`` (written before ticks were
    recorded) restarts the tick at the bulk load's.  A snapshot of the
    deleted ``ag2_quadtree`` kind restores as a grid
    :class:`AG2Monitor` that keeps only its ``epsilon``.
    """
    if not isinstance(state, dict):
        raise SnapshotError(
            f"snapshot must be a JSON object, got {type(state).__name__}"
        )
    fmt = state.get("format")
    if fmt not in (1, _FORMAT_VERSION):
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
        if kind == "ag2_quadtree":
            # the other keys configured the deleted index; the grid
            # runs at its default cell size
            extra = {k: v for k, v in extra.items() if k == "epsilon"}
        monitor = cls(
            state["rect_width"], state["rect_height"], window, **extra
        )
        if fmt == 1:
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
        else:
            objects = objects_from_columns(state["objects"])
        tick = state.get("tick")
        tick = None if tick is None else int(tick)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot is missing or malformed: {exc!r}") from exc
    if objects:
        monitor.ingest(objects)
    if tick is not None:
        monitor.window.resume_at(tick)
    return monitor
