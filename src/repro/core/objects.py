"""Stream object model and the object→rectangle dual transform.

A :class:`SpatialObject` is the unit delivered by a spatial data stream:
``<x, y, w>`` plus an identifier and a generation timestamp.  The paper's
Definition 2 converts each object into a *weighted rectangle* of the
user-specified query size centred at the object; :class:`WeightedRect`
is that dual representation, carrying the originating object.

The on-disk formats (snapshots, checkpoints, WAL batches) store a run
of objects as columns (:func:`objects_to_columns`): the oids as a list
of ints, and each float field as one base64 string of little-endian
IEEE-754 doubles, which round-trips every float bit for bit.  The
compiled kernel's ``maxrs_columns`` packs a run of plain objects in one
pass (:func:`pack_columns`), which the snapshot of every checkpoint and
every WAL append goes through; anything else is packed field by field in
Python, to the same bytes.  Its ``maxrs_ints`` writes the JSON text of
the oid list (:func:`json_ints`).
"""

from __future__ import annotations

import base64
import binascii
import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.geometry import Rect
from repro.errors import InvalidParameterError

__all__ = [
    "SpatialObject",
    "WeightedRect",
    "dual_rect",
    "to_weighted_rects",
    "object_ids",
    "objects_from_columns",
    "objects_to_columns",
    "json_ints",
    "pack_columns",
    "pack_doubles",
    "unpack_doubles",
]

_AUTO_ID = itertools.count()


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """A weighted spatio-temporal stream object ``o = <x, y, w>``.

    Attributes:
        oid: Unique identifier; auto-assigned from a process-wide counter
            when not supplied.
        x, y: Location where the object was generated.
        weight: Non-negative weight (e.g. traffic volume, player level).
        timestamp: Generation time; used by time-based windows and
            otherwise informational.
    """

    x: float
    y: float
    weight: float = 1.0
    timestamp: float = 0.0
    oid: int = field(default_factory=lambda: next(_AUTO_ID))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameterError(
                f"object location must be finite, got ({self.x}, {self.y})"
            )
        if not (self.weight >= 0.0):  # also rejects NaN
            raise InvalidParameterError(
                f"object weight must be non-negative, got {self.weight}"
            )
        # ±inf is a legal timestamp (snapshots carry it); NaN orders
        # against nothing and would stall the reorder buffer forever
        if math.isnan(self.timestamp):
            raise InvalidParameterError("object timestamp must not be NaN")

    def to_rect(self, width: float, height: float) -> Rect:
        """The dual rectangle of the query size centred at this object."""
        return Rect.from_center(self.x, self.y, width, height)


@dataclass(frozen=True, slots=True)
class WeightedRect:
    """A query-sized rectangle centred at a stream object (Definition 2).

    ``rect.w`` in the paper is :attr:`weight` here; the rectangle keeps a
    reference to its originating object so results can be traced back to
    the stream.
    """

    rect: Rect
    weight: float
    obj: SpatialObject

    @property
    def oid(self) -> int:
        """Identifier of the originating object."""
        return self.obj.oid

    @classmethod
    def from_object(
        cls, obj: SpatialObject, width: float, height: float
    ) -> "WeightedRect":
        return cls(rect=obj.to_rect(width, height), weight=obj.weight, obj=obj)


def dual_rect(
    obj: SpatialObject, width: float, height: float
) -> WeightedRect:
    """The Definition 2 dual transform of one arrival.

    The R-tree ablation monitor calls it per arrival.  The graph
    monitors (G2, aG2, top-k) no longer do: they route a whole batch
    with ``ArrivalTable.route`` (``repro.core.graph``), which computes
    the same bounds without building a ``WeightedRect``, so a tracer
    patching this name sees no graph-monitor arrivals.  Nothing is
    cached: a process-wide cache would keep expired objects alive.
    """
    return WeightedRect.from_object(obj, width, height)


def to_weighted_rects(
    objects: Iterable[SpatialObject], width: float, height: float
) -> list[WeightedRect]:
    """Apply the dual transform to a batch of stream objects."""
    if width <= 0 or height <= 0:
        raise InvalidParameterError(
            f"query rectangle size must be positive, got {width} x {height}"
        )
    return [WeightedRect.from_object(o, width, height) for o in objects]


def object_ids(objects: Sequence[SpatialObject]) -> list[int]:
    """Identifiers of a batch, in order — convenience for logging/tests."""
    return [o.oid for o in objects]


_SWAP = sys.byteorder != "little"


def pack_doubles(values: Iterable[float]) -> str:
    """Base64 of ``values`` as little-endian IEEE-754 doubles."""
    column = array("d", values)
    if _SWAP:
        column.byteswap()
    return base64.b64encode(column).decode("ascii")


def unpack_doubles(text: str) -> list[float]:
    """Inverse of :func:`pack_doubles`; raises ``ValueError`` on text
    that is not base64 of a whole number of doubles."""
    column = array("d")
    column.frombytes(base64.b64decode(text, validate=True))
    if _SWAP:
        column.byteswap()
    return column.tolist()


def pack_columns(objects: Sequence[SpatialObject]) -> tuple | None:
    """One compiled pass over a run of objects (``maxrs_columns``):
    ``(oids, x, y, weight, timestamp)``, the oids a new list of the
    objects' own oids and each float column the little-endian doubles as
    ``bytes``, when ``objects`` is a list or tuple of exact
    :class:`SpatialObject` instances with exact-float coordinates,
    weight and timestamp; ``None`` for any other sequence."""
    from repro.core import planesweep  # planesweep imports this module

    return planesweep._KERNEL.columns(objects, SpatialObject)


def json_ints(values: list, compact: bool = False) -> str | None:
    """One compiled pass (``maxrs_ints``): ``json.dumps(values)`` when
    every value is an exact int that fits in 64 bits, else ``None``;
    with ``compact``, the text ``json.dumps`` writes with
    ``separators=(",", ":")``."""
    from repro.core import planesweep  # planesweep imports this module

    return planesweep._KERNEL.ints(values, compact)


def _b64(column: bytes) -> str:
    return binascii.b2a_base64(column, newline=False).decode("ascii")


def objects_to_columns(objects: Sequence[SpatialObject]) -> dict[str, Any]:
    """Column form of a run of objects: ``oid`` as a list of ints,
    ``x``, ``y``, ``weight`` and ``timestamp`` each packed by
    :func:`pack_doubles`.

    A list or tuple of plain objects is packed in one compiled pass
    (:func:`pack_columns`); any other run, such as objects holding an
    int coordinate, is packed here field by field, to the same bytes."""
    packed = pack_columns(objects)
    if packed is not None:
        oids, xs, ys, ws, ts = packed
        return {
            "oid": oids, "x": _b64(xs), "y": _b64(ys), "weight": _b64(ws),
            "timestamp": _b64(ts),
        }
    return {
        "oid": [o.oid for o in objects],
        "x": pack_doubles([o.x for o in objects]),
        "y": pack_doubles([o.y for o in objects]),
        "weight": pack_doubles([o.weight for o in objects]),
        "timestamp": pack_doubles([o.timestamp for o in objects]),
    }


def objects_from_columns(columns: Mapping[str, Any]) -> list[SpatialObject]:
    """Rebuild the objects of :func:`objects_to_columns`, in order.

    Missing columns raise ``KeyError``; undecodable or unequal-length
    columns raise ``ValueError``.
    """
    xs = unpack_doubles(columns["x"])
    ys = unpack_doubles(columns["y"])
    ws = unpack_doubles(columns["weight"])
    ts = unpack_doubles(columns["timestamp"])
    return [
        SpatialObject(x, y, w, t, int(oid))
        for oid, x, y, w, t in zip(
            columns["oid"], xs, ys, ws, ts, strict=True
        )
    ]
