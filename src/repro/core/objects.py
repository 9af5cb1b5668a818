"""Stream object model and the object→rectangle dual transform.

A :class:`SpatialObject` is the unit delivered by a spatial data stream:
``<x, y, w>`` plus an identifier and a generation timestamp.  The paper's
Definition 2 converts each object into a *weighted rectangle* of the
user-specified query size centred at the object; :class:`WeightedRect`
is that dual representation, carrying the originating object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.geometry import Rect
from repro.errors import InvalidParameterError

__all__ = [
    "SpatialObject",
    "WeightedRect",
    "dual_rect",
    "to_weighted_rects",
    "object_ids",
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
