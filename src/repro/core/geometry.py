"""Geometric primitives: axis-aligned rectangles and 1-D intervals.

The whole MaxRS machinery operates on axis-aligned rectangles in the
plane.  Rectangles are value objects (frozen dataclasses); all overlap
predicates use *strict interior* semantics — two rectangles overlap iff
their intersection has positive area.  Measure-zero contacts (shared
edges or corners) do not count as overlap.  See DESIGN.md §1 for why
this convention is used consistently across the sweep, the indexes and
the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Iterator

from repro.errors import InvalidGeometryError

__all__ = ["Interval", "Rect", "bounding_box"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed 1-D interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):  # also rejects NaN
            raise InvalidGeometryError(
                f"interval bounds inverted or NaN: [{self.lo}, {self.hi}]"
            )

    @property
    def length(self) -> float:
        """Length of the interval."""
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        """Midpoint of the interval."""
        return (self.lo + self.hi) / 2.0

    def overlaps(self, other: "Interval") -> bool:
        """True iff the interiors of the two intervals intersect.

        Degenerate intervals have empty interior and overlap nothing.
        """
        return (
            self.lo < other.hi
            and other.lo < self.hi
            and self.lo < self.hi
            and other.lo < other.hi
        )

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlap of two intervals, or None if interiors are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return Interval(lo, hi)
        return None

    def contains(self, x: float) -> bool:
        """True iff ``x`` lies strictly inside the interval."""
        return self.lo < x < self.hi


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[x1, x2] × [y1, y2]``.

    Degenerate rectangles (zero width or height) are permitted as value
    objects — they arise transiently from clipping — but they never
    *overlap* anything under the strict-interior convention.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise InvalidGeometryError(
                "rect bounds inverted or NaN: "
                f"[{self.x1}, {self.x2}] x [{self.y1}, {self.y2}]"
            )
        # four calls, no generator: this runs for every Rect built
        # (answers, clips and on-demand WeightedRects)
        if not (
            isfinite(self.x1)
            and isfinite(self.y1)
            and isfinite(self.x2)
            and isfinite(self.y2)
        ):
            raise InvalidGeometryError("rect bounds must be finite")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_center(
        cls, cx: float, cy: float, width: float, height: float
    ) -> "Rect":
        """Rectangle of the given size centred at ``(cx, cy)``.

        This is the dual transform of the paper's Definition 2: a
        weighted object becomes a query-sized rectangle centred at the
        object's location.
        """
        if width < 0 or height < 0:
            raise InvalidGeometryError(
                f"negative rectangle size {width} x {height}"
            )
        hw = width / 2.0
        hh = height / 2.0
        return cls(cx - hw, cy - hh, cx + hw, cy + hh)

    # -- basic measures ------------------------------------------------

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def x_interval(self) -> Interval:
        return Interval(self.x1, self.x2)

    @property
    def y_interval(self) -> Interval:
        return Interval(self.y1, self.y2)

    @property
    def is_degenerate(self) -> bool:
        """True iff the rectangle has zero area."""
        return self.x1 == self.x2 or self.y1 == self.y2

    # -- predicates ----------------------------------------------------

    def overlaps(self, other: "Rect") -> bool:
        """True iff the *interiors* of the rectangles intersect.

        Degenerate rectangles have empty interior and overlap nothing.
        """
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
            and not self.is_degenerate
            and not other.is_degenerate
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True iff ``(x, y)`` lies strictly inside the rectangle."""
        return self.x1 < x < self.x2 and self.y1 < y < self.y2

    def covers_point(self, x: float, y: float) -> bool:
        """True iff ``(x, y)`` lies inside or on the boundary."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        """True iff ``other`` lies entirely within this rectangle."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    # -- combination ---------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The positive-area overlap region, or None if interiors are disjoint."""
        if not self.overlaps(other):
            return None
        return Rect(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def clip(self, other: "Rect") -> "Rect | None":
        """Alias of :meth:`intersection`; reads better at call sites that
        restrict a neighbour rectangle to an anchor's extent."""
        return self.intersection(other)

    def union_bounds(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both rectangles."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def translate(self, dx: float, dy: float) -> "Rect":
        """The rectangle shifted by ``(dx, dy)``."""
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """The smallest rectangle containing every rectangle in ``rects``.

    Raises :class:`InvalidGeometryError` when ``rects`` is empty.
    """
    it: Iterator[Rect] = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise InvalidGeometryError("bounding_box of an empty collection")
    x1, y1, x2, y2 = first.x1, first.y1, first.x2, first.y2
    for r in it:
        x1 = min(x1, r.x1)
        y1 = min(y1, r.y1)
        x2 = max(x2, r.x2)
        y2 = max(y2, r.y2)
    return Rect(x1, y1, x2, y2)
