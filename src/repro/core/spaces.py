"""Result model: overlap spaces and MaxRS answers.

A :class:`Region` is a maximal-weight overlap space found by a sweep —
the paper's ``s``.  Any interior point of the region is an optimal
placement for the *centre* of the user-specified rectangle.  A
:class:`MaxRSResult` wraps the region(s) a monitor reports after a
window update, together with the update's sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.geometry import Rect

__all__ = ["Region", "MaxRSResult", "region_key"]


@dataclass(frozen=True, slots=True)
class Region:
    """An overlap space with its total covering weight.

    Attributes:
        rect: The spatial extent of the space.  The optimum is attained
            at every interior point.
        weight: Sum of the weights of the rectangles covering the space.
        anchor_oid: Identifier of the space's *anchor* — the oldest
            object whose dual rectangle covers the space — when known
            (graph-based monitors); ``None`` for plain sweeps.
    """

    rect: Rect
    weight: float
    anchor_oid: int | None = None

    @property
    def best_point(self) -> tuple[float, float]:
        """A representative optimal placement (the region's centre)."""
        return self.rect.center

    def same_extent(self, other: "Region") -> bool:
        """True iff both regions denote the same spatial extent."""
        return self.rect == other.rect


def region_key(region: Region) -> tuple[float, float, float, float]:
    """Hashable identity of a region's extent, for cross-cell de-duping."""
    r = region.rect
    return (r.x1, r.y1, r.x2, r.y2)


@dataclass(frozen=True, slots=True)
class MaxRSResult:
    """Answer of one monitor update.

    ``regions`` is ordered best-first; for exact/approximate top-1
    monitors it has length 0 (empty window) or 1, for top-k monitors up
    to ``k`` entries.

    Every answer also carries its *quality contract*, so a consumer can
    tell a degraded answer from an exact one without knowing which
    monitor produced it (the overload degradation ladder switches
    monitors mid-stream):

    * ``mode`` — ``"exact"``, ``"approx"`` (ε-guaranteed branch-and-
      bound) or ``"sampling"`` (probabilistic estimator);
    * ``guarantee`` — the deterministic weight floor as a fraction of
      the true optimum: 1.0 exact, ``1-ε`` approximate, 0.0 for
      sampling (whose ``1-1/n``-probability bound is not a floor).
    """

    regions: tuple[Region, ...] = ()
    tick: int = 0
    window_size: int = 0
    mode: str = "exact"
    guarantee: float = 1.0

    @property
    def best(self) -> Region | None:
        """The top region, or None when the window holds no objects."""
        return self.regions[0] if self.regions else None

    @property
    def best_weight(self) -> float:
        """Weight of the top region (0.0 when empty)."""
        return self.regions[0].weight if self.regions else 0.0

    @property
    def is_empty(self) -> bool:
        return not self.regions

    @classmethod
    def single(
        cls,
        region: Region | None,
        tick: int = 0,
        window_size: int = 0,
        mode: str = "exact",
        guarantee: float = 1.0,
    ) -> "MaxRSResult":
        regions = (region,) if region is not None else ()
        return cls(
            regions=regions,
            tick=tick,
            window_size=window_size,
            mode=mode,
            guarantee=guarantee,
        )

    @classmethod
    def ranked(
        cls, regions: Sequence[Region], tick: int = 0, window_size: int = 0
    ) -> "MaxRSResult":
        ordered = tuple(
            sorted(regions, key=lambda reg: reg.weight, reverse=True)
        )
        return cls(regions=ordered, tick=tick, window_size=window_size)
