"""Stream source abstraction.

A :class:`StreamSource` produces :class:`~repro.core.objects.SpatialObject`
instances in generation-time order — the contract every workload
generator and file replayer in this package satisfies.  Sources are
iterators over single objects; :func:`batches` turns any source into the
paper's arrival model of ``m`` objects generated at the same time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError

__all__ = ["StreamSource", "batches"]


class StreamSource(ABC):
    """An ordered, possibly unbounded producer of stream objects."""

    @abstractmethod
    def __iter__(self) -> Iterator[SpatialObject]:
        """Yield objects in non-decreasing timestamp order."""

    def take(self, count: int) -> list[SpatialObject]:
        """The first ``count`` objects as a list (fewer if exhausted).

        Every call iterates the source afresh, so two calls return the
        same prefix, not consecutive runs; read on with one ``iter``.
        """
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        out: list[SpatialObject] = []
        for obj in self:
            out.append(obj)
            if len(out) >= count:
                break
        return out


def batches(
    source: StreamSource | Iterator[SpatialObject], size: int
) -> Iterator[list[SpatialObject]]:
    """Group a stream into arrival batches of ``size`` objects.

    The last batch may be shorter when the source is finite.  This is
    the generation-rate parameter ``m`` of the paper's experiments.
    """
    if size <= 0:
        raise InvalidParameterError(f"batch size must be positive, got {size}")
    current: list[SpatialObject] = []
    for obj in source:
        current.append(obj)
        if len(current) >= size:
            yield current
            current = []
    if current:
        yield current
