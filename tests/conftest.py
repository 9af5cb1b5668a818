"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from array import array

import pytest

from repro.core.graph import ArrivalTable, CellGraph
from repro.core.objects import SpatialObject, WeightedRect


def make_objects(
    count: int,
    seed: int = 0,
    domain: float = 100.0,
    weight_max: float = 10.0,
    start_t: float = 0.0,
) -> list[SpatialObject]:
    """Deterministic batch of random objects with increasing timestamps."""
    rng = random.Random(seed)
    return [
        SpatialObject(
            x=rng.uniform(0.0, domain),
            y=rng.uniform(0.0, domain),
            weight=rng.uniform(0.0, weight_max) if weight_max else 1.0,
            timestamp=start_t + i,
        )
        for i in range(count)
    ]


def guarded_batches(guard, records, count: int, size: int) -> list[list]:
    """Push ``records`` through ``guard.filter`` ``size`` at a time, as
    the soak harness does, and cut what it admits into consecutive
    batches of ``size``: the first ``count`` of them (fewer when
    ``records`` runs out, after a final ``flush``)."""
    records = iter(records)
    admitted: list = []
    while len(admitted) < count * size:
        chunk = list(itertools.islice(records, size))
        if not chunk:
            admitted += guard.flush()
            break
        admitted += guard.filter(chunk)
    return [
        admitted[i : i + size]
        for i in range(0, min(len(admitted), count * size), size)
    ]


def make_rects(
    count: int,
    seed: int = 0,
    domain: float = 100.0,
    side: float = 20.0,
    weight_max: float = 10.0,
) -> list[WeightedRect]:
    """Deterministic dual rectangles (side × side) for solver tests."""
    return [
        WeightedRect.from_object(o, side, side)
        for o in make_objects(count, seed=seed, domain=domain, weight_max=weight_max)
    ]


def connect_rect(
    graph: CellGraph, wr: WeightedRect, seq: int, hits: array | None = None
) -> int:
    """Insert one weighted rectangle into a cell graph as arrival
    ``seq``, through a one-row arrival table (any rectangle and weight,
    not only a dual transform's); returns ``graph.connect``'s edges."""
    table = ArrivalTable(base=seq)
    r = wr.rect
    table.rows.fromlist([r.x1, r.y1, r.x2, r.y2, wr.weight])
    table.cover.fromlist([0, -1, 0, -1])
    table.objs.append(wr.obj)
    return graph.connect(table, array("q", [seq]), hits)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
