"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

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
