"""Tests for the local sweep of a graph vertex straight from its cell.

``local_plane_sweep_cached`` gathers a vertex's neighbours ``N(ri)``
from its cell's flat buffer — the newer overlapping rectangles, in
arrival order — clips them to the vertex and sweeps, all in one call.
Nothing is cached between sweeps (the name is kept for the end-to-end
tracer).  These tests pin the contract: byte-identical results to the
reference ``local_plane_sweep`` over the derived neighbour set, under
any interleaving of arrivals, sweeps and expiry.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connect_rect
from repro.core import planesweep
from repro.core.geometry import Rect
from repro.core.graph import CellGraph
from repro.core.objects import SpatialObject, WeightedRect
from repro.core.planesweep import (
    _TREE_POOL,
    local_plane_sweep,
    local_plane_sweep_cached,
)


def _wrect(rng: random.Random, near: WeightedRect | None = None) -> WeightedRect:
    if near is None:
        x1, y1 = rng.uniform(0, 10), rng.uniform(0, 10)
    else:
        # bias toward overlap with the anchor
        x1 = near.rect.x1 + rng.uniform(-3, 3)
        y1 = near.rect.y1 + rng.uniform(-3, 3)
    w = rng.uniform(0.5, 4)
    h = rng.uniform(0.5, 4)
    wt = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5])
    obj = SpatialObject(x=x1 + w / 2, y=y1 + h / 2, weight=wt)
    return WeightedRect(rect=Rect(x1, y1, x1 + w, y1 + h), weight=wt, obj=obj)


class _Cell:
    """A graph grown around one anchor, with a running seq."""

    def __init__(self, anchor: WeightedRect) -> None:
        self.graph = CellGraph()
        self.seq = 0
        self.add(anchor)

    def add(self, wr: WeightedRect) -> None:
        connect_rect(self.graph, wr, self.seq)
        self.seq += 1

    def vertex(self):
        return self.graph.vertex(self.graph.head)


class TestCachedSweep:
    def test_first_sweep_matches_reference(self):
        rng = random.Random(7)
        anchor = _wrect(rng)
        cell = _Cell(anchor)
        for _ in range(8):
            cell.add(_wrect(rng, anchor))
        v = cell.vertex()
        cached = local_plane_sweep_cached(v)
        reference = local_plane_sweep(anchor, v.neighbors)
        assert cached == reference

    def test_incremental_resweep_matches_reference(self):
        rng = random.Random(11)
        anchor = _wrect(rng)
        cell = _Cell(anchor)
        v = cell.vertex()
        for round_ in range(6):
            for _ in range(rng.randrange(0, 4)):
                cell.add(_wrect(rng, anchor))
            cached = local_plane_sweep_cached(v)
            reference = local_plane_sweep(anchor, v.neighbors)
            assert cached == reference, f"diverged at round {round_}"
            cell.graph.settle(v.index, cached)
        assert not v.dirty

    def test_cache_state_lazy_until_first_sweep(self):
        rng = random.Random(3)
        anchor = _wrect(rng)
        cell = _Cell(anchor)
        cell.add(_wrect(rng, anchor))
        v = cell.vertex()
        # pruned vertices pay nothing: no space is built for them
        assert cell.graph.spaces[v.index] is None
        cell.graph.settle(v.index, local_plane_sweep_cached(v))
        assert cell.graph.spaces[v.index] is not None

    def test_pool_bounded_and_reused(self, monkeypatch):
        # the pool belongs to the Python tree; the compiled kernel never
        # touches it, so pin it under the forced Python fallback
        monkeypatch.setattr(planesweep, "_KERNEL", None)
        rng = random.Random(5)
        anchor = _wrect(rng)
        cell = _Cell(anchor)
        for _ in range(4):
            cell.add(_wrect(rng, anchor))
        v = cell.vertex()
        for _ in range(10):
            local_plane_sweep(anchor, v.neighbors)
            local_plane_sweep_cached(v)
        assert 1 <= len(_TREE_POOL) <= 4


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=6),
)
def test_cached_equals_uncached_under_interleaving(seed: int, rounds: int):
    """Property: any arrival/sweep/expiry interleaving yields
    byte-identical regions from the buffer sweep and the reference
    sweep over the derived N(ri), for every live vertex."""
    rng = random.Random(seed)
    anchor = _wrect(rng)
    cell = _Cell(anchor)
    graph = cell.graph
    for _ in range(rounds):
        for _ in range(rng.randrange(0, 5)):
            cell.add(_wrect(rng, anchor))
        if len(graph) and rng.random() < 0.3:  # expire the oldest
            graph.expire_upto(graph.seqs[graph.head] + rng.randrange(0, 3))
        if rng.random() < 0.7:  # sometimes skip sweeping this round
            for v in graph:
                region = local_plane_sweep_cached(v)
                assert region == local_plane_sweep(v.wr, v.neighbors)
                graph.settle(v.index, region)
    for v in graph:
        assert local_plane_sweep_cached(v) == local_plane_sweep(
            v.wr, v.neighbors
        )
    graph.check_invariants("interleaving")
