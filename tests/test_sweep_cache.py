"""Tests for the sweep-input caching layer (PR 4 tentpole, layer b).

``local_plane_sweep_cached`` keeps the clipped (rect, weight) items of
already-seen neighbours on the vertex, re-clipping only the suffix
appended since the last sweep (valid because neighbour lists are
append-only while a vertex is alive — Property 3).  These tests pin the
contract: byte-identical results to the uncached reference sweep, under
any interleaving of appends and sweeps.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planesweep
from repro.core.geometry import Rect
from repro.core.graph import Vertex
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


class TestCachedSweep:
    def test_first_sweep_matches_reference(self):
        rng = random.Random(7)
        anchor = _wrect(rng)
        v = Vertex(anchor, seq=0)
        v.neighbors = [_wrect(rng, anchor) for _ in range(8)]
        cached = local_plane_sweep_cached(v)
        reference = local_plane_sweep(anchor, v.neighbors)
        assert cached == reference

    def test_incremental_resweep_matches_reference(self):
        rng = random.Random(11)
        anchor = _wrect(rng)
        v = Vertex(anchor, seq=0)
        for round_ in range(6):
            v.neighbors.extend(
                _wrect(rng, anchor) for _ in range(rng.randrange(0, 4))
            )
            cached = local_plane_sweep_cached(v)
            reference = local_plane_sweep(anchor, v.neighbors)
            assert cached == reference, f"diverged at round {round_}"
        assert v.clip_upto == len(v.neighbors)

    def test_cache_state_lazy_until_first_sweep(self):
        rng = random.Random(3)
        v = Vertex(_wrect(rng), seq=0)
        assert v.clip_items is None  # pruned vertices pay nothing
        local_plane_sweep_cached(v)
        assert v.clip_items is not None

    def test_pool_bounded_and_reused(self, monkeypatch):
        # the pool belongs to the Python tree; the compiled kernel never
        # touches it, so pin it under the forced Python fallback
        monkeypatch.setattr(planesweep, "_KERNEL", None)
        rng = random.Random(5)
        anchor = _wrect(rng)
        v = Vertex(anchor, seq=0)
        v.neighbors = [_wrect(rng, anchor) for _ in range(4)]
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
    """Property: any append/sweep interleaving yields byte-identical
    regions from the cached and uncached sweeps."""
    rng = random.Random(seed)
    anchor = _wrect(rng)
    v = Vertex(anchor, seq=0)
    for _ in range(rounds):
        v.neighbors.extend(
            _wrect(rng, anchor) for _ in range(rng.randrange(0, 5))
        )
        if rng.random() < 0.7:  # sometimes skip sweeping this round
            assert local_plane_sweep_cached(v) == local_plane_sweep(
                anchor, v.neighbors
            )
    assert local_plane_sweep_cached(v) == local_plane_sweep(
        anchor, v.neighbors
    )

