"""Tests for Algorithm 5 upper-bound tightening (§5.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connect_rect, make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.bruteforce import brute_force_anchored_best
from repro.core.geometry import Rect
from repro.core.graph import CellGraph, Vertex
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, WeightedRect
from repro.core.planesweep import local_plane_sweep_cached
from repro.core.upperbound import (
    conditional_tightener,
    make_tightener,
    tighten_upper_bound,
)
from repro.errors import InvalidParameterError
from repro.window import CountWindow


def wr(x1, y1, x2, y2, w=1.0) -> WeightedRect:
    obj = SpatialObject(x=(x1 + x2) / 2, y=(y1 + y2) / 2, weight=w)
    return WeightedRect(rect=Rect(x1, y1, x2, y2), weight=w, obj=obj)


def vertex_with_history(anchor, old_neighbors, new_neighbors) -> Vertex:
    """A vertex swept over ``old_neighbors``, then grown by
    ``new_neighbors`` via Equation (3), in one cell."""
    graph = CellGraph()
    connect_rect(graph, anchor, 0)
    for seq, nb in enumerate(old_neighbors, start=1):
        connect_rect(graph, nb, seq)
    v = graph.vertex(0)
    graph.settle(0, local_plane_sweep_cached(v))
    for seq, nb in enumerate(new_neighbors, start=len(old_neighbors) + 1):
        connect_rect(graph, nb, seq)
    assert v.neighbors == (*old_neighbors, *new_neighbors)
    assert v.fresh == tuple(new_neighbors)  # R(ri): past the watermark
    return v


class TestTightenUpperBound:
    def test_no_fresh_neighbors_is_identity(self):
        v = vertex_with_history(wr(0, 0, 4, 4), [wr(2, 2, 6, 6)], [])
        assert tighten_upper_bound(v, threshold=100.0) == v.upper

    def test_distant_new_neighbor_tightens(self):
        """A new neighbour that misses si and overlaps nothing else is
        bounded by ri.w + r.w instead of being charged in full."""
        anchor = wr(0, 0, 10, 10, w=1.0)
        old = wr(0.5, 0.5, 3, 3, w=5.0)   # si is the corner, weight 6
        new = wr(8, 8, 12, 12, w=5.0)      # far from si
        v = vertex_with_history(anchor, [old], [new])
        assert v.upper == 11.0  # Equation (3) bound
        tightened = tighten_upper_bound(v, threshold=100.0)
        # spaces with the new rect are bounded by 1 + 5 = 6
        assert tightened == pytest.approx(6.0)

    def test_neighbor_overlapping_si_charged_fully(self):
        anchor = wr(0, 0, 10, 10, w=1.0)
        old = wr(0.5, 0.5, 3, 3, w=5.0)
        new = wr(1, 1, 2, 2, w=2.0)  # inside si's corner region
        v = vertex_with_history(anchor, [old], [new])
        tightened = tighten_upper_bound(v, threshold=100.0)
        assert tightened == pytest.approx(8.0)

    def test_early_exit_when_over_threshold(self):
        anchor = wr(0, 0, 10, 10, w=1.0)
        old = wr(0.5, 0.5, 3, 3, w=5.0)
        new = wr(1, 1, 2, 2, w=2.0)
        v = vertex_with_history(anchor, [old], [new])
        # threshold below si.w: tightening cannot help, bound unchanged
        assert tighten_upper_bound(v, threshold=3.0) == v.upper

    def test_conditional_gate_skips_large_fresh_sets(self):
        anchor = wr(0, 0, 20, 20, w=1.0)
        old = [wr(i, i, i + 2, i + 2) for i in range(2)]
        new = [wr(i, 0, i + 1, 1) for i in range(10)]  # |R| >> 2·log2|N|
        v = vertex_with_history(anchor, old, new)
        assert conditional_tightener(v, threshold=1e9) == v.upper

    def test_make_tightener_modes(self):
        assert make_tightener("off") is None
        assert make_tightener("always") is tighten_upper_bound
        assert make_tightener("conditional") is conditional_tightener
        with pytest.raises(InvalidParameterError):
            make_tightener("sometimes")


coord = st.integers(min_value=0, max_value=20).map(float)


@st.composite
def anchored_scenario(draw):
    anchor = wr(0, 0, 12, 12, w=draw(st.sampled_from([0.5, 1.0, 2.0])))
    def rect():
        x1 = draw(coord)
        y1 = draw(coord)
        w = draw(st.integers(min_value=1, max_value=5))
        h = draw(st.integers(min_value=1, max_value=5))
        return wr(x1, y1, x1 + w, y1 + h, w=draw(st.sampled_from([0.5, 1.0, 3.0])))
    old = [r for r in (rect() for _ in range(draw(st.integers(0, 4))))
           if r.rect.overlaps(anchor.rect)]
    new = [r for r in (rect() for _ in range(draw(st.integers(0, 4))))
           if r.rect.overlaps(anchor.rect)]
    return anchor, old, new


@settings(max_examples=80, deadline=None)
@given(scenario=anchored_scenario())
def test_tightened_bound_is_sound(scenario):
    """The crux of §5.3: the tightened τ is always ≥ the true si, so
    pruning with it can never discard the optimum."""
    anchor, old, new = scenario
    v = vertex_with_history(anchor, old, new)
    tightened = tighten_upper_bound(v, threshold=float("-inf"))
    true_si = brute_force_anchored_best(anchor, old + new)
    assert tightened >= true_si - 1e-9
    assert tightened <= v.upper + 1e-9  # never looser than Equation (3)


@pytest.mark.parametrize("mode", ["off", "conditional", "always"])
def test_monitor_results_identical_under_any_tightener(mode):
    """Algorithm 5 is a performance knob, never a semantics knob."""
    ag2 = AG2Monitor(
        10, 10, CountWindow(40), tighten=make_tightener(mode)
    )
    naive = NaiveMonitor(10, 10, CountWindow(40))
    for i in range(10):
        batch = make_objects(8, seed=700 + i, domain=60.0)
        a = ag2.update(batch)
        b = naive.update(batch)
        assert a.best_weight == pytest.approx(b.best_weight)
        ag2.check_invariants()
