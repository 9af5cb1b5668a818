"""The paper's own worked examples, reproduced against this library.

The paper illustrates its structures with a running example — six
rectangles r1..r6 (Figures 3-4), their edge and neighbour sets
(Table 2), the incremental insertion of r6 (Example 4.2) and the aG2
bound arithmetic (Example 5.2 / Equations 3-5).  These tests build a
configuration realising exactly the paper's overlap graph and assert
that our structures produce the paper's tables.

Overlap graph from Figure 4 / Table 2 (edges old → new)::

    r1 → r2, r1 → r3, r2 → r3, r3 → r4, r4 → r5, r5 → r6
"""

from __future__ import annotations

import pytest

from conftest import connect_rect
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.geometry import Rect
from repro.core.graph import CellGraph
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, WeightedRect
from repro.window import CountWindow

# A concrete placement realising Figure 4's graph: a left-to-right
# chain where r1 overlaps r2 and r3; r2 overlaps r3; then r3-r4, r4-r5,
# r5-r6 overlap pairwise only.  All rectangles are 4 wide x 2 tall.
_PLACEMENT = {
    # name: (x1, y1)
    "r1": (0.0, 0.0),
    "r2": (1.0, 1.0),    # overlaps r1
    "r3": (2.0, 0.5),    # overlaps r1 and r2
    "r4": (5.5, 0.0),    # overlaps r3 only ([5.5,6) x [0.5,2))
    "r5": (9.0, 0.5),    # overlaps r4 only
    "r6": (12.5, 0.0),   # overlaps r5 only
}
_W, _H = 4.0, 2.0


def paper_rects(weights: dict[str, float] | None = None) -> dict[str, WeightedRect]:
    weights = weights or {}
    rects = {}
    for name, (x1, y1) in _PLACEMENT.items():
        w = weights.get(name, 1.0)
        obj = SpatialObject(x=x1 + _W / 2, y=y1 + _H / 2, weight=w)
        rects[name] = WeightedRect(
            rect=Rect(x1, y1, x1 + _W, y1 + _H), weight=w, obj=obj
        )
    return rects


def test_placement_realises_figure_4_overlaps():
    """Sanity: the placement's overlap relation is exactly Figure 4's."""
    rects = paper_rects()
    expected_pairs = {
        ("r1", "r2"), ("r1", "r3"), ("r2", "r3"),
        ("r3", "r4"), ("r4", "r5"), ("r5", "r6"),
    }
    names = list(rects)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            should = (a, b) in expected_pairs
            assert rects[a].rect.overlaps(rects[b].rect) == should, (a, b)


def _cell_graph(rects: dict[str, WeightedRect]) -> dict:
    """The running example connected into one cell in arrival order;
    name -> vertex view."""
    graph = CellGraph()
    for seq, name in enumerate(_PLACEMENT):
        connect_rect(graph, rects[name], seq)
    return dict(zip(_PLACEMENT, graph))


def test_table_2_edge_and_neighbor_sets():
    """Table 2: edges are held by the older endpoint; N(ri) follows —
    here derived from the cell buffer as the newer overlapping
    rectangles."""
    rects = paper_rects()
    vertices = _cell_graph(rects)
    neighbor_names = {
        name: {nb.oid for nb in vertices[name].neighbors}
        for name in _PLACEMENT
    }
    oid = {name: rects[name].oid for name in _PLACEMENT}
    assert neighbor_names["r1"] == {oid["r2"], oid["r3"]}
    assert neighbor_names["r2"] == {oid["r3"]}
    assert neighbor_names["r3"] == {oid["r4"]}
    assert neighbor_names["r4"] == {oid["r5"]}
    assert neighbor_names["r5"] == {oid["r6"]}
    assert neighbor_names["r6"] == set()


def test_example_4_2_incremental_insertion_of_r6():
    """Example 4.2: when r6 arrives, only (r5, r6) is inserted and only
    s5 is recomputed — one local sweep, nothing else touched."""
    monitor = G2Monitor(_W, _H, CountWindow(10), cell_size=100.0)
    objs = {name: wr.obj for name, wr in paper_rects().items()}
    for name in ("r1", "r2", "r3", "r4", "r5"):
        monitor.update([objs[name]])
    before = monitor.stats.local_sweeps
    monitor.update([objs["r6"]])
    assert monitor.stats.local_sweeps == before + 1


def test_figure_3_interval_weights_via_sweep():
    """§3's sweep illustration: with unit weights, the best space of
    the r1-r2-r3 cluster stacks weight 3 (intervals AB=1, BC=2, CD=3)."""
    rects = paper_rects()
    cluster = [rects["r1"], rects["r2"], rects["r3"]]
    from repro.core.planesweep import plane_sweep_max

    region = plane_sweep_max(cluster)
    assert region.weight == 3.0
    # the triple-overlap is [2,4) x [1,2): the region lies inside it
    assert Rect(2.0, 1.0, 4.0, 2.0).contains_rect(region.rect)


def test_example_5_2_equation_5_cell_bound_arithmetic():
    """Example 5.2 / Figure 6: mapping new rectangles to a cell raises
    c.w by their weights (Equation 5); the overlap computation then
    tightens it back to the max vertex bound (Equation 4)."""
    monitor = AG2Monitor(_W, _H, CountWindow(20), cell_size=1000.0)
    rects = paper_rects()
    # establish the cluster: best space weight 3 anchored at r1
    monitor.update([rects[n].obj for n in ("r1", "r2", "r3")])
    assert monitor.result.best_weight == 3.0
    cells = monitor._cells
    (c,) = cells.ids()
    settled_cw = cells.cw[c]
    assert settled_cw == pytest.approx(3.0)
    # Equation (5): three unit-weight arrivals mapped (pending) to the
    # same huge cell raise its bound by exactly their total weight —
    # Figure 6(b)'s c.w = 4 → 7 step, with our numbers 3 → 6
    far = [
        SpatialObject(x=100.0 + 10 * i, y=100.0, weight=1.0) for i in range(3)
    ]
    monitor._map_arrivals(  # the pending phase, before any pruning
        type("D", (), {"arrived": far, "expired": ()})()
    )
    assert cells.ids() == [c]
    assert cells.cw[c] == pytest.approx(settled_cw + 3.0)
    assert len(cells.pending(c)) == 3
    # ...and a full update settles every bound back to Property 4 form
    monitor.update([])
    monitor.check_invariants()


def test_table_3_style_si_weights():
    """Table 3's structure: si is anchored at ri over NEWER neighbours
    only — verify with the weighted variant of the running example."""
    weights = {"r1": 10.0, "r2": 30.0, "r3": 15.0, "r4": 25.0, "r5": 20.0, "r6": 5.0}
    rects = paper_rects(weights)
    vertices = _cell_graph(rects)
    from repro.core.planesweep import (
        local_plane_sweep,
        local_plane_sweep_cached,
    )

    si = {
        name: local_plane_sweep(rects[name], vertices[name].neighbors).weight
        for name in _PLACEMENT
    }
    # the monitors' sweep, straight from the cell buffer, agrees
    for name, v in vertices.items():
        assert local_plane_sweep_cached(v).weight == si[name]
    # r1's anchored space can stack r1+r2+r3 = 55, exactly Table 3's s1
    assert si["r1"] == pytest.approx(55.0)
    # r2's space stacks r2+r3 = 45 (r1 is OLDER: not in N(r2))
    assert si["r2"] == pytest.approx(45.0)
    # r3 only reaches the newer r4: 15 + 25 = 40
    assert si["r3"] == pytest.approx(40.0)
    # r4+r5 = 45, r5+r6 = 25, r6 alone = 5 — all as in Table 3
    assert si["r4"] == pytest.approx(45.0)
    assert si["r5"] == pytest.approx(25.0)
    assert si["r6"] == pytest.approx(5.0)


def test_running_example_monitors_agree_end_to_end():
    """Stream the whole running example through all monitors."""
    weights = {"r1": 10.0, "r2": 30.0, "r3": 15.0, "r4": 25.0, "r5": 20.0, "r6": 5.0}
    rects = paper_rects(weights)
    monitors = [
        NaiveMonitor(_W, _H, CountWindow(6)),
        G2Monitor(_W, _H, CountWindow(6)),
        AG2Monitor(_W, _H, CountWindow(6)),
    ]
    for name in _PLACEMENT:
        results = [m.update([rects[name].obj]) for m in monitors]
        best = results[0].best_weight
        assert all(r.best_weight == pytest.approx(best) for r in results)
    # final answer: s1 = r1+r2+r3 = 55 (Table 3's maximum)
    assert monitors[0].result.best_weight == pytest.approx(55.0)
