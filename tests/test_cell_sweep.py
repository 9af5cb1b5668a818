"""aG2's dense-cell path: one clipped sweep of a cell caps every vertex
bound at the cell max.

``maxrs_cell`` (``CellGraph.cap_at_cell_max``) sweeps the cell's live
rectangles clipped to its extent once, caps every bound at that max
plus a rounding slack, ``M⁺``, and names the anchor, the oldest vertex
holding the max face.  These tests hold the kernel to its Python
reference bit for bit; prove the cap sound over every update (every
bound a cell sweep lowers stays at or above a fresh reference local
sweep of its vertex, with no tolerance, on the kernel and on the
reference); show that a cap without the slack fails that check; and
pin the tie contract: equal weight, and the region an arrangement cell
of the answer's space.

The check covers the bounds the cap sets, not every bound: an Equation
3 bound is a float sum in arrival order, and a local sweep adds the
same weights in the segment tree's order, so a bound the cap never
touched can sit one ulp below its vertex's sweep (four coincident
points of weights 0, 2.06e11, 6.87e10 and 1e-3 show it).
"""

from __future__ import annotations

import itertools
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import use_reference
from repro.core import graph as graph_module
from repro.core import objects
from repro.core.ag2 import AG2Monitor
from repro.core.geometry import Rect
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.core.planesweep import _cell_flat, _pack, local_plane_sweep_cached
from repro.datasets import make_stream
from repro.window import CountWindow

# -- the kernel against its reference ------------------------------------------

#: a half-unit grid with both signed zeros; the cell below spans [0, 2]²,
#: so rows touch, straddle and miss its edges
GRID = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
WEIGHTS = (0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 1e-17, 1e12)

item = st.tuples(
    st.sampled_from(GRID), st.sampled_from(GRID),
    st.sampled_from(GRID), st.sampled_from(GRID),
    st.one_of(st.sampled_from(WEIGHTS), st.floats(0.0, 10.0)),
)


def _flat(raw) -> array:
    rects = []
    for a, b, c, d, w in raw:
        x1, x2 = sorted((a, b))
        y1, y2 = sorted((c, d))
        rects.append((Rect(x1, y1, x2, y2), w))
    return _pack(rects)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_same_cell(items: array, head: int, extent, bounds) -> None:
    n = len(items) // 5
    exact = array("d", (min(u, v) for u, v in zip(bounds, reversed(bounds))))
    fast, slow = array("d", bounds), array("d", bounds)
    got = _cell_flat(items, head, n, extent, fast, exact)
    want = reference_kernel.cell_flat(items, head, n, extent, slow, exact)
    assert got[0] == want[0]
    assert _hex(got[1]) == _hex(want[1])
    assert _hex(fast) == _hex(slow)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(item, max_size=30),
    head=st.integers(0, 4),
    extent=st.sampled_from(
        [(0.0, 0.0, 2.0, 2.0), (-0.0, 0.5, 1.5, 2.0), (1.0, 1.0, 1.0, 3.0)]
    ),
    scale=st.sampled_from([0.0, -0.0, 1.0, 7.5, 1e12]),
)
def test_cell_sweep_bit_identical(raw, head, extent, scale):
    """Degenerate rows, rows on the cell edge, zero weights and ``-0.0``:
    the anchor, ``(M, face, M⁺)`` and every capped bound agree on
    ``float.hex``; a degenerate extent sweeps nothing."""
    items = _flat(raw)
    n = len(items) // 5
    bounds = [scale * (k % 5) for k in range(n)]
    _assert_same_cell(items, min(head, n), extent, bounds)


def test_cell_sweep_anchor_cap_and_declines():
    """The anchor is the oldest row holding the max face; bounds above
    ``M⁺`` fall to it, never below the exact weight; an empty or
    degenerate cell, or an uncovered face, caps nothing."""
    rows = [
        (Rect(-1.0, -1.0, 0.5, 0.5), 4.0),  # max face is elsewhere
        (Rect(0.0, 0.0, 2.0, 2.0), 1.0),    # the oldest holding it
        (Rect(1.0, 1.0, 3.0, 3.0), 2.0),
        (Rect(0.5, 0.5, 1.5, 1.5), 3.0),
    ]
    items = _pack(rows)
    upper = array("d", [9.0, 9.0, 9.0, 9.0])
    exact = array("d", [4.0, 6.5, 2.0, 3.0])
    anchor, out = _cell_flat(items, 0, 4, (0.0, 0.0, 2.0, 2.0), upper, exact)
    assert anchor == 1
    assert list(out[:5]) == [6.0, 1.0, 1.0, 1.5, 1.5]
    cap = out[5]
    assert 6.0 < cap < 6.0 * (1 + 1e-12)
    assert list(upper) == [cap, 6.5, cap, cap]
    # nothing of positive area in the cell, and an all-zero cell whose
    # max face (the leftmost slot of the first strip) no row holds
    for rows, extent in (
        ([(Rect(0.0, 0.0, 0.0, 1.0), 1.0)], (0.0, 0.0, 2.0, 2.0)),
        (rows, (5.0, 5.0, 6.0, 6.0)),
        ([(Rect(0.0, 1.0, 0.5, 2.0), 0.0), (Rect(1.0, 0.0, 2.0, 0.5), 0.0)],
         (0.0, 0.0, 2.0, 2.0)),
    ):
        items = _pack(rows)
        upper = array("d", [9.0] * len(rows))
        assert _cell_flat(items, 0, len(rows), extent, upper, upper)[0] == -1
        assert list(upper) == [9.0] * len(rows)


# -- the cap is sound -------------------------------------------------------------


class CapCheck:
    """Wraps a cell-sweep function (the kernel's or a reference): after
    each call, every bound the cap lowered must be at least a fresh
    reference local sweep of its vertex, with no tolerance, and no
    bound may rise."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.lowered = 0
        #: (index, capped bound, fresh local sweep) of each violation
        self.unsound: list[tuple[int, float, float]] = []

    def __call__(self, items, head, n, extent, upper, exact):
        before = array("d", upper)
        result = self.inner(items, head, n, extent, upper, exact)
        for j in range(head, n):
            if upper[j] == before[j]:
                continue
            assert upper[j] < before[j]
            self.lowered += 1
            cell = reference_kernel.local_flat(items, j, n)
            fresh = items[5 * j + 4] if cell is None else cell[0]
            if not upper[j] >= fresh:
                self.unsound.append((j, upper[j], fresh))
        return result


def check_caps(mp: pytest.MonkeyPatch) -> CapCheck:
    """Put a :class:`CapCheck` around the cell sweep the graphs call."""
    spy = CapCheck(graph_module._cell_flat)
    mp.setattr(graph_module, "_cell_flat", spy)
    return spy


#: coarse coordinates (coincident points, rows on cell edges: the query
#: side and cell size below divide them) and weights over fifteen decades
coords = st.integers(0, 8).map(lambda v: 1.25 * v)
weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, 1.0, 3.0, 1e6, 1e12]),
    st.floats(1e-3, 1e12),
)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(coords, coords, weights), max_size=16),
        min_size=1, max_size=8,
    ),
    size=st.integers(4, 40),
    epsilon=st.sampled_from([0.0, 0.25]),
    cell_size=st.sampled_from([5.0, 10.0]),
)
def test_cap_is_sound_after_every_update(
    kernel, batches, size, epsilon, cell_size
):
    """Every bound a cell sweep lowers stays at or above its vertex's
    local sweep, and Property 4 holds after every update."""
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "python":
            use_reference(mp)
        spy = check_caps(mp)
        m = AG2Monitor(5.0, 5.0, CountWindow(size), cell_size=cell_size,
                       epsilon=epsilon)
        for batch in batches:
            m.update([SpatialObject(x=x, y=y, weight=w) for x, y, w in batch])
            assert spy.unsound == []
            m.check_invariants()


def _tight_cap(items, head, n, extent, upper, exact):
    """The reference cell sweep with its cap at ``M·(1 − 1e-9)`` in place
    of ``M⁺``: a mutation the soundness check must catch."""
    anchor, out = reference_kernel.cell_flat(
        items, head, n, extent, array("d", upper), exact
    )
    if anchor >= 0:
        cap = out[0] * (1 - 1e-9)
        for k in range(head, n):
            if upper[k] > cap:
                upper[k] = cap if cap > exact[k] else exact[k]
    return anchor, out


#: two equal clusters in cell (0, 0) of side 10, query side 2: each
#: oldest rectangle overlaps two newer ones that miss each other, so its
#: bound (3) is above the cell max (2), which its local sweep reaches
TWO_CLUSTERS = [
    (2.5, 2.0), (1.0, 2.0), (4.0, 2.0), (7.5, 7.0), (6.0, 7.0), (9.0, 7.0),
]


@pytest.mark.parametrize("mutant", [False, True], ids=["slack", "no_slack"])
def test_a_cap_without_the_slack_is_caught(mutant, monkeypatch):
    """The cell sweep lowers both oldest bounds from 3 to the cap.  With
    the slack they stay above their local sweeps (2); capped at
    ``M·(1 − 1e-9)`` both fall below, and the check names them."""
    use_reference(monkeypatch)
    if mutant:
        monkeypatch.setattr(graph_module, "_cell_flat", _tight_cap)
    spy = check_caps(monkeypatch)
    m = AG2Monitor(2.0, 2.0, CountWindow(10), cell_size=10.0)
    m.update([SpatialObject(x=x, y=y, weight=1.0) for x, y in TWO_CLUSTERS])
    assert (m.stats.cell_sweeps, m.stats.local_sweeps) == (1, 1)
    assert spy.lowered == 2
    assert [j for j, _u, _s in spy.unsound] == ([0, 3] if mutant else [])
    assert m.update([]).best_weight == 2.0


# -- the tie contract ------------------------------------------------------------


def _oracle_check(result, rects) -> None:
    """The answer's region is an arrangement cell of a maximum space:
    no live rectangle's edge crosses it, the rectangles holding it sum
    to its weight, and that is the oracle's maximum."""
    region = result.best.rect
    held = []
    for wr in rects:
        r = wr.rect
        inside = (r.x1 <= region.x1 and region.x2 <= r.x2
                  and r.y1 <= region.y1 and region.y2 <= r.y2)
        apart = (r.x2 <= region.x1 or region.x2 <= r.x1
                 or r.y2 <= region.y1 or region.y2 <= r.y1)
        assert inside or apart
        if inside:
            held.append(wr.weight)
    assert math.fsum(held) == pytest.approx(result.best_weight, rel=1e-12)


def test_tied_regions_of_one_anchor_across_two_cells(monkeypatch):
    """``geolife_like``, seed 42, a count window of 2000, ticks of 20
    (the end-to-end ``gaussian`` workload), ticks 383-385: the answer's
    anchor lies in four cells, and its copies in cells (29, 39) and
    (29, 40) both reach the maximum weight with different regions (the
    second a sub-rectangle of the first).  The dense-cell path leaves
    cell (29, 40) a lower bound than the vertex-by-vertex path did, so
    the two cells are visited in the other order and the answer takes
    the (29, 39) region where the earlier path took the (29, 40) one.
    The contract: equal weight, and the region an arrangement cell of
    the answer's space, checked by the oracle."""
    monkeypatch.setattr(objects, "_AUTO_ID", itertools.count())
    stream = iter(make_stream("geolife_like", seed=42))
    m = AG2Monitor(1000.0, 1000.0, CountWindow(2000))
    naive = NaiveMonitor(1000.0, 1000.0, CountWindow(2000))
    first = [next(stream) for _ in range(2000)]
    m.ingest(first)
    naive.ingest(first)
    for tick in range(386):
        batch = [next(stream) for _ in range(20)]
        got = m.update(batch)
        want = naive.update(batch)
        if tick < 383:
            continue
        assert got.best.anchor_oid == 7729
        assert got.best_weight.hex() == "0x1.890401ab040d0p+13"
        assert got.best_weight == pytest.approx(want.best_weight, rel=1e-12)
        _oracle_check(got, naive._alive)
        copies = {}
        for c in m._cells.ids():
            graph = m._cells.objs[c] and m._cells.objs[c].graph
            for j in range(graph.head if graph else 0,
                           len(graph.seqs) if graph else 0):
                if graph.objs[j].oid == 7729:
                    copies[m._cells.key(c)] = local_plane_sweep_cached(
                        graph.vertex(j)
                    )
        held, earlier = copies[29, 39], copies[29, 40]
        assert held.weight == earlier.weight == got.best_weight
        assert held.rect != earlier.rect
        assert earlier.rect.x2 < held.rect.x2
        assert got.best.rect == held.rect
        assert m._cells.key(m._star_cell) == (29, 39)
