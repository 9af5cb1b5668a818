"""aG2's candidate order on ties: equal ``c.w`` with dead heap entries
at that value.

``_top_bound_cell`` must pick the largest ``(i, j)`` key among the
*live* cells tied at the top bound, and ``_candidates`` must yield
tied cells in creation-rank order, skipping entries of a deleted cell
that sit between them.
"""

from __future__ import annotations

import pytest

from reference_kernel import use_reference
from repro.core.ag2 import AG2Monitor
from repro.core.cells import S_HEAP
from repro.core.objects import SpatialObject
from repro.window import CountWindow


def _at(i: int, j: int, weight: float) -> SpatialObject:
    """A point whose 2 × 2 rectangle lies inside cell ``(i, j)`` of a
    10-unit grid."""
    return SpatialObject(x=10.0 * i + 5.0, y=10.0 * j + 5.0, weight=weight)


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_ties_skip_dead_entries_at_the_tied_bound(kernel, monkeypatch):
    if kernel == "python":
        use_reference(monkeypatch)
    m = AG2Monitor(2.0, 2.0, CountWindow(6), cell_size=10.0)
    key = m._cells.key
    # ranks 0, 1, 2: (3, 1) and (1, 5) at c.w 0, (9, 9) at c.w 1
    m.update([_at(3, 1, 0.0), _at(1, 5, 0.0), _at(9, 9, 1.0)])
    assert key(m._star_cell) == (9, 9)
    # (3, 1) and (1, 5) rise to c.w 1 unvisited; (5, 5) is rank 3 at 1
    star = _at(5, 5, 1.0)
    m.update([star, _at(3, 1, 1.0), _at(1, 5, 1.0)])
    assert key(m._star_cell) == (9, 9)
    # the rank-0..2 objects expire: (9, 9) is deleted, its entries at
    # c.w 1 stay in the heap below the live root (3, 1)
    result = m.update([_at(0, 9, 0.0), _at(0, 8, 0.0), _at(0, 7, 0.0)])
    assert m.cell_count == 6
    assert key(m._star_cell) == (5, 5)
    assert result.best.anchor_oid == star.oid
    m.check_invariants()
    cells = m._cells
    tied = [k for k in range(cells.state[S_HEAP]) if cells.hcw[k] == 1.0]
    assert len(tied) > 3  # three live cells at c.w 1, and dead entries
    assert key(m._top_bound_cell()) == (5, 5)
    order = []
    for c in m._candidates():
        order.append(key(c))
        m._visit(c)
    m._settle_order()
    assert order == [(3, 1), (1, 5), (5, 5), (0, 9), (0, 8), (0, 7)]
    m.check_invariants()
