"""aG2's flat cell table: the compiled entry points against their Python
references (``tests/reference_kernel.py``).

Two monitors, one on the compiled kernel and one on the reference,
take the same random interleaving of map, purge and visit steps; after
every step their cell tables (every array, bit for bit: bounds,
last-visit bounds, pending links and stale marks), arrival tables
and visited cells' graphs must be equal, and ``check_invariants`` must
hold on both.  Keys are drawn mostly from two hash buckets shared by
every table size up to 512 slots, so probe chains are long, and
expiring their cells deletes from inside the chains; the table starts
at 16 cells and grows, and deleted ids are reused.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import reference_kernel, use_reference
from repro.core.ag2 import AG2Monitor
from repro.core.cells import (
    CF, S_HEAP, S_HWM, S_LBASE, S_LEND, S_NFREE, CellTable, _home,
)
from repro.core.objects import SpatialObject
from repro.window import CountWindow

def _bucket_keys(count: int) -> list[tuple[int, int]]:
    """``count`` keys in each of the two fullest home buckets of a
    512-slot table (so also of every smaller power of two)."""
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i in range(-60, 60):
        for j in range(-60, 60):
            buckets.setdefault(_home(i, j, 511), []).append((i, j))
    full = sorted(buckets.values(), key=len, reverse=True)
    return full[0][:count] + full[1][:count]


KEYS = _bucket_keys(12) + [(i, j) for i in range(-4, 5) for j in range(-4, 5)]


def _point(key: tuple[int, int], edge: bool, weight: float) -> SpatialObject:
    """A point whose 0.5-wide rectangle lies in cell ``key`` of a unit
    grid, or straddles its left edge (two cells) when ``edge``."""
    i, j = key
    return SpatialObject(
        x=i + (0.0 if edge else 0.5), y=j + 0.5, weight=weight
    )


class _Delta:
    def __init__(self, arrived):
        self.arrived = arrived


def _state(m: AG2Monitor):
    """Everything the entry points write, comparable across kernels."""
    t = m._cells
    st_ = t.state
    graphs = {
        c: (list(obj.graph.seqs), [u.hex() for u in obj.graph.upper],
            obj.graph.head)
        for c, obj in enumerate(t.objs) if obj is not None
    }
    links = st_[S_LEND] - st_[S_LBASE]
    return (
        list(st_), t.cap, t.hcap, t.lcap,
        [v.hex() for v in t.cw[:st_[S_HWM]]],
        [v.hex() for v in t.vb[:st_[S_HWM]]],
        list(t.links[:2 * links]), [v.hex() for v in t.lw[:links]],
        list(t.meta[:CF * st_[S_HWM]]), list(t.slots),
        list(t.free[:st_[S_NFREE]]),
        [v.hex() for v in t.hcw[:st_[S_HEAP]]],
        list(t.hent[:2 * st_[S_HEAP]]),
        list(m._table.rows), list(m._table.cover), m._table.base,
        m._table.head, graphs, dataclasses.asdict(m.stats),
    )


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("map"),
            st.lists(
                st.tuples(
                    st.integers(0, len(KEYS) - 1),
                    st.booleans(),
                    st.sampled_from([1.0, 0.1, 0.2, 0.6, 0.0]),
                ),
                max_size=14,
            ),
        ),
        st.tuples(st.just("purge"), st.integers(0, 30)),
        st.tuples(
            st.just("visit"), st.lists(st.integers(0, 400), max_size=6)
        ),
        st.tuples(st.just("top"), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_entry_points_equal_their_python_twins(ops):
    pair = {
        kernel: AG2Monitor(0.5, 0.5, CountWindow(10 ** 6), cell_size=1.0)
        for kernel in ("compiled", "python")
    }
    for op, arg in ops:
        answers = {}
        for kernel, m in pair.items():
            with contextlib.ExitStack() as stack:
                if kernel == "python":
                    stack.enter_context(reference_kernel())
                if op == "map":
                    m._map_arrivals(_Delta(
                        [_point(KEYS[k], edge, w) for k, edge, w in arg]
                    ))
                elif op == "purge":
                    m._expired_upto += min(arg, len(m._table))
                    m._purge_all()
                elif op == "visit":
                    ids = m._cells.by_rank()
                    chosen = dict.fromkeys(ids[k % len(ids)] for k in arg) \
                        if ids else {}
                    pending = []
                    for c in chosen:
                        pending.append(m._cells.pending(c))
                        m._visit(c)
                    m._settle_order()
                    answers[kernel] = pending
                else:
                    top = m._cells.top()
                    bound = m._top_bound_cell()
                    answers[kernel] = (top, bound)
                m.check_invariants()
        compiled, python = pair["compiled"], pair["python"]
        assert answers.get("compiled") == answers.get("python"), op
        assert _state(compiled) == _state(python), op


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_deleting_inside_a_probe_chain_keeps_every_key_found(
    kernel, monkeypatch
):
    """Fill one home bucket, delete its cells one at a time from the
    middle of the chain, and reuse the freed ids: every remaining key is
    still found, and new keys take the freed ids, newest freed first."""
    if kernel == "python":
        use_reference(monkeypatch)
    m = AG2Monitor(0.5, 0.5, CountWindow(10 ** 6), cell_size=1.0)
    chain = _bucket_keys(10)[:10]
    m._map_arrivals(_Delta([_point(key, False, 1.0) for key in chain]))
    cells = m._cells
    assert [cells.find(key) for key in chain] == list(range(10))
    for gone in (4, 5, 0, 9):
        # re-map every other live key, then expire all older rows
        survivors = [
            k for k in range(10) if k != gone and cells.find(chain[k]) >= 0
        ]
        first_new = m._table.base + len(m._table.objs)
        m._map_arrivals(
            _Delta([_point(chain[k], False, 1.0) for k in survivors])
        )
        m._expired_upto = first_new - 1
        m._purge_all()
        assert cells.find(chain[gone]) == -1
        for k in survivors:
            assert cells.find(chain[k]) >= 0
        m.check_invariants()
    assert sorted(cells.free[:cells.state[S_NFREE]]) == [0, 4, 5, 9]
    fresh = [(100, 100), (101, 100)]
    m._map_arrivals(_Delta([_point(key, False, 1.0) for key in fresh]))
    assert [cells.find(key) for key in fresh] == [9, 0]
    m.check_invariants()


@pytest.mark.parametrize("kernel", ["compiled", "python"])
def test_a_table_primed_by_one_big_batch_has_room_for_the_next(
    kernel, monkeypatch
):
    """A table sized by one big batch keeps room for a small one: the
    next batch grows no array, so no update rehashes the live cells."""
    if kernel == "python":
        use_reference(monkeypatch)
    m = AG2Monitor(0.5, 0.5, CountWindow(10 ** 6), cell_size=1.0)
    m._map_arrivals(_Delta(
        [_point((i, j), False, 1.0) for i in range(30) for j in range(30)]
    ))
    cells = m._cells
    sizes = (cells.cap, cells.hcap, cells.lcap, len(cells.slots))
    assert cells.count == 900 and cells.cap >= 900 + 30
    m._map_arrivals(_Delta(
        [_point((i, 40), False, 1.0) for i in range(30)]
    ))
    assert cells.count == 930
    assert (cells.cap, cells.hcap, cells.lcap, len(cells.slots)) == sizes
    m.check_invariants()


def test_table_grows_from_sixteen_cells():
    """Mapping past the capacity grows every per-cell array and rebuilds
    the hash at twice the new capacity."""
    table = CellTable()
    assert table.cap == 16 and len(table.slots) == 32
    m = AG2Monitor(0.5, 0.5, CountWindow(10 ** 6), cell_size=1.0)
    m._map_arrivals(_Delta(
        [_point((i, j), False, 1.0) for i in range(9) for j in range(9)]
    ))
    cells = m._cells
    assert cells.count == 81 and cells.cap >= 81
    assert len(cells.slots) >= 2 * cells.cap
    assert len(cells.cw) == cells.cap == len(cells.objs)
    assert isinstance(cells.meta, array) and len(cells.meta) == CF * cells.cap
    m.check_invariants()
