"""aG2's cell index in flat arrays (paper §5, Algorithm 2; DESIGN.md §5).

aG2 materialises a grid cell for every cell a live rectangle is mapped
to, but on a sparse window Rule 1 prunes almost all of them: they are
mapped to, their bound grows, they expire, and they are never visited.
So a cell is a row of flat arrays, not a Python object, until its first
visit.  :class:`CellTable` holds, per cell id:

* ``cw`` — ``array('d')``: the cell bound ``c.w`` (Equations 4–5), the
  key of the cell's candidate-heap entry;
* ``vb`` — ``array('d')``: the cell's bound at its last visit (``0.0``
  before the first), the part of ``c.w`` its graph holds;
* ``meta`` — ``array('q')``, :data:`CF` ints per cell: its key ``(i,
  j)``; its creation rank (``-1`` once deleted); the seq of the newest
  row mapped to it; the first and last link of its pending list (``-1``
  when empty); a dedupe mark for map and purge; the visit epoch it was
  last visited in; whether it holds a Python object; and whether it is
  stale;
* ``objs`` — the cell's :class:`~repro.core.ag2.AG2Cell` (graph and key)
  from its first visit on, else ``None``.

A cell's pending set ``R`` — the live rows mapped to it since its last
visit — is a list threaded through one link table (``links``: ``(seq,
next link)`` per pair, and ``lw``: the row's weight), appended in row
order by map, emptied by a visit and unlinked from the front by purge.
Link ids count every link ever made; the arrays start at id
``state[S_LBASE]``, and the prefix of links whose rows expired is
compacted away by the arrival table's rule.  A non-stale cell's ``c.w``
is its last-visit bound plus its pending weights, added in row order
(the adds Equation 5 made); purge marks a cell stale when it unlinks an
expired pair, whose weight ``c.w`` still counts.  A stale cell is
re-keyed, never by a subtraction, when its heap entry reaches the root
(:meth:`CellTable.top`): its bound is summed again from the last-visit
bound and the live pending weights.  A cell is empty, and deleted,
exactly when its newest row has expired.  Keys are found through an
open-addressing hash (``slots``: linear probing, at most half full,
backward-shift deletion); deleted ids are reused from a free stack.  The
candidate order is one lazy heap of ``(c.w, rank, id)`` entries (``hcw``
and ``hent``), larger bound and then smaller rank first; an entry is
live while its cell exists with that rank and bound and was not visited
in the current epoch.

Each operation is one call into the compiled library (``_sweep.c``:
``maxrs_route``, ``maxrs_map``, ``maxrs_purge``, ``maxrs_pending``,
``maxrs_top``, ``maxrs_top_bound``, ``maxrs_settle``), which reads and
writes these same arrays, passed as one tuple (:attr:`CellTable.arrays`)
and checked against their lengths on every call.  The Python reference
of each, which must leave the arrays equal bit for bit, lives with the
tests (``tests/reference_kernel.py``); the only Python route here is
:func:`_route_python`, for the batches the kernel declines.  The arrays
only grow from Python, in :meth:`CellTable.reserve`, before a call that
may need the room, and in place, so the tuple stays valid.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import isfinite
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

from repro.core import planesweep
from repro.core.geometry import Rect
from repro.core.grid import UniformGrid, _axis_cells
from repro.core.objects import SpatialObject
from repro.errors import InvariantViolationError

if TYPE_CHECKING:  # graph imports this module; annotation only
    from repro.core.graph import ArrivalTable

__all__ = ["CellTable", "route_rows"]

#: ints per cell in ``meta``, and their offsets
CF = 10
(
    C_I, C_J, C_RANK, C_NEWEST, C_HEAD, C_TAIL, C_MARK, C_VISIT, C_HELD,
    C_STALE,
) = range(CF)
#: the ``state`` array: live cells, ids ever used, free ids, next rank,
#: heap entries, map/purge stamp, visit epoch, hash mask; the link id at
#: the start of the link arrays, the next link id, and the first link
#: whose row is live
(
    S_COUNT, S_HWM, S_NFREE, S_RANK, S_HEAP, S_STAMP, S_VSTAMP, S_MASK,
    S_LBASE, S_LEND, S_LLIVE,
) = range(11)

_M64 = (1 << 64) - 1
#: cell ids a new table has room for
_MIN_CELLS = 16


def _spare(need: int) -> int:
    """The room an array that must hold ``need`` entries grows to: half
    as much again, so that a table sized by one big batch keeps room for
    the next batches instead of growing, and rehashing, inside them."""
    return need + need // 2


def _home(i: int, j: int, mask: int) -> int:
    """The home slot of key ``(i, j)``: ``_sweep.c``'s ``home``, in
    64-bit unsigned arithmetic."""
    h = (i * 0x9E3779B97F4A7C15 + j * 0xC2B2AE3D27D4EB4F) & _M64
    return (h ^ (h >> 32)) & mask


# -- the batch route ---------------------------------------------------------

_XYW = attrgetter("x", "y", "weight")


def route_rows(
    rows: array,
    cover: array,
    arrived: Sequence[SpatialObject],
    hw: float,
    hh: float,
    grid: UniformGrid,
) -> int:
    """Append each arrival's dual rectangle and weight to ``rows`` and
    its cell cover ``(i0, i1, j0, j1)`` to ``cover``; return the number
    of (row, cell) pairs.  ``maxrs_route``, or :func:`_route_python`
    when the kernel declines the batch (a bound that is not finite, a
    cell index beyond 2**52, a cover too large to count in 64 bits)."""
    n = len(arrived)
    if n:
        xyw = array("d", chain.from_iterable(map(_XYW, arrived)))
        r0 = len(rows)
        c0 = len(cover)
        rows.frombytes(bytes(40 * n))
        cover.frombytes(bytes(32 * n))
        pairs = planesweep._KERNEL.route(
            xyw, n, hw, hh, grid.cell_size, grid.origin_x, grid.origin_y,
            rows, r0, cover, c0,
        )
        if pairs >= 0:
            return pairs
        del rows[r0:]
        del cover[c0:]
    return _route_python(rows, cover, arrived, hw, hh, grid)


def _route_python(
    rows: array,
    cover: array,
    arrived: Sequence[SpatialObject],
    hw: float,
    hh: float,
    grid: UniformGrid,
) -> int:
    """The route of a batch ``maxrs_route`` declines, and its reference:
    ``Rect.from_center``'s bounds, float
    operation for float operation, and ``grid.cell_keys``' cover (one
    ``_axis_cells`` per axis, in exact integers).  A bound that is not
    finite makes ``Rect`` raise the error the dual transform raises,
    before any row is appended."""
    cs = grid.cell_size
    ox = grid.origin_x
    oy = grid.origin_y
    new_rows: list[float] = []
    new_cover: list[int] = []
    pairs = 0
    for obj in arrived:
        x = obj.x
        y = obj.y
        x1 = x - hw
        y1 = y - hh
        x2 = x + hw
        y2 = y + hh
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            Rect(x1, y1, x2, y2)  # raises InvalidGeometryError
        new_rows += (x1, y1, x2, y2, obj.weight)
        if x1 == x2 or y1 == y2:  # degenerate: overlaps no cell
            new_cover += (0, -1, 0, -1)
            continue
        xs = _axis_cells(x1, x2, ox, cs)
        ys = _axis_cells(y1, y2, oy, cs)
        new_cover += (xs.start, xs.stop - 1, ys.start, ys.stop - 1)
        pairs += len(xs) * len(ys)
    # the cover first: an index beyond 64 bits fails there, and a
    # failed fromlist appends nothing
    cover.fromlist(new_cover)
    rows.fromlist(new_rows)
    return pairs


# -- the cell table ------------------------------------------------------------


class CellTable:
    """aG2's live cells, their hash index and the candidate heap, as flat
    arrays (see the module docstring).  The monitor drives it once per
    batch: :meth:`map`, :meth:`purge`, then visits (:meth:`take_pending`,
    :meth:`top`, :meth:`top_bound`), then :meth:`settle`."""

    __slots__ = (
        "cw", "vb", "meta", "slots", "free", "hcw", "hent", "state",
        "links", "lw", "objs", "scratch", "pend", "cap", "hcap", "lcap",
        "arrays",
    )

    def __init__(self) -> None:
        self.cw = array("d")
        self.vb = array("d")
        self.meta = array("q")
        self.slots = array("q")
        self.free = array("q")
        self.hcw = array("d")
        self.hent = array("q")
        self.state = array("q", bytes(8 * (S_LLIVE + 1)))
        #: the pending lists: ``(seq, next)`` per link, and its weight
        self.links = array("q")
        self.lw = array("d")
        #: the Python object of every cell visited at least once
        self.objs: list[Any] = []
        #: per-call output of map (touched ids) and purge (held ids)
        self.scratch = array("q")
        #: per-call output of a visit's pending scan
        self.pend = array("q")
        self.cap = 0
        self.hcap = 0
        self.lcap = 0
        #: what the kernel reads the table from, in ``_sweep.c``'s order
        self.arrays = (
            self.cw, self.meta, self.slots, self.free, self.hcw, self.hent,
            self.state, self.vb, self.links, self.lw,
        )
        self._grow(_MIN_CELLS)
        self._grow_heap(2 * _MIN_CELLS)
        self._grow_links(2 * _MIN_CELLS)

    # -- sizing ------------------------------------------------------------

    def _grow(self, cap: int) -> None:
        """Room for ``cap`` cell ids, and a hash of at least twice as
        many slots, rebuilt from the live cells in id order."""
        extra = cap - self.cap
        self.cap += extra
        self.cw.frombytes(bytes(8 * extra))
        self.vb.frombytes(bytes(8 * extra))
        self.meta.frombytes(bytes(8 * CF * extra))
        self.free.frombytes(bytes(8 * extra))
        self.scratch.frombytes(bytes(8 * extra))
        self.objs += [None] * extra
        size = 1 << (2 * self.cap - 1).bit_length()
        mask = size - 1
        slots = self.slots
        slots[:] = array("q", [-1]) * size
        meta = self.meta
        self.state[S_MASK] = mask
        for c in self.ids():
            s = _home(meta[CF * c + C_I], meta[CF * c + C_J], mask)
            while slots[s] >= 0:
                s = (s + 1) & mask
            slots[s] = c

    def _grow_heap(self, cap: int) -> None:
        extra = cap - self.hcap
        self.hcap += extra
        self.hcw.frombytes(bytes(8 * extra))
        self.hent.frombytes(bytes(16 * extra))

    def _grow_links(self, cap: int) -> None:
        extra = cap - self.lcap
        self.lcap += extra
        self.links.frombytes(bytes(16 * extra))
        self.lw.frombytes(bytes(8 * extra))

    def reserve(self, pairs: int, rows: int) -> None:
        """Room for a batch of ``pairs`` (row, cell) pairs — as many new
        cells, links and heap entries at most — and for a visit's
        pending set out of ``rows`` live rows."""
        state = self.state
        need = state[S_HWM] + max(0, pairs - state[S_NFREE])
        if need > self.cap:
            self._grow(_spare(need))
        if state[S_HEAP] + pairs > self.hcap:
            self._grow_heap(_spare(state[S_HEAP] + pairs))
        links = state[S_LEND] - state[S_LBASE] + pairs
        if links > self.lcap:
            self._grow_links(_spare(links))
        if rows > len(self.pend):
            self.pend.frombytes(bytes(8 * max(rows, len(self.pend))))

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        """The number of live cells."""
        return self.state[S_COUNT]

    def alive(self, c: int) -> bool:
        return self.meta[CF * c + C_RANK] >= 0

    def key(self, c: int) -> tuple[int, int]:
        b = CF * c
        return self.meta[b + C_I], self.meta[b + C_J]

    def rank(self, c: int) -> int:
        return self.meta[CF * c + C_RANK]

    def find(self, key: tuple[int, int]) -> int:
        """The id of the live cell with this key, or ``-1``."""
        return _find(self, key[0], key[1])[0]

    def ids(self) -> list[int]:
        """The live cell ids, ascending."""
        meta = self.meta
        return [
            c for c in range(self.state[S_HWM]) if meta[CF * c + C_RANK] >= 0
        ]

    def by_rank(self) -> list[int]:
        """The live cell ids in creation order."""
        ids = self.ids()
        ids.sort(key=self.rank)
        return ids

    def held_by_rank(self) -> list[Any]:
        """The objects of the visited live cells, in creation order."""
        objs = self.objs
        ids = [c for c in range(self.state[S_HWM]) if objs[c] is not None]
        ids.sort(key=self.rank)
        return [objs[c] for c in ids]

    def pending(self, c: int) -> list[int]:
        """The seqs of cell ``c``'s pending set, oldest first (no side
        effect; diagnostics and checks)."""
        links = self.links
        lbase = self.state[S_LBASE]
        return [links[2 * (k - lbase)] for k in _chain(self, c)]

    def pending_weights(self, c: int) -> list[float]:
        """The weights on cell ``c``'s pending links, oldest first (no
        side effect; checks)."""
        lw = self.lw
        lbase = self.state[S_LBASE]
        return [lw[k - lbase] for k in _chain(self, c)]

    def live_bound(self, c: int) -> float:
        """Cell ``c``'s live bound: its last-visit bound plus its
        pending weights, added in row order (no side effect; the sum
        :meth:`top` re-keys a stale cell with)."""
        return _live_bound(self, c)

    # -- the batch steps -------------------------------------------------

    def map(self, table: "ArrivalTable", start: int) -> None:
        """Algorithm 2 lines 1–5 for the table rows from ``start`` on
        (the batch :meth:`ArrivalTable.route` just appended)."""
        self.reserve(table.pairs, len(table))
        planesweep._KERNEL.map(
            self.arrays, table.rows, table.cover, table.base, start,
            len(table.objs), self.scratch,
        )

    def purge(
        self, table: "ArrivalTable", head: int, stop: int, expired_upto: int
    ) -> array:
        """Expire the table rows ``head .. stop - 1`` from their cells
        (deleting the cells left empty, unlinking the expired pending
        pairs of the others and marking those stale, compacting the
        link table); returns the ids of the touched cells that hold an
        object, deleted ones included."""
        n = planesweep._KERNEL.purge(
            self.arrays, table.cover, head, stop, expired_upto, self.scratch
        )
        return self.scratch[:n]

    def take_pending(self, c: int) -> array:
        """Mark cell ``c`` visited and hand over its pending set, an
        increasing ``array('q')`` of seqs; the set is then empty and the
        cell not stale."""
        out = self.pend
        n = planesweep._KERNEL.pending(self.arrays, c, out)
        return out[:n]

    def top(self) -> int:
        """The unvisited live cell first in ``(live bound desc, rank)``
        order, or ``-1``: dead heap entries above it are dropped, and a
        stale cell at the root is re-keyed at its live bound (sinking
        when that is lower) until the root is a cell whose ``c.w`` is
        its live bound."""
        return planesweep._KERNEL.top(self.arrays)

    def top_bound(self) -> int:
        """The live cell with the largest live bound, ties to the
        largest key; ``-1`` when none is left."""
        c = planesweep._KERNEL.top_bound(self.arrays)
        if c < -1:
            raise MemoryError("cell heap kernel out of memory")
        return c

    def settle(self, visited: array) -> None:
        """End of a batch: record the bound of every visited cell (an
        ``array('q')`` of ids) as its last-visit bound and push it, end
        the visit epoch, and rebuild the heap once it holds more than
        twice the live cells."""
        state = self.state
        if state[S_HEAP] + len(visited) > self.hcap:
            self._grow_heap(_spare(state[S_HEAP] + len(visited)))
        planesweep._KERNEL.settle(self.arrays, visited, len(visited))

    def clear_heap(self) -> None:
        self.state[S_HEAP] = 0

    def hold(self, c: int, obj: Any) -> None:
        """Attach the Python object of cell ``c`` (its first visit)."""
        self.objs[c] = obj
        self.meta[CF * c + C_HELD] = 1

    def release(self, c: int) -> None:
        """Let go of a deleted cell's object."""
        self.objs[c] = None

    # -- checks ------------------------------------------------------------

    def check_invariants(self, expired_upto: int) -> None:
        """Verify the id bookkeeping, the hash, the link table (rows up
        to seq ``expired_upto`` have expired) and the heap; raises
        :class:`InvariantViolationError`.  Between batches only (no cell
        marked visited).  Tests only."""
        state = self.state
        meta = self.meta
        hwm = state[S_HWM]
        live = self.ids()
        dead = sorted(set(range(hwm)) - set(live))
        if state[S_COUNT] != len(live):
            raise InvariantViolationError(
                f"cell table: count {state[S_COUNT]}, {len(live)} live ids"
            )
        if sorted(self.free[:state[S_NFREE]]) != dead:
            raise InvariantViolationError(
                "cell table: the free ids are not exactly the deleted ones"
            )
        ranks = [meta[CF * c + C_RANK] for c in live]
        if len(set(ranks)) != len(ranks) or any(
            r >= state[S_RANK] for r in ranks
        ):
            raise InvariantViolationError("cell table: ranks not unique")
        slots = self.slots
        mask = state[S_MASK]
        if len(slots) != mask + 1 or len(slots) < 2 * self.cap:
            raise InvariantViolationError("cell table: hash size")
        held = [c for c in slots if c >= 0]
        if sorted(held) != live:
            raise InvariantViolationError(
                "cell table: hash slots are not one per live cell"
            )
        for c in live:
            b = CF * c
            if _find(self, meta[b + C_I], meta[b + C_J])[0] != c:
                raise InvariantViolationError(
                    f"cell {self.key(c)}: not reachable from its home slot"
                )
            if meta[b + C_VISIT] == state[S_VSTAMP]:
                raise InvariantViolationError(
                    f"cell {self.key(c)}: still marked visited"
                )
            if bool(meta[b + C_HELD]) != (self.objs[c] is not None):
                raise InvariantViolationError(
                    f"cell {self.key(c)}: held flag disagrees with its object"
                )
        if any(self.objs[c] is not None for c in dead) or any(
            obj is not None for obj in self.objs[hwm:]
        ):
            raise InvariantViolationError(
                "cell table: a deleted cell keeps its object"
            )
        self._check_links(live, expired_upto)
        n = state[S_HEAP]
        for k in range(1, n):
            if _ahead(self, k, (k - 1) // 2):
                raise InvariantViolationError(
                    f"candidate heap out of order at entry {k}"
                )
        entries = {
            (self.hcw[k], self.hent[2 * k], self.hent[2 * k + 1])
            for k in range(n)
        }
        for c in live:
            if (self.cw[c], meta[CF * c + C_RANK], c) not in entries:
                raise InvariantViolationError(
                    f"cell {self.key(c)}: no candidate-order entry for "
                    f"c.w={self.cw[c]}"
                )


    def _check_links(self, live: list[int], expired_upto: int) -> None:
        """The link table's bookkeeping: no cell or link points outside
        the uncompacted links, the first live link is the first whose
        row is newer than ``expired_upto``, and each live cell's list
        runs forward (row order) from its first link to its last."""
        state = self.state
        meta = self.meta
        lbase, lend, llive = state[S_LBASE], state[S_LEND], state[S_LLIVE]
        if not lbase <= llive <= lend or lend - lbase > self.lcap:
            raise InvariantViolationError(
                f"link table: base {lbase}, live {llive}, end {lend}, "
                f"room {self.lcap}"
            )
        links = self.links
        first_live = next(
            (k for k in range(lbase, lend)
             if links[2 * (k - lbase)] > expired_upto),
            lend,
        )
        if llive != first_live:
            raise InvariantViolationError(
                f"link table: first live link {llive}, expected {first_live}"
            )
        for c in live:
            b = CF * c
            head, tail = meta[b + C_HEAD], meta[b + C_TAIL]
            if meta[b + C_STALE] not in (0, 1) or (head < 0) != (tail < 0):
                raise InvariantViolationError(
                    f"cell {self.key(c)}: pending list ends {head}, {tail}"
                    f" or stale mark {meta[b + C_STALE]}"
                )
            k = head
            while k >= 0:
                if not lbase <= k < lend:
                    raise InvariantViolationError(
                        f"cell {self.key(c)}: link {k} outside the link "
                        f"table [{lbase}, {lend})"
                    )
                nxt = links[2 * (k - lbase) + 1]
                if nxt < 0 and k != tail or 0 <= nxt <= k:
                    raise InvariantViolationError(
                        f"cell {self.key(c)}: pending list breaks at "
                        f"link {k} (next {nxt}, last {tail})"
                    )
                k = nxt


# -- lookups for find, pending and the checks ----------------------------------


def _find(t: CellTable, i: int, j: int) -> tuple[int, int]:
    """``(id, slot)`` of cell ``(i, j)``, or ``(-1, empty slot)``."""
    meta = t.meta
    slots = t.slots
    mask = t.state[S_MASK]
    s = _home(i, j, mask)
    while True:
        c = slots[s]
        if c < 0 or (meta[CF * c + C_I] == i and meta[CF * c + C_J] == j):
            return c, s
        s = (s + 1) & mask


def _ahead(t: CellTable, a: int, b: int) -> bool:
    """Heap entry ``a`` goes before ``b``: larger bound, then smaller
    rank."""
    x = t.hcw[a]
    y = t.hcw[b]
    return x > y or (x == y and t.hent[2 * a] < t.hent[2 * b])


def _chain(t: CellTable, c: int) -> list[int]:
    """The link ids of cell ``c``'s pending list, in order."""
    links = t.links
    lbase = t.state[S_LBASE]
    ids = []
    k = t.meta[CF * c + C_HEAD]
    while k >= 0:
        ids.append(k)
        k = links[2 * (k - lbase) + 1]
    return ids


def _live_bound(t: CellTable, c: int) -> float:
    """``maxrs_top``'s re-key sum: cell ``c``'s last-visit bound plus
    its pending weights, in row order."""
    lw = t.lw
    lbase = t.state[S_LBASE]
    s = t.vb[c]
    for k in _chain(t, c):
        s += lw[k - lbase]
    return s
