"""The Python reference of every compiled sweep step, and the seam that
swaps it in for the kernel calls.

``repro.core`` runs every sweep step in one compiled library
(``repro/core/_sweep.c``).  Each entry point ports the Python below
operation for operation, so the two must agree bit for bit: the
differentials compare them on ``float.hex`` of every number.  The max
sweep and the top-k candidates run on :class:`MaxCoverSegmentTree`
(``tests/segment_tree.py``), borrowed from a small pool; the graph
cells' scans on the same flat items; the aG2 cell table's map, purge,
visit, candidate heap and settle on the table's own arrays, pending
lists and the lazy re-key of a stale cell's bound included; the ingest
guard's batch pass on the records themselves; the durable column pass
on the stream objects and the oid list of a checkpoint or a WAL record
on the ints; the batch route on the stream objects too.

:func:`use_reference` (with a ``MonkeyPatch``) and
:func:`reference_kernel` (a context manager) replace every binding of a
kernel dispatcher in the loaded ``repro`` modules — ``_sweep_flat``,
``_topk_flat``, ``_scan_flat``, ``_insert_flat``, ``_local_flat``,
``_cell_flat``, ``_max_flat``, ``_above_flat``, ``route_rows``,
``admit_records``, ``pack_columns`` and ``json_ints`` — and the
:class:`~repro.core.cells.CellTable` methods that call the kernel, so a
whole monitor, its WAL and its checkpoints run on the reference.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from math import floor, isfinite, isnan
from types import MemberDescriptorType
from typing import Iterable, Iterator, Sequence

import pytest

from repro.core import cells, objects, planesweep
from repro.core.cells import (
    C_HEAD, C_HELD, C_I, C_J, C_MARK, C_NEWEST, C_RANK, C_STALE, C_TAIL,
    C_VISIT, CF, S_COUNT, S_HEAP, S_HWM, S_LBASE, S_LEND, S_LLIVE, S_MASK,
    S_NFREE, S_RANK, S_STAMP, S_VSTAMP, CellTable, _ahead, _chain, _find,
    _home, _live_bound, _spare,
)
from repro.core.graph import _COMPACT_MIN
from repro.core.grid import _axis_cells
from repro.core.objects import SpatialObject
from repro.resilience import guard
from segment_tree import MaxCoverSegmentTree

_REMOVE = 0
_INSERT = 1

#: a flat sweep's answer: ``(weight, x1, y1, x2, y2)``
_Cell = Sequence[float]
_Event = tuple[float, int, int, int, int, float]

# -- the sweeps ------------------------------------------------------------

# Pool of reusable segment trees: a sweep borrows one, resets it to the
# needed slot count (reusing the backing arrays), and returns it.  Kept
# tiny — sweeps never nest more than top-level sweep → local sweep.
_TREE_POOL: list[MaxCoverSegmentTree] = []
_POOL_MAX = 4


def _acquire_tree(size: int) -> MaxCoverSegmentTree:
    if _TREE_POOL:
        tree = _TREE_POOL.pop()
        tree.reset(size)
        return tree
    return MaxCoverSegmentTree(size)


def _release_tree(tree: MaxCoverSegmentTree) -> None:
    if len(_TREE_POOL) < _POOL_MAX:
        _TREE_POOL.append(tree)


def _prepare(buf: array) -> tuple[list[float], list[_Event]] | None:
    """Build the slot coordinate array and the y-sorted event list
    (``prepare`` in ``_sweep.c``).

    Returns ``None`` when no item has positive area.  Each event is
    ``(y, kind, seq, lo_slot, hi_slot, weight)``; removals sort before
    insertions at equal ``y`` so that every queried strip has positive
    height (strict-interior semantics), and the per-rectangle ``seq``
    makes the native tuple sort reproduce input order on (y, kind) ties.
    """
    xs_all: list[float] = []
    live: list[int] = []
    for i in range(0, len(buf), 5):
        x1 = buf[i]
        x2 = buf[i + 2]
        if x1 == x2 or buf[i + 1] == buf[i + 3]:  # empty interior
            continue
        live.append(i)
        xs_all += (x1, x2)
    if not live:
        return None
    xs_all.sort()
    xs = [xs_all[0]]
    prev = xs_all[0]
    for x in xs_all:
        if x != prev:
            xs.append(x)
            prev = x
    events: list[_Event] = []
    for seq, i in enumerate(live):
        lo = bisect_left(xs, buf[i])
        hi = bisect_left(xs, buf[i + 2]) - 1
        w = buf[i + 4]
        events.append((buf[i + 1], _INSERT, seq, lo, hi, w))
        events.append((buf[i + 3], _REMOVE, seq, lo, hi, w))
    events.sort()
    return xs, events


def _iter_y_groups(
    events: list[_Event], tree: MaxCoverSegmentTree
) -> Iterable[tuple[float, float, list[tuple[int, int]]]]:
    """Apply events group-by-group; yield ``(y, y_next, inserted_spans)``
    after each group but the last that performed at least one
    insertion."""
    n = len(events)
    i = 0
    while i < n:
        y = events[i][0]
        inserted: list[tuple[int, int]] = []
        while i < n and events[i][0] == y:
            _y, kind, _seq, lo, hi, w = events[i]
            if kind == _INSERT:
                tree.add(lo, hi, w)
                inserted.append((lo, hi))
            else:
                tree.add(lo, hi, -w)
            i += 1
        if inserted and i < n:
            yield y, events[i][0], inserted


def sweep_flat(buf: array) -> _Cell | None:
    """``maxrs_sweep``: ``(weight, x1, y1, x2, y2)`` of a maximum-weight
    cell of the flat items, or ``None`` when no item has positive
    area."""
    prepared = _prepare(buf)
    if prepared is None:
        return None
    xs, events = prepared
    tree = _acquire_tree(max(1, len(xs) - 1))
    try:
        best_w = float("-inf")
        best: tuple[int, float, float] | None = None
        for y, y_next, _inserted in _iter_y_groups(events, tree):
            value = tree.max_value
            if value > best_w:
                best_w = value
                best = (tree.argmax, y, y_next)
    finally:
        _release_tree(tree)
    if best is None:
        return None
    slot, y, y_next = best
    return best_w, xs[slot], y, xs[slot + 1], y_next


def topk_flat(buf: array) -> array:
    """``maxrs_topk``: at every sweep strip where insertions happened,
    each inserted rectangle offers the best arrangement cell within its
    x-span; a cell ``(slot, strip)`` offered twice keeps its first
    position and the larger weight.  The candidates, 5 doubles each."""
    prepared = _prepare(buf)
    if prepared is None:
        return array("d")
    xs, events = prepared
    tree = _acquire_tree(max(1, len(xs) - 1))
    try:
        # arrangement cell -> (weight, x1, y1, x2, y2)
        candidates: dict[tuple[int, float], tuple[float, ...]] = {}
        for y, y_next, inserted in _iter_y_groups(events, tree):
            for lo, hi in inserted:
                value, slot = tree.range_max(lo, hi)
                prev = candidates.get((slot, y))
                if prev is None or value > prev[0]:
                    candidates[slot, y] = (
                        value, xs[slot], y, xs[slot + 1], y_next
                    )
    finally:
        _release_tree(tree)
    return array("d", [v for c in candidates.values() for v in c])


def scan_flat(
    items: array,
    q: int,
    lo: int,
    hi: int,
    upper: array | None,
    dirty: array | None,
    hits: array | None,
    at: int = 0,
) -> int:
    """``maxrs_connect``: visit every flat item ``j`` in ``[lo, hi)``, in
    index order, whose rectangle overlaps item ``q``'s
    (``Rect.overlaps``, inlined).  With ``upper``, add item ``q``'s
    weight to ``upper[j]`` and set ``dirty[j]``; with ``hits``, store
    ``j`` at ``hits[at + k]`` for the ``k``-th item.  Returns the
    count."""
    b = 5 * q
    x1, y1, x2, y2, weight = items[b:b + 5]
    k = at
    if x1 == x2 or y1 == y2:  # a degenerate rectangle overlaps nothing
        return 0
    for j in range(lo, hi):
        rx1, ry1, rx2, ry2 = items[5 * j:5 * j + 4]
        if (
            rx1 < x2
            and x1 < rx2
            and ry1 < y2
            and y1 < ry2
            and rx1 != rx2
            and ry1 != ry2
        ):
            if upper is not None:
                upper[j] += weight
                dirty[j] = 1
            if hits is not None:
                hits[k] = j
            k += 1
    return k - at


def insert_flat(
    table: array,
    base: int,
    seqs: array,
    items: array,
    head: int,
    n: int,
    upper: array,
    exact: array,
    dirty: array,
    hits: array | None,
) -> int:
    """``maxrs_insert``: copy the table rows of ``seqs`` to items ``n, n
    + 1, ...`` (their bounds and exact weights start at the row's
    weight), then connect each new item in order to the older items
    ``[head, n + k)`` with :func:`scan_flat`, appending the touched
    indices to ``hits``.  Returns the number of edges."""
    for k, seq in enumerate(seqs):
        b = 5 * (seq - base)
        q = n + k
        items[5 * q:5 * q + 5] = table[b:b + 5]
        upper[q] = exact[q] = table[b + 4]
    edges = 0
    for q in range(n, n + len(seqs)):
        edges += scan_flat(items, q, head, q, upper, dirty, hits, edges)
    return edges


def local_flat(items: array, i: int, n: int) -> _Cell | None:
    """``maxrs_local``: gather the neighbours of flat item ``i`` — the
    items in ``(i, n)`` that overlap it — clip each to it, in index
    order, and sweep item ``i`` with the clips."""
    hits = array("q", bytes(8 * (n - i)))
    degree = scan_flat(items, i, i + 1, n, None, None, hits)
    b = 5 * i
    ax1, ay1, ax2, ay2 = items[b:b + 4]
    buf = items[b:b + 5]
    for k in range(degree):
        b = 5 * hits[k]
        x1, y1, x2, y2 = items[b:b + 4]
        x1 = x1 if x1 > ax1 else ax1
        y1 = y1 if y1 > ay1 else ay1
        x2 = x2 if x2 < ax2 else ax2
        y2 = y2 if y2 < ay2 else ay2
        if x1 < x2 and y1 < y2:
            buf.extend((x1, y1, x2, y2, items[b + 4]))
    return sweep_flat(buf) if len(buf) > 5 else None


def cell_flat(
    items: array,
    head: int,
    n: int,
    extent: Sequence[float],
    upper: array,
    exact: array,
) -> tuple[int, array]:
    """``maxrs_cell``: sweep the items ``[head, n)`` clipped to the cell
    ``extent``, in index order; the anchor is the oldest item whose
    rectangle holds the max face.  With an anchor, cap every bound at
    ``M⁺ = M + (8 m + 512) 2^-52 W`` (``m`` items of total weight ``W``,
    summed in index order), never below the exact weight.  Returns the
    anchor (``-1``: bounds untouched) and ``(M, x1, y1, x2, y2, M⁺)``."""
    cx1, cy1, cx2, cy2 = extent
    buf = array("d")
    total = 0.0
    for j in range(head, n):
        x1, y1, x2, y2, w = items[5 * j:5 * j + 5]
        total += w
        x1 = x1 if x1 > cx1 else cx1
        y1 = y1 if y1 > cy1 else cy1
        x2 = x2 if x2 < cx2 else cx2
        y2 = y2 if y2 < cy2 else cy2
        if x1 < x2 and y1 < y2:
            buf.extend((x1, y1, x2, y2, w))
    out = array("d", bytes(48))
    found = sweep_flat(buf)
    if found is None:
        return -1, out
    out[:5] = array("d", found)
    _w, fx1, fy1, fx2, fy2 = found
    for j in range(head, n):
        x1, y1, x2, y2 = items[5 * j:5 * j + 4]
        if x1 <= fx1 and fx2 <= x2 and y1 <= fy1 and fy2 <= y2:
            break
    else:
        return -1, out
    cap = out[5] = out[0] + (8 * (n - head) + 512) * 2.0**-52 * total
    for k in range(head, n):
        if upper[k] > cap:
            upper[k] = cap if cap > exact[k] else exact[k]
    return j, out


def max_flat(values: array, lo: int) -> float:
    """``maxrs_max``: ``max(values[lo:])``, the first of equal maxima;
    ``0.0`` when empty."""
    return max(values[lo:], default=0.0)


def above_flat(values: array, lo: int, relax: float, rho: float) -> int:
    """``maxrs_above``: the first index ``j ≥ lo`` with ``relax *
    values[j] > rho``, or ``len(values)``."""
    for j in range(lo, len(values)):
        if relax * values[j] > rho:
            return j
    return len(values)


#: ``_sweep.c``'s route limits: cell indices below 2**52 are exact
#: doubles, and cover sides and pair totals must fit in 64 bits
_EXACT_INDEX = 2**52
_MAX_AXIS = 1 << 30
_MAX_PAIRS = 1 << 61


def _axis(lo: float, hi: float, origin: float, cs: float) -> tuple | None:
    """``axis_cells``: ``grid._axis_cells``' first and last index, or
    ``None`` when an index is outside the exact range."""
    a = (lo - origin) / cs
    b = (hi - origin) / cs
    if not (
        isfinite(a) and isfinite(b) and abs(floor(a)) < _EXACT_INDEX
        and abs(floor(b)) < _EXACT_INDEX
    ):
        return None
    span = _axis_cells(lo, hi, origin, cs)
    return span.start, span.stop - 1


def route(
    run: Sequence, cls: type, hw: float, hh: float, cs: float, ox: float,
    oy: float, rows: array, r0: int, cover: array, c0: int,
) -> int:
    """``maxrs_route``: the dual rectangle and weight of each object of
    ``run`` into ``rows`` from ``r0`` on, its cell cover into ``cover``
    from ``c0`` on, and the number of (row, cell) pairs; walking the run
    once, the first object that fails decides: ``-3`` when it is not an
    exact ``cls`` with exact-float ``x``, ``y`` and ``weight`` (or the
    run is not a list or tuple), ``-1`` when a bound is not finite,
    ``-2`` when a cell index is out of the exact range or the pairs
    cannot be counted in 64 bits."""
    if isinstance(run, dict) or not hasattr(type(run), "__getitem__"):
        raise TypeError(f"expected a sequence of objects, got {type(run)}")
    if not isinstance(cls, type):
        raise TypeError(f"expected a type, got {type(cls)}")
    for name in _WIRE_FIELDS:
        if not isinstance(getattr(cls, name, None), MemberDescriptorType):
            raise TypeError(f"{cls.__name__} has no slot {name!r}")
    if rows.typecode != "d" or cover.typecode != "q":
        raise TypeError("expected array('d') rows and array('q') cover")
    if type(run) not in (list, tuple):
        return -3
    n = len(run)
    if not (0 <= r0 <= len(rows) - 5 * n and 0 <= c0 <= len(cover) - 4 * n):
        raise IndexError("maxrs_route(): index or count out of range")
    pairs = 0
    for k, obj in enumerate(run):
        if type(obj) is not cls:
            return -3
        try:
            x, y, w = obj.x, obj.y, obj.weight
        except AttributeError:  # a slot never set
            return -3
        if not (type(x) is float and type(y) is float and type(w) is float):
            return -3
        x1 = x - hw
        y1 = y - hh
        x2 = x + hw
        y2 = y + hh
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2)
                and isfinite(y2)):
            return -1
        rows[r0 + 5 * k:r0 + 5 * k + 5] = array("d", (x1, y1, x2, y2, w))
        if x1 == x2 or y1 == y2:  # degenerate: overlaps no cell
            cover[c0 + 4 * k:c0 + 4 * k + 4] = array("q", (0, -1, 0, -1))
            continue
        xs = _axis(x1, x2, ox, cs)
        ys = _axis(y1, y2, oy, cs)
        if xs is None or ys is None:
            return -2
        cover[c0 + 4 * k:c0 + 4 * k + 4] = array("q", (*xs, *ys))
        nx = xs[1] - xs[0] + 1
        ny = ys[1] - ys[0] + 1
        if nx > 0 and ny > 0:
            if nx > _MAX_AXIS or ny > _MAX_AXIS or pairs > _MAX_PAIRS:
                return -2
            pairs += nx * ny
    return pairs


def route_rows(rows, cover, arrived, hw, hh, grid) -> int:
    """``cells.route_rows`` on the twin: :func:`route`, and
    ``cells._route_python`` (looked up per call, so a test may spy on
    it) for a batch the twin declines."""
    n = len(arrived)
    if n:
        r0 = len(rows)
        c0 = len(cover)
        rows.frombytes(bytes(40 * n))
        cover.frombytes(bytes(32 * n))
        pairs = route(
            arrived, SpatialObject, hw, hh, grid.cell_size, grid.origin_x,
            grid.origin_y, rows, r0, cover, c0,
        )
        if pairs >= 0:
            return pairs
        del rows[r0:]
        del cover[c0:]
    return cells._route_python(rows, cover, arrived, hw, hh, grid)


# -- the ingest guard's batch pass --------------------------------------------

#: the wire record's keys, in the object's positional order
_WIRE_FIELDS = ("x", "y", "weight", "timestamp", "oid")


def _wire_values(record: object) -> tuple | None:
    """``wire_values``: the record's five values when the kernel builds
    its object, else ``None``."""
    if type(record) is not dict or any(type(k) is not str for k in record):
        return None
    if any(k not in record for k in _WIRE_FIELDS):
        return None
    x, y, w, t, oid = (record[k] for k in _WIRE_FIELDS)
    if not (
        type(x) is float and type(y) is float and type(w) is float
        and type(t) is float and type(oid) is int
    ):
        return None
    if isfinite(x) and isfinite(y) and w >= 0.0 and not isnan(t):
        return x, y, w, t, oid
    return None


def admit(records: list, cls: type, floor: object) -> tuple:
    """``maxrs_admit``: ``(objects, top)``, the objects
    ``cls(x, y, weight, timestamp, oid)`` for each record of the shape
    and values the kernel builds, ``None`` for every other one; ``top``
    the running maximum of the timestamps, started at ``floor`` and
    raised only by a larger one, when the floor is an exact float, every
    record was built and no timestamp fell below the running maximum;
    else ``None``."""
    if type(records) is not list:
        raise TypeError(f"expected a list of records, got {type(records)}")
    if not isinstance(cls, type):
        raise TypeError(f"expected a type, got {type(cls)}")
    for name in _WIRE_FIELDS:
        if not isinstance(getattr(cls, name, None), MemberDescriptorType):
            raise TypeError(f"{cls.__name__} has no slot {name!r}")
    out = []
    for record in records:
        values = _wire_values(record)
        out.append(None if values is None else cls(*values))
    top = floor if type(floor) is float else None
    for obj in out:
        if top is None or obj is None or obj.timestamp < top:
            return out, None
        if obj.timestamp > top:
            top = obj.timestamp
    return out, top


def admit_records(records: list, floor: object) -> tuple:
    """``guard.admit_records`` on the reference."""
    return admit(records, SpatialObject, floor)


# -- the durable column pass ---------------------------------------------------


def columns(run: Sequence, cls: type) -> tuple | None:
    """``maxrs_columns``: ``(oids, x, y, weight, timestamp)`` of a list
    or tuple of exact ``cls`` objects with exact-float x, y, weight and
    timestamp -- the oids their own objects, each float column the
    little-endian doubles as ``bytes`` -- and ``None`` for any other
    sequence."""
    if isinstance(run, dict) or not hasattr(type(run), "__getitem__"):
        raise TypeError(f"expected a sequence of objects, got {type(run)}")
    if not isinstance(cls, type):
        raise TypeError(f"expected a type, got {type(cls)}")
    for name in _WIRE_FIELDS:
        if not isinstance(getattr(cls, name, None), MemberDescriptorType):
            raise TypeError(f"{cls.__name__} has no slot {name!r}")
    if type(run) not in (list, tuple):
        return None
    oids, floats = [], [array("d") for _ in range(4)]
    for obj in run:
        if type(obj) is not cls:
            return None
        try:
            values = [getattr(obj, name) for name in _WIRE_FIELDS]
        except AttributeError:  # a slot never set
            return None
        if any(type(v) is not float for v in values[:4]):
            return None
        for column, value in zip(floats, values):
            column.append(value)
        oids.append(values[4])
    if sys.byteorder != "little":
        for column in floats:
            column.byteswap()
    return (oids, *(column.tobytes() for column in floats))


def pack_columns(run: Sequence) -> tuple | None:
    """``objects.pack_columns`` on the reference."""
    return columns(run, SpatialObject)


def ints(values: list, compact: bool = False) -> str | None:
    """``maxrs_ints``: the JSON text of a list of exact ints that fit in
    64 bits, each in decimal, ``", "`` between them (``","`` when
    ``compact``); ``None`` for any other list."""
    if type(values) is not list:
        raise TypeError(f"expected a list, got {type(values)}")
    if any(type(v) is not int or not -(2**63) <= v < 2**63 for v in values):
        return None
    return "[" + ("," if compact else ", ").join(str(v) for v in values) + "]"


# -- the cell table ----------------------------------------------------------


def _create(t: CellTable, slot: int, i: int, j: int) -> int:
    state = t.state
    if state[S_NFREE] > 0:
        state[S_NFREE] -= 1
        c = t.free[state[S_NFREE]]
    else:
        c = state[S_HWM]
        state[S_HWM] += 1
    b = CF * c
    t.meta[b:b + CF] = array(
        "q", (i, j, state[S_RANK], -1, -1, -1, 0, -1, 0, 0)
    )
    state[S_RANK] += 1
    t.cw[c] = 0.0
    t.vb[c] = 0.0
    t.slots[slot] = c
    state[S_COUNT] += 1
    return c


def _drop(t: CellTable, c: int) -> None:
    """Delete cell ``c``: backward-shift its probe chain, free its id."""
    meta = t.meta
    slots = t.slots
    state = t.state
    mask = state[S_MASK]
    b = CF * c
    s = _home(meta[b + C_I], meta[b + C_J], mask)
    while slots[s] != c:
        s = (s + 1) & mask
    j = s
    while True:
        j = (j + 1) & mask
        d = slots[j]
        if d < 0:
            break
        h = _home(meta[CF * d + C_I], meta[CF * d + C_J], mask)
        # d moves into the hole unless its home lies in (s, j]
        if (j - h) & mask >= (j - s) & mask:
            slots[s] = d
            s = j
    slots[s] = -1
    meta[b + C_RANK] = -1
    meta[b + C_HEAD] = -1
    meta[b + C_TAIL] = -1
    meta[b + C_HELD] = 0
    t.free[state[S_NFREE]] = c
    state[S_NFREE] += 1
    state[S_COUNT] -= 1


def _swap(t: CellTable, a: int, b: int) -> None:
    hcw = t.hcw
    hent = t.hent
    hcw[a], hcw[b] = hcw[b], hcw[a]
    hent[2 * a], hent[2 * b] = hent[2 * b], hent[2 * a]
    hent[2 * a + 1], hent[2 * b + 1] = hent[2 * b + 1], hent[2 * a + 1]


def _sift_down(t: CellTable, k: int, n: int) -> None:
    while True:
        left = 2 * k + 1
        if left >= n:
            return
        b = left + 1 if left + 1 < n and _ahead(t, left + 1, left) else left
        if not _ahead(t, b, k):
            return
        _swap(t, b, k)
        k = b


def _push(t: CellTable, c: int) -> None:
    state = t.state
    k = state[S_HEAP]
    state[S_HEAP] += 1
    t.hcw[k] = t.cw[c]
    t.hent[2 * k] = t.meta[CF * c + C_RANK]
    t.hent[2 * k + 1] = c
    while k > 0:
        parent = (k - 1) // 2
        if not _ahead(t, k, parent):
            return
        _swap(t, k, parent)
        k = parent


def _pop(t: CellTable) -> None:
    state = t.state
    state[S_HEAP] -= 1
    n = state[S_HEAP]
    if n > 0:
        t.hcw[0] = t.hcw[n]
        t.hent[0] = t.hent[2 * n]
        t.hent[1] = t.hent[2 * n + 1]
        _sift_down(t, 0, n)


def _live(t: CellTable, k: int) -> bool:
    c = t.hent[2 * k + 1]
    b = CF * c
    meta = t.meta
    return (
        meta[b + C_RANK] == t.hent[2 * k]
        and t.cw[c] == t.hcw[k]
        and meta[b + C_VISIT] != t.state[S_VSTAMP]
    )


def map_rows(
    t: CellTable, rows: array, cover: array, base: int, start: int, stop: int
) -> int:
    """``maxrs_map``: find or create every covered cell, rows in order;
    grow its bound by the row's weight (Equation 5), make the row its
    newest and append the (row, cell) pair to its pending list; then
    push one heap entry per touched cell, in first-touch order, at its
    final bound."""
    state = t.state
    state[S_STAMP] += 1
    stamp = state[S_STAMP]
    meta = t.meta
    cw = t.cw
    links = t.links
    lbase = state[S_LBASE]
    touched = t.scratch
    nt = 0
    for r in range(start, stop):
        i0, i1, j0, j1 = cover[4 * r:4 * r + 4]
        w = rows[5 * r + 4]
        seq = base + r
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                c, slot = _find(t, i, j)
                if c < 0:
                    c = _create(t, slot, i, j)
                b = CF * c
                cw[c] += w
                meta[b + C_NEWEST] = seq
                k = state[S_LEND]
                state[S_LEND] += 1
                links[2 * (k - lbase)] = seq
                links[2 * (k - lbase) + 1] = -1
                t.lw[k - lbase] = w
                if meta[b + C_TAIL] >= 0:
                    links[2 * (meta[b + C_TAIL] - lbase) + 1] = k
                else:
                    meta[b + C_HEAD] = k
                meta[b + C_TAIL] = k
                if meta[b + C_MARK] != stamp:
                    meta[b + C_MARK] = stamp
                    touched[nt] = c
                    nt += 1
    for k in range(nt):
        _push(t, touched[k])
    return nt


def purge_rows(
    t: CellTable, cover: array, head: int, stop: int, expired_upto: int
) -> int:
    """``maxrs_purge``: each cell covered by an expired row, once, in
    row order — reported when it holds an object, deleted when its
    newest row expired, else stripped of its expired pending links
    (and then stale); then the link table's expired prefix is compacted
    away once it is half the table."""
    state = t.state
    state[S_STAMP] += 1
    stamp = state[S_STAMP]
    meta = t.meta
    links = t.links
    lbase = state[S_LBASE]
    held = t.scratch
    n = 0
    for r in range(head, stop):
        i0, i1, j0, j1 = cover[4 * r:4 * r + 4]
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                c = _find(t, i, j)[0]
                if c < 0:
                    continue
                b = CF * c
                if meta[b + C_MARK] == stamp:
                    continue
                meta[b + C_MARK] = stamp
                if meta[b + C_HELD]:
                    held[n] = c
                    n += 1
                if meta[b + C_NEWEST] <= expired_upto:
                    _drop(t, c)
                    continue
                k = meta[b + C_HEAD]
                if k < 0 or links[2 * (k - lbase)] > expired_upto:
                    continue
                while k >= 0 and links[2 * (k - lbase)] <= expired_upto:
                    k = links[2 * (k - lbase) + 1]
                meta[b + C_HEAD] = k
                if k < 0:
                    meta[b + C_TAIL] = -1
                meta[b + C_STALE] = 1
    end = state[S_LEND]
    while (
        state[S_LLIVE] < end
        and links[2 * (state[S_LLIVE] - lbase)] <= expired_upto
    ):
        state[S_LLIVE] += 1
    dead = state[S_LLIVE] - lbase
    used = end - lbase
    if dead >= _COMPACT_MIN and 2 * dead >= used:
        links[:2 * (used - dead)] = links[2 * dead:2 * used]
        t.lw[:used - dead] = t.lw[dead:used]
        state[S_LBASE] = state[S_LLIVE]
    return n


def top(t: CellTable) -> int:
    """``maxrs_top``: the cell of the first live heap entry, dropping
    dead ones; ``-1`` when none is left.  A stale cell at the root is
    re-keyed at its live bound, and sinks when that is lower."""
    state = t.state
    while state[S_HEAP] > 0:
        if not _live(t, 0):
            _pop(t)
            continue
        c = t.hent[1]
        b = CF * c
        if not t.meta[b + C_STALE]:
            return c
        s = _live_bound(t, c)
        lower = s < t.cw[c]
        t.meta[b + C_STALE] = 0
        t.cw[c] = t.hcw[0] = s
        if not lower:
            return c
        _sift_down(t, 0, state[S_HEAP])
    return -1


def top_bound(t: CellTable) -> int:
    """``maxrs_top_bound``: entries tied with the root's bound form a
    subtree under the root, so only they are read; a stale one counts
    only if its live bound is the root's."""
    best = top(t)
    if best < 0:
        return best
    n = t.state[S_HEAP]
    bound = t.hcw[0]
    meta = t.meta
    stack = [1, 2]
    while stack:
        k = stack.pop()
        if k >= n or t.hcw[k] != bound:
            continue
        c = t.hent[2 * k + 1]
        if (
            (meta[CF * c + C_I], meta[CF * c + C_J])
            > (meta[CF * best + C_I], meta[CF * best + C_J])
            and _live(t, k)
            and (not meta[CF * c + C_STALE] or _live_bound(t, c) == bound)
        ):
            best = c
        stack += (2 * k + 1, 2 * k + 2)
    return best


def settle(t: CellTable, visited: array) -> None:
    """``maxrs_settle``: record the bound of every visited cell as its
    last-visit bound and push it, end the visit epoch, and rebuild the
    heap from the live cells once dead entries outnumber them."""
    for c in visited:
        t.vb[c] = t.cw[c]
        _push(t, c)
    state = t.state
    state[S_VSTAMP] += 1
    if state[S_HEAP] > 2 * state[S_COUNT]:
        size = 0
        meta = t.meta
        for c in range(state[S_HWM]):
            if meta[CF * c + C_RANK] < 0:
                continue
            t.hcw[size] = t.cw[c]
            t.hent[2 * size] = meta[CF * c + C_RANK]
            t.hent[2 * size + 1] = c
            size += 1
        state[S_HEAP] = size
        for k in range(size // 2 - 1, -1, -1):
            _sift_down(t, k, size)


# -- the CellTable methods that call the kernel, on the reference ------------


def _table_map(self: CellTable, table, start: int) -> None:
    self.reserve(table.pairs, len(table))
    map_rows(self, table.rows, table.cover, table.base, start, len(table.objs))


def _table_purge(self: CellTable, table, head: int, stop: int, upto: int):
    return self.scratch[:purge_rows(self, table.cover, head, stop, upto)]


def _table_take_pending(self: CellTable, c: int) -> array:
    """``maxrs_pending``: mark the cell visited, hand over its pending
    seqs and empty its list; the cell is no longer stale."""
    b = CF * c
    meta = self.meta
    meta[b + C_VISIT] = self.state[S_VSTAMP]
    meta[b + C_STALE] = 0
    lbase = self.state[S_LBASE]
    seqs = array("q", [self.links[2 * (k - lbase)] for k in _chain(self, c)])
    meta[b + C_HEAD] = meta[b + C_TAIL] = -1
    return seqs


def _table_settle(self: CellTable, visited: array) -> None:
    if self.state[S_HEAP] + len(visited) > self.hcap:
        self._grow_heap(_spare(self.state[S_HEAP] + len(visited)))
    settle(self, visited)


#: planesweep dispatcher name -> its reference
_DISPATCHERS = {
    "_sweep_flat": sweep_flat,
    "_topk_flat": topk_flat,
    "_scan_flat": scan_flat,
    "_insert_flat": insert_flat,
    "_local_flat": local_flat,
    "_cell_flat": cell_flat,
    "_max_flat": max_flat,
    "_above_flat": above_flat,
}

_TABLE_METHODS = {
    "map": _table_map,
    "purge": _table_purge,
    "take_pending": _table_take_pending,
    "top": top,
    "top_bound": top_bound,
    "settle": _table_settle,
}


def use_reference(mp: pytest.MonkeyPatch) -> None:
    """Swap the reference in for every kernel call until ``mp`` undoes
    it: each binding of a dispatcher in a loaded ``repro`` module (found
    by identity, so a module that imported one by name is covered too),
    and the kernel-calling :class:`CellTable` methods."""
    swaps = {
        id(getattr(planesweep, name)): ref
        for name, ref in _DISPATCHERS.items()
    }
    swaps[id(cells.route_rows)] = route_rows
    swaps[id(guard.admit_records)] = admit_records
    swaps[id(objects.pack_columns)] = pack_columns
    swaps[id(objects.json_ints)] = ints
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            ref = swaps.get(id(value))
            if ref is not None:
                mp.setattr(module, attr, ref)
    for name, ref in _TABLE_METHODS.items():
        mp.setattr(CellTable, name, ref)


@contextmanager
def reference_kernel() -> Iterator[None]:
    """Run the body on the Python reference instead of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        use_reference(mp)
        yield


def on_reference(fn, *args):
    """``fn(*args)`` on the Python reference."""
    with reference_kernel():
        return fn(*args)
