"""Plane-sweep MaxRS solvers (the paper's §3 building block).

Implements the optimal O(n log n) in-memory algorithm of Nandy &
Bhattacharya [18] / Imai & Asano [12]: sweep a horizontal line from the
bottom to the top of a set of weighted rectangles while a
:class:`~repro.core.segment_tree.MaxCoverSegmentTree` tracks the total
weight covering each elementary x-interval.  Entry points:

* :func:`plane_sweep_max` — the classic one-shot MaxRS over a rectangle
  set; this is what the *naive* baseline re-runs from scratch per batch.
* :func:`plane_sweep_topk` — single-sweep top-k: one candidate per
  insertion event (range-max over the inserted rectangle's span),
  de-duplicated by arrangement cell.  Its top-1 equals
  ``plane_sweep_max``; see DESIGN.md §1 for lower-rank semantics.
* :func:`local_plane_sweep` — the paper's ``Local-Plane-Sweep(N(ri) ∪
  {ri})``: neighbours are clipped to the anchor rectangle so the result
  is the best space *on* the anchor, which is how G2/aG2 compute ``si``.
* :func:`local_plane_sweep_cached` — the same sweep of one
  :class:`~repro.core.graph.Vertex`, read straight from its cell's flat
  buffer: N(ri) is gathered from the buffer past the vertex, clipped
  and swept in one call, and only the answer becomes a
  :class:`~repro.core.spaces.Region`.  Nothing is cached any more; the
  name stays because the end-to-end benchmark's frozen tracer patches
  it as the boundary of one local sweep.

Reported regions are elementary cells of the sweep arrangement: a
sub-rectangle of the (possibly wider) maximal-weight space.  Every
interior point attains the reported weight, which is all MaxRS needs.

Hot path (docs/PERFORMANCE.md §1-§2): one compiled C library,
``_sweep.c``, runs every max sweep (``maxrs_sweep``, a port of
:func:`_prepare`, :meth:`MaxCoverSegmentTree.add` and the group loop of
:func:`_sweep_python` that returns the same answer bit for bit) and the
graph cells' buffer work: ``maxrs_connect`` (the overlap scan of one
rectangle, :func:`_scan_python`), ``maxrs_insert`` (``CellGraph.connect``
of a whole pending set: copy the rows in, then one overlap scan per new
row, :func:`_insert_python`), ``maxrs_local`` (gather, clip and sweep,
:func:`_local_python`), ``maxrs_max`` and ``maxrs_above`` (the bound
scans of ``CellGraph``).  Each has one dispatcher here
(``_sweep_flat``, ``_scan_flat``, ``_insert_flat``, ``_local_flat``,
``_max_flat``, ``_above_flat``) and nothing else reads ``_KERNEL``.  Items are a
flat ``array('d')`` of 5 doubles each, ``(x1, y1, x2, y2, weight)`` —
the layout of a graph cell's buffer, so a call passes a pointer and a
count.  The library is compiled with gcc on first import into a
per-user cache and loaded with :mod:`ctypes`.  Without a compiler, or
when building or loading fails, ``_KERNEL`` is ``None`` and the Python
code below runs instead: it is the reference and the fallback, and it
does the same work in the same order.  Its sweep events are 6-tuples
``(y, kind, seq, lo_slot, hi_slot, weight)`` sorted natively (``seq``
reproduces the stable-sort tie order), and it borrows a pooled segment
tree via :func:`_acquire_tree` / :func:`_release_tree`.
"""

from __future__ import annotations

import os
import shutil
import sysconfig
import tempfile
import warnings
from array import array
from bisect import bisect_left
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.core.geometry import Rect
from repro.core.objects import WeightedRect
from repro.core.segment_tree import MaxCoverSegmentTree
from repro.core.spaces import Region
from repro.errors import InvalidParameterError

try:  # CPython's own SHA-256; hashlib's OpenSSL adds ~3.7 MiB of RSS
    from _sha256 import sha256  # Python <= 3.11
except ImportError:  # pragma: no cover - depends on the Python version
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:  # graph imports this module; annotation only
    from repro.core.graph import Vertex

__all__ = [
    "plane_sweep_max",
    "plane_sweep_topk",
    "local_plane_sweep",
    "local_plane_sweep_cached",
    "local_plane_sweep_items",
    "sweep_items_max",
]

_REMOVE = 0
_INSERT = 1

#: result of a flat sweep: ``(weight, x1, y1, x2, y2)``
_Cell = Sequence[float]

# -- the compiled kernel -----------------------------------------------

_C_SOURCE = Path(__file__).with_name("_sweep.c")
#: no fast-math and no fused multiply-add: each double add must round
#: exactly as CPython's float add does
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _cache_dir() -> Path:
    """The per-user directory the compiled kernel is cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    if not os.path.isabs(base):  # never a cache relative to the working dir
        raise OSError(f"no per-user cache directory (got {base!r})")
    return Path(base) / "repro-maxrs"


def _build(target: Path) -> None:
    """Compile ``_sweep.c`` to ``target``, atomically; raises ``OSError``
    on any failure."""
    import subprocess

    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (gcc or cc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=_EXT_SUFFIX, dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_C_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{cc} could not build {_C_SOURCE.name}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _kernel_name() -> str:
    """The cached library's file name: a SHA-256 of the C source, the
    flags and the interpreter's extension suffix."""
    digest = sha256(_C_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(_EXT_SUFFIX.encode())
    return f"_sweep-{digest.hexdigest()[:16]}{_EXT_SUFFIX}"


class _Kernel(NamedTuple):
    """The compiled library's entry points (see ``_sweep.c``)."""

    sweep: object
    connect: object
    insert: object
    local: object
    max: object
    above: object


def _open(path: Path) -> _Kernel:
    """Load the library at ``path`` and bind every entry point; raises
    ``OSError`` or ``AttributeError`` when it does not load or lacks
    one, so a library is used whole or not at all."""
    import ctypes

    # PyDLL keeps the GIL for the call, so no other thread can resize a
    # cell's buffer while the kernel reads it
    library = ctypes.PyDLL(str(path))
    ptr, long_ = ctypes.c_void_p, ctypes.c_long
    kernel = _Kernel(
        library.maxrs_sweep,
        library.maxrs_connect,
        library.maxrs_insert,
        library.maxrs_local,
        library.maxrs_max,
        library.maxrs_above,
    )
    kernel.sweep.argtypes = (ptr, long_, ptr)
    kernel.sweep.restype = ctypes.c_int
    kernel.connect.argtypes = (ptr, long_, long_, long_, ptr, ptr, ptr)
    kernel.connect.restype = long_
    kernel.insert.argtypes = (
        ptr, long_, ptr, long_, ptr, long_, long_, ptr, ptr, ptr, ptr
    )
    kernel.insert.restype = long_
    kernel.local.argtypes = (ptr, long_, long_, ptr)
    kernel.local.restype = ctypes.c_int
    kernel.max.argtypes = (ptr, long_)
    kernel.max.restype = ctypes.c_double
    kernel.above.argtypes = (
        ptr, long_, long_, ctypes.c_double, ctypes.c_double
    )
    kernel.above.restype = long_
    return kernel


def _load_kernel() -> _Kernel | None:
    """The compiled entry points, or ``None``.

    Loads the cached library, building it first when missing, and
    rebuilds it once when a cached file does not load (damaged, or
    built on a host with another C library).  On any failure after
    that it warns and leaves the Python code in charge.
    """
    try:
        path = _cache_dir() / _kernel_name()
        built = not path.exists()
        if built:
            _build(path)
        try:
            return _open(path)
        except (OSError, AttributeError):
            if built:
                raise
            _build(path)
            return _open(path)
    except (ImportError, OSError, AttributeError) as exc:
        warnings.warn(
            f"compiled sweep kernel unavailable ({exc}); "
            "sweeps run on the slower Python segment tree",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


#: resolved once, at import, never inside a timed update; ``None``
#: selects the Python code for every entry point (tests set it so)
_KERNEL = _load_kernel()
#: initial contents of the kernel's per-call output buffer
_OUT = (0.0,) * 5


def sweep_kernel() -> str:
    """``"compiled"`` when the C kernel runs the max sweeps, else
    ``"python"`` (bench documents record it)."""
    return "python" if _KERNEL is None else "compiled"


def _sweep_flat(buf: array) -> _Cell | None:
    """``(weight, x1, y1, x2, y2)`` of a maximum-weight cell of the flat
    items in ``buf``, or ``None`` when no item has positive area."""
    kernel = _KERNEL
    if kernel is None:
        return _sweep_python(buf)
    out = array("d", _OUT)
    found = kernel.sweep(
        buf.buffer_info()[0], len(buf) // 5, out.buffer_info()[0]
    )
    if found < 0:
        raise MemoryError("plane sweep kernel out of memory")
    return out if found else None


def _address(buf: array | None) -> int | None:
    return None if buf is None else buf.buffer_info()[0]


def _scan_flat(
    items: array,
    q: int,
    lo: int,
    hi: int,
    upper: array | None,
    dirty: array | None,
    hits: array | None,
) -> int:
    """``maxrs_connect``, or :func:`_scan_python` without the kernel."""
    kernel = _KERNEL
    if kernel is None:
        return _scan_python(items, q, lo, hi, upper, dirty, hits)
    return kernel.connect(
        items.buffer_info()[0], q, lo, hi,
        _address(upper), _address(dirty), _address(hits),
    )


def _insert_flat(
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
    """``maxrs_insert``, or :func:`_insert_python` without the kernel."""
    kernel = _KERNEL
    if kernel is None:
        return _insert_python(
            table, base, seqs, items, head, n, upper, exact, dirty, hits
        )
    return kernel.insert(
        table.buffer_info()[0], base, seqs.buffer_info()[0], len(seqs),
        items.buffer_info()[0], head, n, upper.buffer_info()[0],
        exact.buffer_info()[0], dirty.buffer_info()[0], _address(hits),
    )


def _max_flat(values: array, lo: int) -> float:
    """``max(values[lo:])``, the first of equal maxima; ``0.0`` when
    empty."""
    kernel = _KERNEL
    if kernel is None:
        return max(values[lo:], default=0.0)
    return kernel.max(values.buffer_info()[0] + 8 * lo, len(values) - lo)


def _above_flat(values: array, lo: int, relax: float, rho: float) -> int:
    """The first index ``j ≥ lo`` with ``relax * values[j] > rho``, or
    ``len(values)``."""
    kernel = _KERNEL
    n = len(values)
    if kernel is None:
        for j in range(lo, n):
            if relax * values[j] > rho:
                return j
        return n
    return kernel.above(values.buffer_info()[0], lo, n, relax, rho)


def _local_flat(items: array, i: int, n: int) -> _Cell | None:
    """The sweep of flat item ``i`` with its neighbours clipped to it
    (see :func:`_local_python`), or ``None`` when it has none."""
    kernel = _KERNEL
    if kernel is None:
        return _local_python(items, i, n)
    out = array("d", _OUT)
    found = kernel.local(items.buffer_info()[0], i, n, out.buffer_info()[0])
    if found < 0:
        raise MemoryError("plane sweep kernel out of memory")
    return out if found else None


def _pack(items: Iterable[tuple[Rect, float]]) -> array:
    """``(rect, weight)`` pairs as a flat ``array('d')``, 5 per item."""
    return array(
        "d", [v for r, w in items for v in (r.x1, r.y1, r.x2, r.y2, w)]
    )


# -- the Python tree: reference and fallback ------------------------------

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


def _prepare(
    buf: array,
) -> tuple[list[float], list[tuple[float, int, int, int, int, float]]] | None:
    """Build the slot coordinate array and the y-sorted event list.

    Returns ``None`` when no item has positive area.  Each event is
    ``(y, kind, seq, lo_slot, hi_slot, weight)``; removals sort before
    insertions at equal ``y`` so that every queried strip has positive
    height (strict-interior semantics), and the per-rectangle ``seq``
    makes the native tuple sort reproduce input order on (y, kind) ties.
    """
    xs_all: list[float] = []
    push_x = xs_all.append
    live: list[int] = []
    push_live = live.append
    for i in range(0, len(buf), 5):
        x1 = buf[i]
        x2 = buf[i + 2]
        if x1 == x2 or buf[i + 1] == buf[i + 3]:  # empty interior
            continue
        push_live(i)
        push_x(x1)
        push_x(x2)
    if not live:
        return None
    xs_all.sort()
    xs = [xs_all[0]]
    push_slot = xs.append
    prev = xs_all[0]
    for x in xs_all:
        if x != prev:
            push_slot(x)
            prev = x
    events: list[tuple[float, int, int, int, int, float]] = []
    push_event = events.append
    seq = 0
    for i in live:
        lo = bisect_left(xs, buf[i])
        hi = bisect_left(xs, buf[i + 2]) - 1
        w = buf[i + 4]
        push_event((buf[i + 1], _INSERT, seq, lo, hi, w))
        push_event((buf[i + 3], _REMOVE, seq, lo, hi, w))
        seq += 1
    events.sort()
    return xs, events


def _iter_y_groups(
    events: list[tuple[float, int, int, int, int, float]],
    tree: MaxCoverSegmentTree,
) -> Iterable[tuple[float, float, list[tuple[int, int]]]]:
    """Apply events group-by-group; yield ``(y, y_next, inserted_spans)``
    after each group that performed at least one insertion."""
    n = len(events)
    i = 0
    add = tree.add
    while i < n:
        y = events[i][0]
        inserted: list[tuple[int, int]] = []
        push = inserted.append
        while i < n and events[i][0] == y:
            ev = events[i]
            lo = ev[3]
            hi = ev[4]
            if ev[1]:
                add(lo, hi, ev[5])
                push((lo, hi))
            else:
                add(lo, hi, -ev[5])
            i += 1
        if inserted and i < n:
            yield y, events[i][0], inserted


def _sweep_python(buf: array) -> _Cell | None:
    """The Python tree's answer to :func:`_sweep_flat`."""
    prepared = _prepare(buf)
    if prepared is None:
        return None
    xs, events = prepared
    tree = _acquire_tree(max(1, len(xs) - 1))
    try:
        mx = tree._mx  # root max/arg read per strip; skip property calls
        arg = tree._arg
        best_w = float("-inf")
        best: tuple[int, float, float] | None = None
        for y, y_next, _inserted in _iter_y_groups(events, tree):
            value = mx[1]
            if value > best_w:
                best_w = value
                best = (arg[1], y, y_next)
    finally:
        _release_tree(tree)
    if best is None:
        return None
    slot, y, y_next = best
    return best_w, xs[slot], y, xs[slot + 1], y_next


def sweep_items_max(
    items: Sequence[tuple[Rect, float]],
) -> tuple[float, Rect] | None:
    """Core sweep over ``(rect, weight)`` pairs.

    Returns ``(weight, region_rect)`` of a maximum-weight overlap space,
    or ``None`` when no rectangle has positive area.
    """
    cell = _sweep_flat(_pack(items))
    if cell is None:
        return None
    w, x1, y1, x2, y2 = cell
    return w, Rect(x1, y1, x2, y2)


def plane_sweep_max(rects: Sequence[WeightedRect]) -> Region | None:
    """One-shot exact MaxRS over a set of weighted rectangles.

    The returned region is an arrangement cell attaining the maximum
    range-sum; ``None`` iff ``rects`` contains no positive-area
    rectangle.
    """
    cell = _sweep_flat(_pack((wr.rect, wr.weight) for wr in rects))
    if cell is None:
        return None
    w, x1, y1, x2, y2 = cell
    return Region(rect=Rect(x1, y1, x2, y2), weight=w)


def plane_sweep_topk(rects: Sequence[WeightedRect], k: int) -> list[Region]:
    """Single-sweep top-k MaxRS (the Figure 11 naive baseline).

    At every sweep strip where insertions happened, each inserted
    rectangle contributes the best arrangement cell within its x-span as
    a candidate.  Candidates are de-duplicated by cell identity
    ``(slot, strip)`` and the ``k`` heaviest survive, best first.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    prepared = _prepare(_pack((wr.rect, wr.weight) for wr in rects))
    if prepared is None:
        return []
    xs, events = prepared
    tree = _acquire_tree(max(1, len(xs) - 1))
    try:
        range_max = tree.range_max
        # arrangement cell -> (weight, slot, y, y_next)
        candidates: dict[
            tuple[int, float], tuple[float, int, float, float]
        ] = {}
        get = candidates.get
        for y, y_next, inserted in _iter_y_groups(events, tree):
            for lo, hi in inserted:
                value, slot = range_max(lo, hi)
                key = (slot, y)
                prev = get(key)
                if prev is None or value > prev[0]:
                    candidates[key] = (value, slot, y, y_next)
    finally:
        _release_tree(tree)
    ranked = sorted(candidates.values(), key=lambda c: c[0], reverse=True)
    return [
        Region(rect=Rect(xs[slot], y, xs[slot + 1], y_next), weight=value)
        for value, slot, y, y_next in ranked[:k]
    ]


def _scan_python(
    items: array,
    q: int,
    lo: int,
    hi: int,
    upper: array | None,
    dirty: array | None,
    hits: array | None,
    at: int = 0,
) -> int:
    """The Python ``maxrs_connect``: visit every flat item ``j`` in
    ``[lo, hi)``, in index order, whose rectangle overlaps item ``q``'s
    (``Rect.overlaps``, inlined).  With ``upper``, add item ``q``'s
    weight to ``upper[j]`` and set ``dirty[j]``; with ``hits``, store
    ``j`` at ``hits[at + k]`` for the ``k``-th item.  Returns the
    count."""
    b = 5 * q
    x1 = items[b]
    y1 = items[b + 1]
    x2 = items[b + 2]
    y2 = items[b + 3]
    weight = items[b + 4]
    k = at
    if x1 == x2 or y1 == y2:  # a degenerate rectangle overlaps nothing
        return 0
    for j in range(lo, hi):
        b = 5 * j
        rx1 = items[b]
        ry1 = items[b + 1]
        rx2 = items[b + 2]
        ry2 = items[b + 3]
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


def _insert_python(
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
    """The Python ``maxrs_insert``: copy the table rows of ``seqs`` to
    items ``n, n + 1, ...`` (their bounds and exact weights start at the
    row's weight), then connect each new item in order to the older
    items ``[head, n + k)`` with :func:`_scan_python`, appending the
    touched indices to ``hits``.  Returns the number of edges."""
    for k, seq in enumerate(seqs):
        b = 5 * (seq - base)
        q = n + k
        items[5 * q:5 * q + 5] = table[b:b + 5]
        upper[q] = exact[q] = table[b + 4]
    edges = 0
    for q in range(n, n + len(seqs)):
        edges += _scan_python(items, q, head, q, upper, dirty, hits, edges)
    return edges


def _local_python(items: array, i: int, n: int) -> _Cell | None:
    """The Python ``maxrs_local``: gather the neighbours of flat item
    ``i`` — the items in ``(i, n)`` that overlap it — clip each to it,
    in index order, and sweep item ``i`` with the clips."""
    hits = array("q", bytes(8 * (n - i)))
    degree = _scan_python(items, i, i + 1, n, None, None, hits)
    b = 5 * i
    ax1 = items[b]
    ay1 = items[b + 1]
    ax2 = items[b + 2]
    ay2 = items[b + 3]
    buf = items[b:b + 5]
    push = buf.extend
    for k in range(degree):
        b = 5 * hits[k]
        x1 = items[b]
        y1 = items[b + 1]
        x2 = items[b + 2]
        y2 = items[b + 3]
        x1 = x1 if x1 > ax1 else ax1
        y1 = y1 if y1 > ay1 else ay1
        x2 = x2 if x2 < ax2 else ax2
        y2 = y2 if y2 < ay2 else ay2
        if x1 < x2 and y1 < y2:
            push((x1, y1, x2, y2, items[b + 4]))
    return _sweep_python(buf) if len(buf) > 5 else None


def _anchored(cell: _Cell | None, anchor: WeightedRect) -> Region:
    """The local sweep's answer as a region anchored at ``anchor``: the
    anchor itself when no neighbour (or nothing of positive area) was
    swept."""
    if cell is None:
        return Region(
            rect=anchor.rect, weight=anchor.weight, anchor_oid=anchor.oid
        )
    w, x1, y1, x2, y2 = cell
    return Region(rect=Rect(x1, y1, x2, y2), weight=w, anchor_oid=anchor.oid)


def local_plane_sweep(
    anchor: WeightedRect, neighbors: Sequence[WeightedRect]
) -> Region:
    """``Local-Plane-Sweep(N(ri) ∪ {ri})`` — best space on the anchor.

    Neighbour rectangles are clipped to the anchor's extent (the space
    ``si`` is by definition a subspace of ``ri``), then a sweep bounded
    to the anchor's y-range finds the heaviest overlap.  Neighbours that
    do not overlap the anchor are skipped.  With no overlapping
    neighbours the anchor's own extent and weight are returned.  The
    result carries ``anchor_oid`` so graph-based monitors can
    de-duplicate spaces by anchor (Property 1).
    """
    buf = _pack(
        chain(
            ((anchor.rect, anchor.weight),),
            ((nb.rect, nb.weight) for nb in neighbors),
        )
    )
    return local_plane_sweep_items(anchor, buf)


def local_plane_sweep_items(anchor: WeightedRect, items: array) -> Region:
    """:func:`local_plane_sweep` over flat items: the anchor's own row
    first, then its neighbours', 5 doubles each — the form a monitor
    that keeps explicit neighbour lists can append to per edge."""
    return _anchored(_local_flat(items, 0, len(items) // 5), anchor)


def local_plane_sweep_cached(vertex: "Vertex") -> Region:
    """:func:`local_plane_sweep` of a graph vertex over its N(ri).

    The vertex's cell buffer holds its rectangle and, after it, every
    newer rectangle of the cell in arrival order; N(ri) is the part of
    that suffix overlapping it (Property 3).  One kernel call gathers,
    clips and sweeps it, so the items are those
    ``local_plane_sweep(vertex.wr, vertex.neighbors)`` would build and
    the result is identical (tests assert it).  No ``WeightedRect`` is
    built: the answer's numbers come from the buffer and its anchor oid
    from the stored object.
    """
    graph = vertex.graph
    i = vertex.pos - graph.base
    cell = _local_flat(graph.items, i, len(graph.seqs))
    if cell is None:
        return graph.anchor_space(i)
    w, x1, y1, x2, y2 = cell
    return Region(
        rect=Rect(x1, y1, x2, y2), weight=w, anchor_oid=graph.objs[i].oid
    )
