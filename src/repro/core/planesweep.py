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
* :func:`local_plane_sweep_cached` — the same sweep driven from a graph
  :class:`~repro.core.graph.Vertex`, reusing the clipped-neighbour
  items computed by earlier sweeps of the same vertex (neighbour lists
  are append-only, so only the tail added since the last sweep needs
  clipping).

Reported regions are elementary cells of the sweep arrangement: a
sub-rectangle of the (possibly wider) maximal-weight space.  Every
interior point attains the reported weight, which is all MaxRS needs.

Hot path (docs/PERFORMANCE.md §1-§2): every max sweep runs one
compiled C kernel, ``_sweep.c``, a port of :func:`_prepare`,
:meth:`MaxCoverSegmentTree.add` and the group loop of
:func:`_sweep_python` that returns the same answer bit for bit.  Its
input is a flat ``array('d')`` of 5 doubles per item,
``(x1, y1, x2, y2, weight)``; a graph vertex keeps its clipped items in
such a buffer, so a re-sweep hands the kernel a pointer and a count.
The kernel is compiled with gcc on first import into a per-user cache
and loaded with :mod:`ctypes`.  Without a compiler, or when building or
loading fails, the Python tree below runs instead: it is the reference
and the fallback.  Its events are 6-tuples
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
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

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

if TYPE_CHECKING:  # graph imports nothing from here; annotation only
    from repro.core.graph import Vertex

__all__ = [
    "plane_sweep_max",
    "plane_sweep_topk",
    "local_plane_sweep",
    "local_plane_sweep_cached",
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


def _load_kernel():
    """The compiled ``maxrs_sweep`` entry point, or ``None``.

    Loads the cached library, building it first when missing, and
    rebuilds it once when a cached file does not load (damaged, or
    built on a host with another C library).  On any failure after
    that it warns and leaves the Python tree in charge.
    """
    try:
        import ctypes

        path = _cache_dir() / _kernel_name()
        built = not path.exists()
        if built:
            _build(path)
        # PyDLL keeps the GIL for the call, so no other thread can
        # resize a vertex's buffer while the kernel reads it
        try:
            library = ctypes.PyDLL(str(path))
        except OSError:
            if built:
                raise
            _build(path)
            library = ctypes.PyDLL(str(path))
        kernel = library.maxrs_sweep
    except (ImportError, OSError, AttributeError) as exc:
        warnings.warn(
            f"compiled sweep kernel unavailable ({exc}); "
            "sweeps run on the slower Python segment tree",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p)
    kernel.restype = ctypes.c_int
    return kernel


#: resolved once, at import, never inside a timed update
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
    found = kernel(buf.buffer_info()[0], len(buf) // 5, out.buffer_info()[0])
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


def _clip_into(
    buf: array, anchor: Rect, neighbors: Sequence[WeightedRect], start: int
) -> None:
    """Append ``(nb ∩ anchor, w)`` for ``neighbors[start:]`` to ``buf``,
    skipping empty clips."""
    ax1 = anchor.x1
    ay1 = anchor.y1
    ax2 = anchor.x2
    ay2 = anchor.y2
    push = buf.extend
    for idx in range(start, len(neighbors)):
        nb = neighbors[idx]
        r = nb.rect
        x1 = r.x1 if r.x1 > ax1 else ax1
        y1 = r.y1 if r.y1 > ay1 else ay1
        x2 = r.x2 if r.x2 < ax2 else ax2
        y2 = r.y2 if r.y2 < ay2 else ay2
        if x1 < x2 and y1 < y2:
            push((x1, y1, x2, y2, nb.weight))


def _anchor_buf(anchor: WeightedRect) -> array:
    r = anchor.rect
    return array("d", (r.x1, r.y1, r.x2, r.y2, anchor.weight))


def _sweep_clipped(anchor: WeightedRect, buf: array) -> Region:
    cell = _sweep_flat(buf) if len(buf) > 5 else None
    if cell is None:  # no clipped neighbour, or nothing of positive area
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
    to the anchor's y-range finds the heaviest overlap.  With no
    overlapping neighbours the anchor's own extent and weight are
    returned.  The result carries ``anchor_oid`` so graph-based monitors
    can de-duplicate spaces by anchor (Property 1).
    """
    buf = _anchor_buf(anchor)
    _clip_into(buf, anchor.rect, neighbors, 0)
    return _sweep_clipped(anchor, buf)


def local_plane_sweep_cached(vertex: "Vertex") -> Region:
    """:func:`local_plane_sweep` over a graph vertex, reusing clips.

    A vertex's neighbour list is append-only while it is alive
    (Property 3: expiry removes whole vertices, never edges), so the
    clipped items of neighbours already processed by a previous sweep
    of the same vertex are still valid.  They live in the vertex's flat
    ``clip_items`` buffer, anchor first; only ``neighbors[clip_upto:]``
    — the arrivals since the last sweep — are clipped here.  The result
    is identical to the uncached reference (tests assert it).
    """
    anchor = vertex.wr
    buf = vertex.clip_items
    if buf is None:
        buf = vertex.clip_items = _anchor_buf(anchor)
    neighbors = vertex.neighbors
    start = vertex.clip_upto
    if start < len(neighbors):
        _clip_into(buf, anchor.rect, neighbors, start)
        vertex.clip_upto = len(neighbors)
    return _sweep_clipped(anchor, buf)
