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

Hot-path notes (docs/PERFORMANCE.md): events are 6-tuples
``(y, kind, seq, lo_slot, hi_slot, weight)`` sorted *natively* — the
``seq`` component reproduces the stable-sort tie order a ``key=``
lambda used to provide, without calling back into Python per
comparison — and sweeps borrow a pooled segment tree via
:func:`_acquire_tree` / :func:`_release_tree` instead of allocating
three ``O(n)`` lists per sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.geometry import Rect
from repro.core.objects import WeightedRect
from repro.core.segment_tree import MaxCoverSegmentTree
from repro.core.spaces import Region
from repro.errors import InvalidParameterError

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
    items: Sequence[tuple[Rect, float]],
) -> tuple[list[float], list[tuple[float, int, int, int, int, float]]] | None:
    """Build the slot coordinate array and the y-sorted event list.

    Returns ``None`` when no rectangle has positive area.  Each event is
    ``(y, kind, seq, lo_slot, hi_slot, weight)``; removals sort before
    insertions at equal ``y`` so that every queried strip has positive
    height (strict-interior semantics), and the per-rectangle ``seq``
    makes the native tuple sort reproduce input order on (y, kind) ties.
    """
    xs_all: list[float] = []
    push_x = xs_all.append
    live: list[tuple[Rect, float]] = []
    push_live = live.append
    for rect, w in items:
        x1 = rect.x1
        x2 = rect.x2
        if x1 == x2 or rect.y1 == rect.y2:  # degenerate: empty interior
            continue
        push_live((rect, w))
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
    for rect, w in live:
        lo = bisect_left(xs, rect.x1)
        hi = bisect_left(xs, rect.x2) - 1
        push_event((rect.y1, _INSERT, seq, lo, hi, w))
        push_event((rect.y2, _REMOVE, seq, lo, hi, w))
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


def sweep_items_max(
    items: Sequence[tuple[Rect, float]],
) -> tuple[float, Rect] | None:
    """Core sweep over ``(rect, weight)`` pairs.

    Returns ``(weight, region_rect)`` of a maximum-weight overlap space,
    or ``None`` when no rectangle has positive area.
    """
    prepared = _prepare(items)
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
    return best_w, Rect(xs[slot], y, xs[slot + 1], y_next)


def plane_sweep_max(rects: Sequence[WeightedRect]) -> Region | None:
    """One-shot exact MaxRS over a set of weighted rectangles.

    The returned region is an arrangement cell attaining the maximum
    range-sum; ``None`` iff ``rects`` contains no positive-area
    rectangle.
    """
    result = sweep_items_max([(wr.rect, wr.weight) for wr in rects])
    if result is None:
        return None
    weight, rect = result
    return Region(rect=rect, weight=weight)


def plane_sweep_topk(rects: Sequence[WeightedRect], k: int) -> list[Region]:
    """Single-sweep top-k MaxRS (the Figure 11 naive baseline).

    At every sweep strip where insertions happened, each inserted
    rectangle contributes the best arrangement cell within its x-span as
    a candidate.  Candidates are de-duplicated by cell identity
    ``(slot, strip)`` and the ``k`` heaviest survive, best first.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    prepared = _prepare([(wr.rect, wr.weight) for wr in rects])
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


def _clip_items(
    anchor: WeightedRect, neighbors: Sequence[WeightedRect]
) -> list[tuple[Rect, float]]:
    """``[(anchor, w)] + [(nb ∩ anchor, w) ...]`` skipping empty clips."""
    rect = anchor.rect
    ax1 = rect.x1
    ay1 = rect.y1
    ax2 = rect.x2
    ay2 = rect.y2
    items: list[tuple[Rect, float]] = [(rect, anchor.weight)]
    push = items.append
    for nb in neighbors:
        r = nb.rect
        x1 = r.x1 if r.x1 > ax1 else ax1
        y1 = r.y1 if r.y1 > ay1 else ay1
        x2 = r.x2 if r.x2 < ax2 else ax2
        y2 = r.y2 if r.y2 < ay2 else ay2
        if x1 < x2 and y1 < y2:
            push((Rect(x1, y1, x2, y2), nb.weight))
    return items


def _sweep_clipped(
    anchor: WeightedRect, items: list[tuple[Rect, float]]
) -> Region:
    if len(items) == 1:
        return Region(
            rect=anchor.rect, weight=anchor.weight, anchor_oid=anchor.oid
        )
    result = sweep_items_max(items)
    if result is None:  # anchor degenerate and nothing else: weight only
        return Region(
            rect=anchor.rect, weight=anchor.weight, anchor_oid=anchor.oid
        )
    weight, rect = result
    return Region(rect=rect, weight=weight, anchor_oid=anchor.oid)


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
    return _sweep_clipped(anchor, _clip_items(anchor, neighbors))


def local_plane_sweep_cached(vertex: "Vertex") -> Region:
    """:func:`local_plane_sweep` over a graph vertex, reusing clips.

    A vertex's neighbour list is append-only while it is alive
    (Property 3: expiry removes whole vertices, never edges), so the
    clipped ``(Rect, weight)`` items of neighbours already processed by
    a previous sweep of the same vertex are still valid.  Only
    ``neighbors[clip_upto:]`` — the arrivals since the last sweep — are
    clipped here; the result is identical to the uncached reference
    (tests assert it item-for-item).
    """
    anchor = vertex.wr
    items = vertex.clip_items
    if items is None:
        items = vertex.clip_items = [(anchor.rect, anchor.weight)]
    neighbors = vertex.neighbors
    start = vertex.clip_upto
    if start < len(neighbors):
        rect = anchor.rect
        ax1 = rect.x1
        ay1 = rect.y1
        ax2 = rect.x2
        ay2 = rect.y2
        push = items.append
        for idx in range(start, len(neighbors)):
            r = neighbors[idx].rect
            x1 = r.x1 if r.x1 > ax1 else ax1
            y1 = r.y1 if r.y1 > ay1 else ay1
            x2 = r.x2 if r.x2 < ax2 else ax2
            y2 = r.y2 if r.y2 < ay2 else ay2
            if x1 < x2 and y1 < y2:
                push((Rect(x1, y1, x2, y2), neighbors[idx].weight))
        vertex.clip_upto = len(neighbors)
    return _sweep_clipped(anchor, items)
