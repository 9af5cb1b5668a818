"""Skew-adaptive quadtree index and the quadtree-backed aG2 monitor.

The uniform grid of ``repro.core.grid`` assigns every dual rectangle to
fixed-size cells.  Under heavy spatial skew (the Geolife-style hotspot
workloads) a handful of cells absorb most of the stream: their overlap
graphs grow to hundreds of vertices, every ``OverlapComputation``
re-tests O(k²) pairs and every ``Local-Plane-Sweep`` drags a huge
neighbour list — the committed benchmarks show aG2 collapsing from ~16x
naive on uniform data to ~2x on the gaussian workload.

:class:`QuadtreeIndex` replaces the flat grid with a *forest of lazy
quadtrees*: the plane is tiled by coarse top-level tiles (pure
coordinate arithmetic, exactly like the uniform grid), and any tile may
be recursively split into four quadrants.  The index stores only the
set of split nodes — unsplit tiles are implicit, so the structure costs
nothing where the stream never goes.  Leaves form an exact partition of
the plane (shared edges are computed with identical arithmetic at every
level), which preserves the grid's key guarantee: two overlapping
rectangles always share at least one leaf, so the per-leaf overlap
graphs collectively capture every overlap no matter how the tree is
shaped.

:class:`QuadtreeAG2Monitor` drives the unmodified aG2 branch-and-bound
(heap-ordered cell visits, Rules 1–4, the dual-rect and
clipped-neighbour caches) over quadtree leaves instead of grid cells.
Its split/merge policy is load-adaptive:

* every leaf tracks a *decayed arrival load* — an exponentially decayed
  count of arrivals routed to it (``load ← load·decay^Δt + 1``);
* a leaf **splits** when its occupancy exceeds ``split_occupancy`` (or
  its decayed load exceeds ``split_load`` while holding more than
  ``merge_occupancy`` entries), until the leaf side would drop below
  ``min_leaf_size``;
* four sibling leaves **merge** back when their combined unique
  occupancy falls to ``merge_occupancy`` *and* their combined decayed
  load has cooled below ``merge_load`` — the load condition is the
  hysteresis that stops a still-hot but momentarily expired region from
  thrashing as a hotspot drifts across it.

Split and merge both *demote* the affected entries to the cell's
pending set ``R`` (the paper's lines 1–5 state), with the cell bound
reset to the pending weight sum — a valid Equation (5) bound.  The next
time the branch-and-bound actually visits the leaf, ``OverlapComputation``
rebuilds the per-leaf graph in arrival order, which makes a rebuilt
leaf byte-identical to the cell a uniform grid of that leaf's geometry
would have maintained all along (the hypothesis differentials in
``tests/test_quadtree_property.py`` pin this).  Restructuring therefore
never computes overlap work eagerly; cold leaves pay nothing until
Rule 1 fails to prune them.

Cache invalidation: cell covers are memoised per *top-level tile* keyed
by a tile version counter that bumps on every split/merge beneath the
tile — restructuring one hotspot invalidates only its own subtree's
covers, never the whole domain (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.core.ag2 import AG2Cell, AG2Monitor, Tightener
from repro.core.grid import _axis_cells, default_cell_size
from repro.core.objects import WeightedRect, dual_rect
from repro.errors import InvalidParameterError, InvariantViolationError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = [
    "QuadKey",
    "QuadtreeIndex",
    "QuadAG2Cell",
    "QuadtreeAG2Monitor",
    "default_tile_size",
]

#: quadtree node address: (level, ix, iy) — global integer coordinates
#: at that level; the level-l grid has cells of side tile_size / 2**l.
QuadKey = Tuple[int, int, int]

#: cover-cache entries kept before a wholesale clear; entries are a
#: handful of small tuples each, so this bounds memory at a few MB.
_COVER_CACHE_MAX = 32768


def default_tile_size(rect_width: float, rect_height: float) -> float:
    """Default top-level tile side: four uniform-grid cells across.

    The tile is the *coarsest* resolution the adaptive index can serve;
    8× the larger query side keeps an unsplit tile no worse than a few
    uniform cells while leaving three split levels above the
    query-sized leaf floor.
    """
    return 4.0 * default_cell_size(rect_width, rect_height)


class QuadtreeIndex:
    """A forest of lazily split quadtrees over an unbounded plane.

    Only the set of *split* nodes is stored; any tile (or child of a
    split node) that is not itself split is a leaf.  All geometry is
    derived arithmetic: the cell at ``(level, ix, iy)`` spans
    ``[origin + ix·side, origin + (ix+1)·side]`` with
    ``side = tile_size / 2**level`` — the multiplication form is used
    everywhere so shared edges are bit-identical across levels and the
    leaves partition the plane exactly.
    """

    __slots__ = (
        "tile_size",
        "origin_x",
        "origin_y",
        "min_leaf_size",
        "max_level",
        "_split",
        "_tile_version",
        "_cover_cache",
        "_tile_counts",
        "_tile_uniform",
    )

    def __init__(
        self,
        tile_size: float,
        min_leaf_size: float,
        origin_x: float = 0.0,
        origin_y: float = 0.0,
    ) -> None:
        if not tile_size > 0:
            raise InvalidParameterError(
                f"tile size must be positive, got {tile_size}"
            )
        if not 0 < min_leaf_size <= tile_size:
            raise InvalidParameterError(
                f"min leaf size must be in (0, tile_size], got {min_leaf_size}"
            )
        self.tile_size = float(tile_size)
        self.origin_x = float(origin_x)
        self.origin_y = float(origin_y)
        self.min_leaf_size = float(min_leaf_size)
        # deepest level whose cells are still >= min_leaf_size on a side
        level = 0
        side = self.tile_size
        while side / 2.0 >= self.min_leaf_size:
            side /= 2.0
            level += 1
        self.max_level = level
        self._split: Set[QuadKey] = set()
        self._tile_version: dict[Tuple[int, int], int] = {}
        self._cover_cache: dict[tuple, Tuple[QuadKey, ...]] = {}
        # per-tile split-node count at each level, and the derived
        # "uniformly split to depth d" summary (-1 = mixed depths);
        # a tile whose subtree is a complete 4^d partition resolves
        # covers with grid arithmetic at level d instead of a descent
        self._tile_counts: dict[Tuple[int, int], List[int]] = {}
        self._tile_uniform: dict[Tuple[int, int], int] = {}

    # -- geometry --------------------------------------------------------

    def cell_side(self, level: int) -> float:
        return self.tile_size / (1 << level)

    def cell_bounds(self, key: QuadKey) -> Tuple[float, float, float, float]:
        """``(x1, y1, x2, y2)`` of a node, edge-consistent across levels."""
        level, ix, iy = key
        side = self.tile_size / (1 << level)
        return (
            self.origin_x + ix * side,
            self.origin_y + iy * side,
            self.origin_x + (ix + 1) * side,
            self.origin_y + (iy + 1) * side,
        )

    @staticmethod
    def parent(key: QuadKey) -> QuadKey:
        level, ix, iy = key
        if level == 0:
            raise InvalidParameterError("top-level tiles have no parent")
        return (level - 1, ix >> 1, iy >> 1)

    @staticmethod
    def children(key: QuadKey) -> Tuple[QuadKey, QuadKey, QuadKey, QuadKey]:
        level, ix, iy = key
        cl = level + 1
        cx = ix << 1
        cy = iy << 1
        return (
            (cl, cx, cy),
            (cl, cx + 1, cy),
            (cl, cx, cy + 1),
            (cl, cx + 1, cy + 1),
        )

    # -- structure -------------------------------------------------------

    def is_split(self, key: QuadKey) -> bool:
        return key in self._split

    def can_split(self, key: QuadKey) -> bool:
        return key[0] < self.max_level

    @property
    def split_count(self) -> int:
        """Number of internal (split) nodes — 0 means a flat grid."""
        return len(self._split)

    def split(self, key: QuadKey) -> None:
        """Mark a leaf as split (its four children become leaves)."""
        if key in self._split:
            raise InvalidParameterError(f"node {key} is already split")
        if not self.can_split(key):
            raise InvalidParameterError(
                f"node {key} is at the minimum leaf size"
            )
        self._split.add(key)
        self._bump_tile(key, +1)

    def merge(self, key: QuadKey) -> None:
        """Unsplit a node whose four children are all leaves."""
        if key not in self._split:
            raise InvalidParameterError(f"node {key} is not split")
        if any(child in self._split for child in self.children(key)):
            raise InvalidParameterError(
                f"node {key} has split children; merge bottom-up"
            )
        self._split.remove(key)
        self._bump_tile(key, -1)

    def _bump_tile(self, key: QuadKey, delta: int) -> None:
        level, ix, iy = key
        tile = (ix >> level, iy >> level)
        self._tile_version[tile] = self._tile_version.get(tile, 0) + 1
        counts = self._tile_counts.get(tile)
        if counts is None:
            counts = [0] * self.max_level
            self._tile_counts[tile] = counts
        counts[level] += delta
        # uniform depth: largest d with a complete 4^l split at every
        # level above it and nothing below — covers then reduce to one
        # grid-arithmetic range at level d (the mapping fast path)
        depth = 0
        while depth < self.max_level and counts[depth] == 1 << (2 * depth):
            depth += 1
        if any(counts[level] for level in range(depth, self.max_level)):
            depth = -1
        self._tile_uniform[tile] = depth

    # -- queries ---------------------------------------------------------

    def cell_keys(self, rect) -> Tuple[QuadKey, ...]:
        """Current leaves whose interior intersects the rectangle's.

        Same strict-interior semantics as
        :meth:`repro.core.grid.UniformGrid.cell_keys`: degenerate
        rectangles cover nothing, measure-zero contact does not count.

        A tile that is *uniformly* split to depth ``d`` (hot regions
        settle into complete 4^d partitions) resolves with the same
        float-guarded range arithmetic as the uniform grid, at cell
        side ``tile_size / 2^d`` — no tree walk.  Only tiles with mixed
        leaf depths descend, and those covers are memoised per (tile,
        structure version, rectangle), so a split/merge invalidates
        only its own tile's entries.
        """
        if rect.x1 == rect.x2 or rect.y1 == rect.y2:
            return ()
        rx1 = rect.x1
        ry1 = rect.y1
        rx2 = rect.x2
        ry2 = rect.y2
        ox = self.origin_x
        oy = self.origin_y
        out: List[QuadKey] = []
        split = self._split
        uniform = self._tile_uniform
        tile_size = self.tile_size
        for i in _axis_cells(rx1, rx2, ox, tile_size):
            for j in _axis_cells(ry1, ry2, oy, tile_size):
                if (0, i, j) not in split:
                    out.append((0, i, j))
                    continue
                depth = uniform[(i, j)]
                if depth < 0:
                    out.extend(self._tile_cover((0, i, j), rect))
                    continue
                side = tile_size / (1 << depth)
                xr = _axis_cells(rx1, rx2, ox, side)
                yr = _axis_cells(ry1, ry2, oy, side)
                x_lo = max(xr.start, i << depth)
                x_hi = min(xr.stop, (i + 1) << depth)
                y_lo = max(yr.start, j << depth)
                y_hi = min(yr.stop, (j + 1) << depth)
                for ix in range(x_lo, x_hi):
                    for iy in range(y_lo, y_hi):
                        out.append((depth, ix, iy))
        return tuple(out)

    def _tile_cover(self, tile: QuadKey, rect) -> Tuple[QuadKey, ...]:
        """Leaves of one *split* tile overlapping ``rect`` (cached)."""
        cache_key = (
            tile[1],
            tile[2],
            self._tile_version.get((tile[1], tile[2]), 0),
            rect.x1,
            rect.y1,
            rect.x2,
            rect.y2,
        )
        cache = self._cover_cache
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
        rx1 = rect.x1
        ry1 = rect.y1
        rx2 = rect.x2
        ry2 = rect.y2
        ox = self.origin_x
        oy = self.origin_y
        tile_size = self.tile_size
        split = self._split
        out: List[QuadKey] = []
        stack: List[QuadKey] = [tile]
        while stack:
            node = stack.pop()
            level = node[0] + 1
            side = tile_size / (1 << level)
            for child in self.children(node):
                _, ix, iy = child
                x1 = ox + ix * side
                y1 = oy + iy * side
                if (
                    rx1 < ox + (ix + 1) * side
                    and x1 < rx2
                    and ry1 < oy + (iy + 1) * side
                    and y1 < ry2
                ):
                    if child in split:
                        stack.append(child)
                    else:
                        out.append(child)
        out.sort()
        result = tuple(out)
        if len(cache) >= _COVER_CACHE_MAX:
            cache.clear()
        cache[cache_key] = result
        return result

    def leaves_under(self, key: QuadKey) -> Tuple[QuadKey, ...]:
        """All current leaves in the subtree rooted at ``key``."""
        if key not in self._split:
            return (key,)
        out: List[QuadKey] = []
        stack: List[QuadKey] = [key]
        split = self._split
        while stack:
            node = stack.pop()
            for child in self.children(node):
                if child in split:
                    stack.append(child)
                else:
                    out.append(child)
        out.sort()
        return tuple(out)

    def resolve(self, key: QuadKey) -> Tuple[QuadKey, ...]:
        """Current leaves covering the region a (possibly stale) key
        addressed when it was recorded.

        A key logged before a split resolves *down* to the leaves of
        its subtree; a key logged before a merge resolves *up* to the
        ancestor that is now the leaf; a live key resolves to itself.
        """
        if key in self._split:
            return self.leaves_under(key)
        level, ix, iy = key
        while level > 0:
            up = (level - 1, ix >> 1, iy >> 1)
            if up in self._split:
                return ((level, ix, iy),)
            level, ix, iy = up
        return ((0, ix, iy),)

    def is_leaf(self, key: QuadKey) -> bool:
        """True iff ``key`` addresses a *current* leaf of the forest."""
        return self.resolve(key) == (key,)


class QuadAG2Cell(AG2Cell):
    """An aG2 cell living in a quadtree leaf, plus its load tracker."""

    __slots__ = ("load", "load_tick")

    def __init__(self) -> None:
        super().__init__()
        # exponentially decayed count of arrivals routed here; decayed
        # lazily (load_tick is the update tick of the last touch)
        self.load = 0.0
        self.load_tick = 0


class QuadtreeAG2Monitor(AG2Monitor):
    """aG2 branch-and-bound over skew-adaptive quadtree leaves.

    Drop-in equal-answer replacement for :class:`AG2Monitor` (the
    hypothesis differentials assert equal best weights under arbitrary
    arrival/expiry interleavings); the index adapts its resolution to
    the observed arrival distribution instead of fixing one cell size.

    Args:
        tile_size: Side of the coarse top-level tiles
            (default: :func:`default_tile_size` — 8× the larger query
            side).
        min_leaf_size: Smallest permitted leaf side; splitting stops
            here no matter the load (default: the larger query side, so
            a dual rectangle maps to at most ~4 leaves even at full
            depth).
        split_occupancy: A leaf holding more live entries than this is
            split (default 24).
        merge_occupancy: Sibling leaves whose combined *unique*
            occupancy is at most this merge back (default 8).
        split_load: Decayed-arrival-load level that forces an early
            split of a leaf already holding more than
            ``merge_occupancy`` entries (default ``4 × split_occupancy``).
        merge_load: Combined decayed load below which cooling siblings
            may merge (default 2.0) — the anti-thrash hysteresis.
        load_decay: Per-update decay factor of the arrival load EWMA,
            in (0, 1) (default 0.5).
    """

    index_backend = "quadtree"

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        tile_size: float | None = None,
        min_leaf_size: float | None = None,
        epsilon: float = 0.0,
        tighten: Tightener | None = None,
        visit_order: str = "bound",
        split_occupancy: int = 24,
        merge_occupancy: int = 8,
        split_load: float | None = None,
        merge_load: float = 2.0,
        load_decay: float = 0.5,
    ) -> None:
        if tile_size is None:
            tile_size = default_tile_size(rect_width, rect_height)
        if min_leaf_size is None:
            min_leaf_size = min(max(rect_width, rect_height), tile_size)
        super().__init__(
            rect_width,
            rect_height,
            window,
            cell_size=tile_size,
            epsilon=epsilon,
            tighten=tighten,
            visit_order=visit_order,
        )
        if split_occupancy <= 0:
            raise InvalidParameterError(
                f"split_occupancy must be positive, got {split_occupancy}"
            )
        if not 0 < merge_occupancy < split_occupancy:
            raise InvalidParameterError(
                "merge_occupancy must be in (0, split_occupancy), got "
                f"{merge_occupancy}"
            )
        if not 0.0 < load_decay < 1.0:
            raise InvalidParameterError(
                f"load_decay must be in (0, 1), got {load_decay}"
            )
        if split_load is None:
            split_load = 4.0 * split_occupancy
        if split_load <= 0 or merge_load < 0:
            raise InvalidParameterError(
                f"load bounds must be positive, got split_load={split_load} "
                f"merge_load={merge_load}"
            )
        self.tree = QuadtreeIndex(tile_size, min_leaf_size)
        self.split_occupancy = int(split_occupancy)
        self.merge_occupancy = int(merge_occupancy)
        self.split_load = float(split_load)
        self.merge_load = float(merge_load)
        self.load_decay = float(load_decay)
        self._tick = 0

    # -- load tracking ---------------------------------------------------

    def _decayed_load(self, cell: QuadAG2Cell) -> float:
        dt = self._tick - cell.load_tick
        if dt <= 0:
            return cell.load
        if dt >= 64:
            return 0.0
        return cell.load * self.load_decay**dt

    def _bump_load(self, cell: QuadAG2Cell) -> None:
        tick = self._tick
        if cell.load_tick != tick:
            cell.load = self._decayed_load(cell)
            cell.load_tick = tick
        cell.load += 1.0

    # -- cell plumbing overrides -----------------------------------------

    def _make_cell(self) -> QuadAG2Cell:
        return QuadAG2Cell()

    def _map_arrivals(self, delta: WindowUpdate) -> None:
        """Route arrivals through the adaptive tree (Equation 5 bounds),
        then run split maintenance on the leaves that received load."""
        self._tick += 1
        cells = self._cells
        tree_keys = self.tree.cell_keys
        width = self.rect_width
        height = self.rect_height
        log = self._expiry_log.append
        touched: Set[QuadKey] = set()
        for obj in delta.arrived:
            seq = self._next_seq
            self._next_seq += 1
            wr = dual_rect(obj, width, height)
            weight = wr.weight
            for key in tree_keys(wr.rect):
                cell = cells.get(key)
                if cell is None:
                    cell = self._make_cell()
                    cell.rank = self._next_cell_rank
                    self._next_cell_rank += 1
                    cell.load_tick = self._tick
                    cells[key] = cell
                cell.pending.append((seq, wr))
                cell.cw += weight
                self._bump_load(cell)
                log((seq, key))
                touched.add(key)
        for key in sorted(touched):
            self._maybe_split(key)

    def _purge_all(self) -> None:
        """Tree-aware expiry: logged keys may predate splits/merges, so
        each is resolved to the current leaves covering its region
        before purging; cells that shrank or emptied trigger merge
        maintenance on their parents."""
        expired_upto = self._expired_upto
        if self._star is not None and self._star.seq <= expired_upto:
            self._star = None
            self._star_cell = None
        log = self._expiry_log
        if not log or log[0][0] > expired_upto:
            return
        touched: Set[QuadKey] = set()
        add = touched.add
        while log and log[0][0] <= expired_upto:
            add(log.popleft()[1])
        resolve = self.tree.resolve
        leaves: Set[QuadKey] = set()
        for key in touched:
            leaves.update(resolve(key))
        cells = self._cells
        shrunk: List[QuadKey] = []
        for key in leaves:
            cell = cells.get(key)
            if cell is None:
                continue
            removed = cell.graph.expire_upto(expired_upto)
            pending = cell.pending
            while pending and pending[0][0] <= expired_upto:
                pending.popleft()
            if not pending and not cell.graph:
                del cells[key]
                shrunk.append(key)
            elif removed:
                self._cell_purged(cell)
                shrunk.append(key)
        for key in sorted(shrunk):
            self._maybe_merge(key)

    # -- split / merge ---------------------------------------------------

    def _split_trigger(self, cell: QuadAG2Cell) -> bool:
        occupancy = len(cell.graph) + len(cell.pending)
        if occupancy > self.split_occupancy:
            return True
        return (
            occupancy > self.merge_occupancy
            and self._decayed_load(cell) > self.split_load
        )

    def _maybe_split(self, key: QuadKey) -> None:
        """Split ``key`` (and cascade into oversize children) while the
        load policy demands it and the leaf floor permits it."""
        stack = [key]
        can_split = self.tree.can_split
        while stack:
            k = stack.pop()
            cell = self._cells.get(k)
            if cell is None or not can_split(k):
                continue
            if self._split_trigger(cell):
                stack.extend(self._split_cell(k, cell))

    def _split_cell(
        self, key: QuadKey, cell: QuadAG2Cell
    ) -> List[QuadKey]:
        """Replace one leaf by its four quadrants.

        All entries (graph vertices *and* pending rectangles) are
        demoted to the children's pending sets in arrival order; each
        child's bound is the Equation (5) weight sum *clamped by the
        parent's bound* — a child vertex's neighbour set is a subset of
        its parent-cell neighbour set (both endpoints of any child edge
        overlap the child region, hence were connected in the parent),
        so the parent's c.w upper-bounds every child vertex bound and
        min(parent c.w, Σ weights) is still a valid Equation (4)/(5)
        bound.  The clamp is what keeps Rule 1 pruning sharp across
        restructures: a freshly split hotspot does not balloon back to
        loose weight sums.  Children created non-empty are returned for
        cascade checks.
        """
        del self._cells[key]
        tree = self.tree
        tree.split(key)
        entries: List[Tuple[int, WeightedRect]] = [
            (v.seq, v.wr) for v in cell.graph.iter_vertices()
        ]
        entries.extend(cell.pending)
        total = len(entries)
        parent_cw = cell.cw
        load = self._decayed_load(cell)
        tick = self._tick
        created: List[QuadKey] = []
        for child in tree.children(key):
            x1, y1, x2, y2 = tree.cell_bounds(child)
            sub = [
                entry
                for entry in entries
                if (
                    entry[1].rect.x1 < x2
                    and x1 < entry[1].rect.x2
                    and entry[1].rect.y1 < y2
                    and y1 < entry[1].rect.y2
                )
            ]
            if not sub:
                continue
            child_cell = self._make_cell()
            child_cell.rank = self._next_cell_rank
            self._next_cell_rank += 1
            child_cell.pending.extend(sub)
            child_cell.cw = min(parent_cw, sum(wr.weight for _, wr in sub))
            child_cell.load = load * (len(sub) / total) if total else 0.0
            child_cell.load_tick = tick
            self._cells[child] = child_cell
            created.append(child)
        self.metrics.inc("quadtree_splits")
        return created

    def _maybe_merge(self, key: QuadKey) -> None:
        """Merge cooled sibling leaves back into their parent, cascading
        upward while the policy allows."""
        tree = self.tree
        cells = self._cells
        while key[0] > 0:
            parent = tree.parent(key)
            if not tree.is_split(parent):
                # an earlier sibling's cascade already merged this level
                return
            siblings = tree.children(parent)
            if any(tree.is_split(s) for s in siblings):
                return
            merged: dict[int, WeightedRect] = {}
            load = 0.0
            sibling_bounds = 0.0
            for s in siblings:
                cell = cells.get(s)
                if cell is None:
                    continue
                for v in cell.graph.iter_vertices():
                    merged[v.seq] = v.wr
                for seq, wr in cell.pending:
                    merged[seq] = wr
                load += self._decayed_load(cell)
                sibling_bounds += cell.cw
                if len(merged) > self.merge_occupancy:
                    return
            if load > self.merge_load:
                return
            tree.merge(parent)
            for s in siblings:
                cells.pop(s, None)
            if merged:
                parent_cell = self._make_cell()
                parent_cell.rank = self._next_cell_rank
                self._next_cell_rank += 1
                parent_cell.pending.extend(sorted(merged.items()))
                # every parent-cell edge coexists in >= 1 sibling, so a
                # vertex bound in the merged graph is at most the sum of
                # its per-sibling bounds — min(Eq. 5 sum, sum of sibling
                # c.w) stays a valid upper bound
                parent_cell.cw = min(
                    sum(wr.weight for wr in merged.values()), sibling_bounds
                )
                parent_cell.load = load
                parent_cell.load_tick = self._tick
                cells[parent] = parent_cell
            self.metrics.inc("quadtree_merges")
            key = parent

    # -- diagnostics -----------------------------------------------------

    @property
    def leaf_depths(self) -> dict[int, int]:
        """Histogram: tree level → number of materialised leaves."""
        out: dict[int, int] = {}
        for key in self._cells:
            out[key[0]] = out.get(key[0], 0) + 1
        return out

    @property
    def max_depth(self) -> int:
        """Deepest materialised leaf level (0 = no splits anywhere)."""
        return max((key[0] for key in self._cells), default=0)

    def check_invariants(self) -> None:
        """Property 4 checks from the base monitor, plus the structural
        invariants the adaptive index adds:

        * every materialised cell key addresses a current tree leaf;
        * every entry's rectangle strictly overlaps its leaf's bounds;
        * every leaf above the size floor respects the occupancy bound
          (this is the "bounded under skew" guarantee — only leaves at
          ``min_leaf_size`` may exceed it, when the data is so
          concentrated no partition can separate it).
        """
        super().check_invariants()
        tree = self.tree
        for key, cell in self._cells.items():
            if not tree.is_leaf(key):
                raise InvariantViolationError(
                    f"cell key {key} is not a current quadtree leaf"
                )
            x1, y1, x2, y2 = tree.cell_bounds(key)
            occupancy = len(cell.graph) + len(cell.pending)
            if tree.can_split(key) and occupancy > self.split_occupancy:
                raise InvariantViolationError(
                    f"leaf {key} occupancy {occupancy} exceeds bound "
                    f"{self.split_occupancy} above the size floor"
                )
            for wr in self._iter_cell_rects(cell):
                r = wr.rect
                if not (r.x1 < x2 and x1 < r.x2 and r.y1 < y2 and y1 < r.y2):
                    raise InvariantViolationError(
                        f"leaf {key}: rectangle {r} does not overlap "
                        f"leaf bounds ({x1}, {y1}, {x2}, {y2})"
                    )

    @staticmethod
    def _iter_cell_rects(cell: AG2Cell) -> Iterable[WeightedRect]:
        for v in cell.graph.iter_vertices():
            yield v.wr
        for _, wr in cell.pending:
            yield wr
