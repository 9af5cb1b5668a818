"""Per-cell dynamic overlap graph (paper Definitions 5 and 6).

Each grid cell maintains a graph over the dual rectangles mapped to it:
vertices are rectangles, and a *directed* edge runs from the older to
the newer of every overlapping pair.  A vertex's neighbour set
``N(ri)`` is therefore exactly the rectangles of its cell that are
newer than ``ri`` and overlap it (Property 3), so edges are implicit:
the cell keeps its live rectangles in one arrival-ordered flat buffer,
and ``N(ri)`` is the overlapping part of the buffer past ``ri``.
Expiration needs no neighbour maintenance: when a vertex dies, no
survivor has an edge to it.  It pops the front of the buffer by moving
a head offset; the dead prefix is compacted away once it is half the
buffer.

Per-vertex state lives in arrays parallel to the buffer, indexed alike:

* ``items`` — ``array('d')``, 5 doubles per vertex ``(x1, y1, x2, y2,
  w)``: the dual rectangle and its weight, the layout the compiled
  kernel reads;
* ``objs`` — the originating :class:`~repro.core.objects.SpatialObject`
  (no ``WeightedRect`` is kept: :attr:`Vertex.wr` builds one on demand);
* ``seqs`` — arrival sequence numbers, strictly increasing;
* ``upper`` — the aG2 bound ``s̄i`` (Equation 3), with
  ``space.weight ≤ true si ≤ upper`` (Property 4's vertex half); G2,
  which keeps ``si`` exact at all times, leaves it equal to ``exact``;
* ``exact`` and ``spaces`` — the paper's ``si``, the best space
  anchored at the vertex, always a valid space with exactly the
  recorded weight; a ``spaces`` slot is ``None`` until first read or
  swept (the space is then the rectangle itself);
* ``dirty`` — 1 when an overlapping rectangle arrived since ``si`` was
  last swept;
* ``marks`` — the seq of the cell's newest rectangle when ``si`` was
  last swept (the vertex's own seq before that).  Algorithm 5's
  ``R(ri)`` is the part of ``N(ri)`` past it, and ``dirty`` holds iff
  that part is not empty.

New rectangles come from an :class:`ArrivalTable`, the monitor's one
seq-indexed table of routed arrivals (rows of the same 5 doubles plus
each row's cell cover).  :meth:`CellGraph.connect` inserts a whole
pending set — an ``array('q')`` of seqs — in one call into the
compiled ``maxrs_insert`` (``repro.core.planesweep``), which copies the
rows in and, for each new row in arrival order, adds its weight to the
bound of every older overlapping vertex.  :class:`Vertex` is a
read-only view of one vertex; the monitors pass it to
:func:`~repro.core.planesweep.local_plane_sweep_cached`, which gathers,
clips and sweeps ``N(ri)`` in one call as well, and aG2 sweeps a dense
cell once with :meth:`CellGraph.cap_at_cell_max`.  ``WeightedRect``,
``Rect`` and ``Region`` objects are built only on demand: for answers,
top-k and Algorithm 5.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.core.cells import route_rows
from repro.core.geometry import Rect
from repro.core.grid import CellKey, UniformGrid
from repro.core.objects import SpatialObject, WeightedRect
from repro.core.planesweep import (
    _above_flat,
    _cell_flat,
    _insert_flat,
    _max_flat,
    _scan_flat,
)
from repro.core.spaces import Region
from repro.errors import InvariantViolationError

__all__ = ["ArrivalTable", "Vertex", "CellGraph"]

#: a dead prefix this long is compacted once it is half the buffer
_COMPACT_MIN = 32


class ArrivalTable:
    """A graph monitor's routed arrivals, oldest first, indexed by
    sequence number: row ``r`` is the arrival with seq ``base + r``.

    * ``rows`` — ``array('d')``, 5 doubles per row ``(x1, y1, x2, y2,
      w)``: the dual rectangle (Definition 2) and its weight, the layout
      of a cell buffer, so :meth:`CellGraph.connect` copies rows in;
    * ``cover`` — ``array('q')``, 4 ints per row ``(i0, i1, j0, j1)``:
      the grid cells ``i0..i1 × j0..j1`` the rectangle is mapped to,
      none (``i0 > i1``) for a degenerate rectangle;
    * ``objs`` — the stream objects; expired slots hold ``None`` until
      compaction.

    The live rows are ``head .. len(objs) - 1``.  Expiry moves ``head``
    past a prefix, which is compacted away once it is half the table,
    as in :class:`CellGraph`.
    """

    __slots__ = ("rows", "cover", "objs", "head", "base", "pairs")

    def __init__(self, base: int = 0) -> None:
        self.rows = array("d")
        self.cover = array("q")
        self.objs: list[SpatialObject | None] = []
        #: index of the oldest live row
        self.head = 0
        #: seq of the row at index 0
        self.base = base
        #: (row, cell) pairs of the last routed batch
        self.pairs = 0

    def __len__(self) -> int:
        return len(self.objs) - self.head

    def route(
        self,
        arrived: Sequence[SpatialObject],
        width: float,
        height: float,
        grid: UniformGrid,
    ) -> int:
        """Append one row per arrival, in order, and return the index of
        the first; :attr:`pairs` becomes the batch's (row, cell) pair
        count.

        The bounds are ``Rect.from_center``'s, float operation for
        float operation, and the cover is ``grid.cell_keys``' (one
        ``_axis_cells`` per axis); one ``maxrs_route`` call computes
        both for the whole batch (:func:`repro.core.cells.route_rows`).
        No ``Rect`` is built unless a bound is not finite: then
        ``Rect`` raises the error the dual transform raises, before any
        row is appended.
        """
        start = len(self.objs)
        self.pairs = route_rows(
            self.rows, self.cover, arrived, width / 2.0, height / 2.0, grid
        )
        self.objs += arrived
        return start

    def cells(self, start: int, stop: int) -> Iterator[tuple[int, CellKey]]:
        """``(row, cell key)`` for every cell the rows ``start .. stop -
        1`` are mapped to: rows in order, each row's cells in
        ``grid.cell_keys`` order."""
        cover = iter(self.cover[4 * start:4 * stop])
        row = start
        for i0, i1, j0, j1 in zip(cover, cover, cover, cover):
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    yield row, (i, j)
            row += 1

    def expire_upto(self, seq: int) -> None:
        """Drop every row with ``seq`` ≤ the given sequence number."""
        objs = self.objs
        start = self.head
        head = min(seq + 1 - self.base, len(objs))
        if head <= start:
            return
        if head >= _COMPACT_MIN and 2 * head >= len(objs):
            del self.rows[:5 * head]
            del self.cover[:4 * head]
            del objs[:head]
            self.base += head
            head = 0
        else:
            # the dead prefix must not keep expired objects reachable
            objs[start:head] = [None] * (head - start)
        self.head = head

    def check_invariants(self, expired_upto: int) -> None:
        """Verify the flat layout and that the live rows are exactly the
        arrivals newer than ``expired_upto``; raises
        :class:`InvariantViolationError`.  Tests only."""
        objs = self.objs
        n = len(objs)
        if len(self.rows) != 5 * n or len(self.cover) != 4 * n:
            raise InvariantViolationError(
                f"arrival table: {len(self.rows)} row doubles and "
                f"{len(self.cover)} cover ints for {n} objects"
            )
        if self.base + self.head != expired_upto + 1:
            raise InvariantViolationError(
                f"arrival table: oldest live seq {self.base + self.head}, "
                f"expected {expired_upto + 1}"
            )
        if any(obj is not None for obj in objs[:self.head]):
            raise InvariantViolationError(
                "arrival table: an expired object is retained"
            )
        if any(obj is None for obj in objs[self.head:]):
            raise InvariantViolationError(
                "arrival table: a live row lost its object"
            )


class Vertex:
    """A read-only view of one vertex of a :class:`CellGraph`.

    ``pos`` is the vertex's position counted over every rectangle the
    graph ever held, so a view stays valid across compactions for as
    long as the vertex is alive; ``seq`` is kept on the view, so
    expiry can be told even after the vertex is gone.
    """

    __slots__ = ("graph", "pos", "seq")

    def __init__(self, graph: "CellGraph", pos: int, seq: int) -> None:
        self.graph = graph
        self.pos = pos
        self.seq = seq

    @property
    def index(self) -> int:
        """The vertex's index into its graph's arrays."""
        return self.pos - self.graph.base

    @property
    def wr(self) -> WeightedRect:
        """The vertex's weighted rectangle (built on each read)."""
        return self.graph.wr(self.index)

    @property
    def space(self) -> Region:
        # top-k ranks its candidates by this, so the common case (a
        # space already built) stays one lookup
        graph = self.graph
        i = self.pos - graph.base
        space = graph.spaces[i]
        return graph.space(i) if space is None else space

    @property
    def upper(self) -> float:
        return self.graph.upper[self.index]

    @property
    def dirty(self) -> bool:
        return bool(self.graph.dirty[self.index])

    @property
    def neighbors(self) -> tuple[WeightedRect, ...]:
        """``N(ri)``: the newer rectangles of the cell overlapping this
        one, in arrival order (derived from the buffer)."""
        graph = self.graph
        return tuple(graph.wr(j) for j in graph.neighbor_indices(self.index))

    @property
    def fresh(self) -> tuple[WeightedRect, ...]:
        """Algorithm 5's ``R(ri)``: the neighbours that arrived since
        ``si`` was last swept."""
        graph = self.graph
        i = self.index
        mark = graph.marks[i]
        seqs = graph.seqs
        return tuple(
            graph.wr(j) for j in graph.neighbor_indices(i) if seqs[j] > mark
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vertex(seq={self.seq}, oid={self.wr.oid}, "
            f"deg={len(self.neighbors)}, si={self.space.weight:.3f}, "
            f"upper={self.upper:.3f})"
        )


class CellGraph:
    """The dynamic graph of one grid cell, in arrival order.

    Used directly by G2; aG2 holds one per visited cell and keeps the
    pending set ``R`` and the cell bound ``c.w`` in its cell table (see
    ``repro.core.cells``).  The live vertices
    are the array indices ``head .. len(seqs) - 1``.
    """

    __slots__ = (
        "items", "objs", "seqs", "upper", "exact", "spaces", "dirty",
        "marks", "head", "base",
    )

    def __init__(self) -> None:
        self.items = array("d")
        # expired slots hold None until compaction
        self.objs: list[SpatialObject | None] = []
        self.seqs = array("q")
        self.upper = array("d")
        self.exact = array("d")
        self.spaces: list[Region | None] = []
        self.dirty = array("b")
        self.marks = array("q")
        #: index of the oldest live vertex
        self.head = 0
        #: vertices compacted away so far (``pos = base + index``)
        self.base = 0

    def __len__(self) -> int:
        return len(self.seqs) - self.head

    def __iter__(self) -> Iterator[Vertex]:
        """Views of the live vertices, oldest first."""
        return (self.vertex(i) for i in range(self.head, len(self.seqs)))

    def vertex(self, i: int) -> Vertex:
        """A view of the vertex at array index ``i``."""
        return Vertex(self, self.base + i, self.seqs[i])

    def connect(
        self, table: ArrivalTable, seqs: array, hits: array | None = None
    ) -> int:
        """Insert the table rows of ``seqs`` (an increasing
        ``array('q')`` of seqs newer than every vertex), in order, each
        with an edge from every older overlapping vertex (Definition 5):
        the older vertex's bound grows by the new weight (Equation 3)
        and it turns dirty.  One call into ``maxrs_insert``.

        Returns how many edges were made.  When ``hits`` (an
        ``array('q')``) is given, it is overwritten with the array index
        of the older vertex of each edge, in the order made.  The caller
        counts the ``len(self)`` pairwise overlap tests of each row.
        """
        m = len(seqs)
        n = len(self.seqs)
        head = self.head
        self.items.frombytes(bytes(40 * m))
        self.upper.frombytes(bytes(8 * m))
        self.exact.frombytes(bytes(8 * m))
        self.dirty.frombytes(bytes(m))
        if hits is not None:
            del hits[:]
            hits.frombytes(bytes(8 * (m * (n - head) + m * (m - 1) // 2)))
        edges = _insert_flat(
            table.rows, table.base, seqs, self.items, head, n,
            self.upper, self.exact, self.dirty, hits,
        )
        if hits is not None:
            del hits[edges:]
        self.seqs.extend(seqs)
        self.marks.extend(seqs)
        objs = table.objs
        base = table.base
        self.objs += [objs[seq - base] for seq in seqs]
        self.spaces += [None] * m
        return edges

    def expire_upto(self, seq: int) -> int:
        """Drop every vertex with ``seq`` ≤ the given sequence number and
        return how many went.  Vertices expire strictly in arrival
        order, so this moves the head past a prefix (Property 3: no
        other vertex needs maintenance)."""
        seqs = self.seqs
        n = len(seqs)
        start = head = self.head
        if head == n or seqs[head] > seq:
            return 0
        while head < n and seqs[head] <= seq:
            head += 1
        removed = head - start
        if head >= _COMPACT_MIN and 2 * head >= n:
            del self.items[:5 * head]
            del self.objs[:head]
            del seqs[:head]
            del self.upper[:head]
            del self.exact[:head]
            del self.spaces[:head]
            del self.dirty[:head]
            del self.marks[:head]
            self.base += head
            head = 0
        elif removed:
            # the dead prefix must not keep expired objects reachable
            dead = [None] * removed
            self.objs[start:head] = dead
            self.spaces[start:head] = dead
        self.head = head
        return removed

    def wr(self, i: int) -> WeightedRect:
        """The weighted rectangle of the vertex at array index ``i``,
        built from its buffer row and object."""
        items = self.items
        b = 5 * i
        rect = Rect(items[b], items[b + 1], items[b + 2], items[b + 3])
        return WeightedRect(rect, items[b + 4], self.objs[i])

    def anchor_space(self, i: int) -> Region:
        """The rectangle of the vertex at array index ``i`` as a space:
        its ``si`` while no neighbour has been swept with it."""
        items = self.items
        b = 5 * i
        rect = Rect(items[b], items[b + 1], items[b + 2], items[b + 3])
        return Region(rect=rect, weight=items[b + 4],
                      anchor_oid=self.objs[i].oid)

    def space(self, i: int) -> Region:
        """``si`` of the vertex at array index ``i``."""
        space = self.spaces[i]
        if space is None:
            space = self.spaces[i] = self.anchor_space(i)
        return space

    def settle(self, i: int, space: Region) -> None:
        """Record a fresh exact sweep of the vertex at array index ``i``:
        ``si`` and its bound become ``space``, ``R(ri)`` becomes empty."""
        self.spaces[i] = space
        self.exact[i] = self.upper[i] = space.weight
        self.dirty[i] = 0
        self.marks[i] = self.seqs[-1]

    def neighbor_indices(self, i: int) -> array:
        """Array indices of ``N(ri)`` for the vertex at index ``i``."""
        n = len(self.seqs)
        hits = array("q", bytes(8 * (n - i)))
        del hits[_scan_flat(self.items, i, i + 1, n, None, None, hits):]
        return hits

    def max_upper(self) -> float:
        """The largest live bound (the first of equal ones), ``0.0``
        when the graph is empty."""
        return _max_flat(self.upper, self.head)

    def cap_at_cell_max(self, extent: Sequence[float]) -> int:
        """Sweep the live rectangles clipped to the cell ``extent`` ``(x1,
        y1, x2, y2)`` once, and cap every live bound at that cell max
        ``M`` plus its rounding slack, ``M⁺`` (never below the vertex's
        exact weight): no local sweep of a vertex can exceed ``M⁺``, as
        every rectangle here meets the cell's open interior.  Vertices
        stay dirty.  One call into ``maxrs_cell``.

        Returns the anchor: the array index of the oldest vertex whose
        rectangle holds the max face, whose local sweep reaches ``M``;
        ``-1`` when nothing was capped.
        """
        return _cell_flat(
            self.items, self.head, len(self.seqs), extent, self.upper,
            self.exact,
        )[0]

    def next_above(self, i: int, relax: float, rho: float) -> int:
        """The first array index ``j ≥ i`` whose bound passes Pruning
        Rule 2/4, ``relax * upper[j] > rho``; ``len(seqs)`` if none."""
        return _above_flat(self.upper, i, relax, rho)

    def check_invariants(self, where: str) -> None:
        """Verify the flat layout; raises :class:`InvariantViolationError`
        naming ``where`` on the first violation.  Tests only."""
        n = len(self.seqs)
        lengths = {
            "items/5": len(self.items) / 5, "objs": len(self.objs),
            "upper": len(self.upper), "exact": len(self.exact),
            "spaces": len(self.spaces), "dirty": len(self.dirty),
            "marks": len(self.marks),
        }
        for name, length in lengths.items():
            if length != n:
                raise InvariantViolationError(
                    f"{where}: {name} has {length} entries, seqs {n}"
                )
        if not 0 <= self.head <= n:
            raise InvariantViolationError(
                f"{where}: head {self.head} outside 0..{n}"
            )
        seqs = self.seqs
        for i in range(1, n):
            if seqs[i] <= seqs[i - 1]:
                raise InvariantViolationError(
                    f"{where}: seqs not increasing at index {i}"
                )
        tol = 1e-6
        for i in range(self.head, n):
            v = self.vertex(i)
            space = self.space(i)
            if space.weight != self.exact[i]:
                raise InvariantViolationError(
                    f"{where}: vertex seq={v.seq} exact {self.exact[i]} "
                    f"differs from its space's weight {space.weight}"
                )
            if self.upper[i] < space.weight - tol:
                raise InvariantViolationError(
                    f"{where}: vertex seq={v.seq} bound {self.upper[i]} "
                    f"below exact space {space.weight}"
                )
            if bool(self.dirty[i]) != bool(v.fresh):
                raise InvariantViolationError(
                    f"{where}: vertex seq={v.seq} dirty={self.dirty[i]} "
                    f"but {len(v.fresh)} neighbours past its watermark "
                    f"{self.marks[i]}"
                )
