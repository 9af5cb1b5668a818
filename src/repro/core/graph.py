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
  w)``: the layout the compiled kernel reads;
* ``wrs`` — the :class:`~repro.core.objects.WeightedRect` itself;
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

:meth:`CellGraph.connect` is one call into the compiled
``maxrs_connect`` (``repro.core.planesweep``), which scans the buffer
and adds the arrival's weight to the bound of every older overlapping
vertex, in index order.  :class:`Vertex` is a read-only view of one
vertex; the monitors pass it to
:func:`~repro.core.planesweep.local_plane_sweep_cached`, which gathers,
clips and sweeps ``N(ri)`` in one call as well.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.core.objects import WeightedRect
from repro.core.planesweep import _above_flat, _max_flat, _scan_flat
from repro.core.spaces import Region
from repro.errors import InvariantViolationError

__all__ = ["Vertex", "CellGraph"]

#: a dead prefix this long is compacted once it is half the buffer
_COMPACT_MIN = 32


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
        graph = self.graph
        return graph.wrs[self.pos - graph.base]

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
        wrs = graph.wrs
        return tuple(wrs[j] for j in graph.neighbor_indices(self.index))

    @property
    def fresh(self) -> tuple[WeightedRect, ...]:
        """Algorithm 5's ``R(ri)``: the neighbours that arrived since
        ``si`` was last swept."""
        graph = self.graph
        i = self.index
        mark = graph.marks[i]
        seqs = graph.seqs
        wrs = graph.wrs
        return tuple(
            wrs[j] for j in graph.neighbor_indices(i) if seqs[j] > mark
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vertex(seq={self.seq}, oid={self.wr.oid}, "
            f"deg={len(self.neighbors)}, si={self.space.weight:.3f}, "
            f"upper={self.upper:.3f})"
        )


class CellGraph:
    """The dynamic graph of one grid cell, in arrival order.

    Used directly by G2; aG2 wraps it with the pending set ``R`` and
    the cell bound ``c.w`` (see ``repro.core.ag2``).  The live vertices
    are the array indices ``head .. len(seqs) - 1``.
    """

    __slots__ = (
        "items", "wrs", "seqs", "upper", "exact", "spaces", "dirty", "marks",
        "head", "base",
    )

    def __init__(self) -> None:
        self.items = array("d")
        # expired slots hold None until compaction
        self.wrs: list[WeightedRect | None] = []
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
        self, wr: WeightedRect, seq: int, hits: array | None = None
    ) -> int:
        """Insert a new rectangle, adding an edge from every older
        overlapping vertex (Definition 5): each such vertex's bound
        grows by the new weight (Equation 3) and it turns dirty.

        Returns how many vertices gained an edge.  When ``hits`` (an
        ``array('q')``) is given, it is overwritten with their array
        indices, oldest first.  The caller counts the ``len(self)``
        pairwise overlap tests.
        """
        rect = wr.rect
        weight = wr.weight
        items = self.items
        seqs = self.seqs
        n = len(seqs)
        head = self.head
        items.extend((rect.x1, rect.y1, rect.x2, rect.y2, weight))
        if hits is not None:
            del hits[:]
        touched = 0
        if n > head:  # else there is nothing to scan
            if hits is not None:
                hits.frombytes(bytes(8 * (n - head)))
            touched = _scan_flat(
                items, n, head, n, self.upper, self.dirty, hits
            )
            if hits is not None:
                del hits[touched:]
        self.wrs.append(wr)
        seqs.append(seq)
        self.upper.append(weight)
        self.exact.append(weight)
        self.spaces.append(None)
        self.dirty.append(0)
        self.marks.append(seq)
        return touched

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
            del self.wrs[:head]
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
            self.wrs[start:head] = dead
            self.spaces[start:head] = dead
        self.head = head
        return removed

    def space(self, i: int) -> Region:
        """``si`` of the vertex at array index ``i``."""
        space = self.spaces[i]
        if space is None:
            wr = self.wrs[i]
            space = self.spaces[i] = Region(
                rect=wr.rect, weight=wr.weight, anchor_oid=wr.oid
            )
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

    def next_above(self, i: int, relax: float, rho: float) -> int:
        """The first array index ``j ≥ i`` whose bound passes Pruning
        Rule 2/4, ``relax * upper[j] > rho``; ``len(seqs)`` if none."""
        return _above_flat(self.upper, i, relax, rho)

    def check_invariants(self, where: str) -> None:
        """Verify the flat layout; raises :class:`InvariantViolationError`
        naming ``where`` on the first violation.  Tests only."""
        n = len(self.seqs)
        lengths = {
            "items/5": len(self.items) / 5, "wrs": len(self.wrs),
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
