"""Plane-sweep MaxRS solvers (the paper's §3 building block).

Implements the optimal O(n log n) in-memory algorithm of Nandy &
Bhattacharya [18] / Imai & Asano [12]: sweep a horizontal line from the
bottom to the top of a set of weighted rectangles while a max-cover
segment tree tracks the total weight covering each elementary
x-interval.  Entry points:

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
``_sweep.c``, runs every sweep step: ``maxrs_sweep`` (the max sweep),
``maxrs_topk`` (the top-k candidates of one sweep), ``maxrs_connect``
(the overlap scan of one rectangle), ``maxrs_insert``
(``CellGraph.connect`` of a whole pending set: copy the rows in, then
one overlap scan per new row), ``maxrs_local`` (gather, clip and
sweep), ``maxrs_cell`` (aG2's dense-cell path: one clipped sweep of a
whole cell, which caps every vertex bound at the cell max),
``maxrs_max`` and ``maxrs_above`` (the bound scans of ``CellGraph``).
Each has one dispatcher here (``_sweep_flat``, ``_topk_flat``,
``_scan_flat``, ``_insert_flat``, ``_local_flat``, ``_cell_flat``,
``_max_flat``, ``_above_flat``); the same library's aG2 cell-index
entry points (``maxrs_route``, ``maxrs_map``, ``maxrs_purge``,
``maxrs_pending``, ``maxrs_top``, ``maxrs_top_bound``,
``maxrs_settle``) are called from ``repro.core.cells``, and its
``maxrs_admit`` (the ingest guard's batch pass: the stream objects of
the wire records that need no coercion) from
``repro.resilience.guard``, and its ``maxrs_columns`` (the durable
column form of a run of stream objects) from ``repro.core.objects``;
nothing else reads ``_KERNEL``.  Items
are a flat ``array('d')`` of 5 doubles each, ``(x1, y1, x2, y2,
weight)`` — the layout of a graph cell's buffer, so a call passes the
array, a start index and a count.

The library is a CPython extension module, compiled with gcc (or cc)
against the interpreter's own headers on first import into a per-user
cache.  Each entry point takes the arrays themselves, checks their
typecodes and every index and count against their lengths, and raises
rather than read or write past one.  It is required: when no compiler
or no ``Python.h`` is found, or building or loading fails, the import
raises :class:`~repro.errors.KernelUnavailableError`.  The Python reference
that every entry point is held to, ``float.hex`` for ``float.hex``,
lives with the tests (``tests/reference_kernel.py`` and
``tests/segment_tree.py``).
"""

from __future__ import annotations

import os
import shutil
import sysconfig
import tempfile
from array import array
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.core.geometry import Rect
from repro.core.objects import WeightedRect
from repro.core.spaces import Region
from repro.errors import InvalidParameterError, KernelUnavailableError

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

#: result of a flat sweep: ``(weight, x1, y1, x2, y2)``
_Cell = Sequence[float]

# -- the compiled kernel -----------------------------------------------

_C_SOURCE = Path(__file__).with_name("_sweep.c")
#: no fast-math and no fused multiply-add: each double add must round
#: exactly as CPython's float add does
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
#: the directory holding this interpreter's ``Python.h``
_INCLUDE = sysconfig.get_paths()["include"]


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
            [cc, *_CFLAGS, "-I", _INCLUDE, "-o", tmp, str(_C_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        error = next((ln for ln in stderr.splitlines() if "error" in ln), exc)
        raise OSError(
            f"{cc} could not build {_C_SOURCE.name}: {error}"
        ) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _kernel_name() -> str:
    """The cached library's file name: a SHA-256 of the C source, the
    flags, the interpreter's extension suffix and its include path."""
    digest = sha256(_C_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(_EXT_SUFFIX.encode())
    digest.update(_INCLUDE.encode())
    return f"_sweep-{digest.hexdigest()[:16]}{_EXT_SUFFIX}"


class _Kernel(NamedTuple):
    """The compiled library's entry points (see ``_sweep.c``)."""

    sweep: object
    topk: object
    connect: object
    insert: object
    local: object
    cell: object
    max: object
    above: object
    route: object
    map: object
    purge: object
    pending: object
    top: object
    top_bound: object
    settle: object
    admit: object
    columns: object
    ints: object


def _open(path: Path) -> _Kernel:
    """Load the extension module at ``path`` and bind every entry point;
    raises ``ImportError``, ``OSError`` or ``AttributeError`` when it
    does not load or lacks one, so a library is used whole or not at
    all."""
    loader = ExtensionFileLoader("repro.core._sweep", str(path))
    module = module_from_spec(
        spec_from_file_location(loader.name, str(path), loader=loader)
    )
    loader.exec_module(module)
    return _Kernel(*(getattr(module, f"maxrs_{f}") for f in _Kernel._fields))


def _load_kernel() -> _Kernel:
    """The compiled entry points.

    Loads the cached library, building it first when missing, and
    rebuilds it once when a cached file does not load (damaged, or
    built on a host with another C library).  Raises
    :class:`KernelUnavailableError` when that fails too: no other
    implementation of the sweep steps ships.
    """
    cache: Path | str = "unknown"
    try:
        cache = _cache_dir()
        path = cache / _kernel_name()
        built = not path.exists()
        if built:
            _build(path)
        try:
            return _open(path)
        except (ImportError, OSError, AttributeError):
            if built:
                raise
            _build(path)
            return _open(path)
    except (ImportError, OSError, AttributeError) as exc:
        raise KernelUnavailableError(
            f"cannot build or load the compiled sweep kernel "
            f"{_C_SOURCE.name} in the cache directory {cache}: {exc}.  "
            f"The kernel is required: put gcc (or cc) on PATH, install "
            f"the Python development headers (Python.h in {_INCLUDE}) "
            f"and keep the cache directory writable (XDG_CACHE_HOME)"
        ) from exc


#: resolved once, at import, never inside a timed update
_KERNEL = _load_kernel()
#: initial contents of the kernel's per-call output buffer
_OUT = (0.0,) * 5
_OUT6 = (0.0,) * 6


def _sweep_flat(buf: array) -> _Cell | None:
    """``(weight, x1, y1, x2, y2)`` of a maximum-weight cell of the flat
    items in ``buf``, or ``None`` when no item has positive area."""
    out = array("d", _OUT)
    found = _KERNEL.sweep(buf, len(buf) // 5, out)
    if found < 0:
        raise MemoryError("plane sweep kernel out of memory")
    return out if found else None


def _topk_flat(buf: array) -> array:
    """The single-sweep top-k candidates of the flat items in ``buf``:
    ``(weight, x1, y1, x2, y2)`` each, 5 doubles a candidate, in the
    order the sweep first offered them (``maxrs_topk``)."""
    n = len(buf) // 5
    out = array("d", bytes(8 * len(buf)))
    count = _KERNEL.topk(buf, n, out)
    if count < 0:
        raise MemoryError("plane sweep kernel out of memory")
    del out[5 * count:]
    return out


def _scan_flat(
    items: array,
    q: int,
    lo: int,
    hi: int,
    upper: array | None,
    dirty: array | None,
    hits: array | None,
) -> int:
    """``maxrs_connect``: every flat item ``j`` in ``[lo, hi)``, in index
    order, whose rectangle overlaps item ``q``'s (``Rect.overlaps``).
    With ``upper``, add item ``q``'s weight to ``upper[j]`` and set
    ``dirty[j]``; with ``hits``, store ``j`` at ``hits[k]`` for the
    ``k``-th item.  Returns the count."""
    return _KERNEL.connect(items, q, lo, hi, upper, dirty, hits)


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
    """``maxrs_insert``: copy the table rows of ``seqs`` to items ``n, n +
    1, ...`` (their bounds and exact weights start at the row's weight),
    then connect each new item in order to the older items ``[head, n +
    k)`` as :func:`_scan_flat` does, appending the touched indices to
    ``hits``.  Returns the number of edges."""
    return _KERNEL.insert(
        table, base, seqs, len(seqs), items, head, n, upper, exact, dirty,
        hits,
    )


def _max_flat(values: array, lo: int) -> float:
    """``max(values[lo:])``, the first of equal maxima; ``0.0`` when
    empty."""
    return _KERNEL.max(values, lo, len(values))


def _above_flat(values: array, lo: int, relax: float, rho: float) -> int:
    """The first index ``j ≥ lo`` with ``relax * values[j] > rho``, or
    ``len(values)``."""
    return _KERNEL.above(values, lo, len(values), relax, rho)


def _local_flat(items: array, i: int, n: int) -> _Cell | None:
    """The sweep of flat item ``i`` with its neighbours — the items in
    ``(i, n)`` that overlap it — each clipped to it, in index order
    (``maxrs_local``); ``None`` when it has none."""
    out = array("d", _OUT)
    found = _KERNEL.local(items, i, n, out)
    if found < 0:
        raise MemoryError("plane sweep kernel out of memory")
    return out if found else None


def _cell_flat(
    items: array,
    head: int,
    n: int,
    extent: Sequence[float],
    upper: array,
    exact: array,
) -> tuple[int, array]:
    """``maxrs_cell``: sweep the flat items ``[head, n)`` clipped to the
    cell ``extent`` ``(x1, y1, x2, y2)`` once; cap every bound ``upper[j]``
    at the sweep's max plus its rounding slack (never below
    ``exact[j]``).  Returns the anchor — the oldest item holding the
    max face, or ``-1`` when the bounds were left alone — and the
    answer ``(M, x1, y1, x2, y2, M⁺)``."""
    out = array("d", _OUT6)
    anchor = _KERNEL.cell(items, head, n, *extent, upper, exact, out)
    if anchor == -2:
        raise MemoryError("plane sweep kernel out of memory")
    return anchor, out


def _pack(items: Iterable[tuple[Rect, float]]) -> array:
    """``(rect, weight)`` pairs as a flat ``array('d')``, 5 per item."""
    return array(
        "d", [v for r, w in items for v in (r.x1, r.y1, r.x2, r.y2, w)]
    )


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
    found = _topk_flat(_pack((wr.rect, wr.weight) for wr in rects))
    # stable: equal weights keep the order the sweep offered them in
    ranked = sorted(range(0, len(found), 5), key=found.__getitem__, reverse=True)
    return [
        Region(
            rect=Rect(found[b + 1], found[b + 2], found[b + 3], found[b + 4]),
            weight=found[b],
        )
        for b in ranked[:k]
    ]


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
