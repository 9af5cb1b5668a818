"""Differential tests: the compiled kernel against the Python reference.

``repro.core.planesweep`` runs every max sweep, every top-k candidate
collection, and the graph cells' connect scan, gather-clip-sweep and
bound maximum, through ``_sweep.c``; ``tests/reference_kernel.py`` holds
the Python each entry point ports.  The two must agree bit for bit, so
every comparison here is on ``float.hex`` of the weight and of all four
region coordinates (and of every vertex bound), over inputs chosen to
stress the tie rules: grid-aligned rectangles with shared edges,
degenerate rectangles, duplicated x coordinates, ``-0.0`` next to
``0.0``, and zero and negative weights.  The ingest guard's batch pass
builds the same objects as its twin from the same records, each holding
the record's own values, and leaves the same records to the general
path.  Every entry point checks its
arrays' typecodes and every index and count against their lengths, and
raises rather than read or write past one.  The loader tests force the
build or the load to fail and check that the import then raises
:class:`~repro.errors.KernelUnavailableError`, naming the compiler, the
Python headers and the cache directory.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from array import array
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from conftest import connect_rect
import repro
from reference_kernel import on_reference, use_reference
from repro.core import planesweep
from repro.core.ag2 import AG2Monitor
from repro.core.allmax import plane_sweep_all_max
from repro.core.cells import S_HWM, CellTable
from repro.core.g2 import G2Monitor
from repro.core.geometry import Rect
from repro.core.graph import ArrivalTable, CellGraph
from repro.core.grid import UniformGrid
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, WeightedRect
from repro.core.planesweep import (
    _local_flat,
    _pack,
    local_plane_sweep_cached,
    plane_sweep_max,
    plane_sweep_topk,
    sweep_items_max,
)
from repro.core.sampling import SamplingMonitor
from repro.core.topk import TopKAG2Monitor
from repro.durability import WriteAheadLog, scan_wal
from repro.errors import KernelUnavailableError
from repro.resilience import CheckpointManager, IngestGuard, coerce_record
from repro.window import CountWindow

#: tie-heavy coordinates: a half-unit grid with both signed zeros
GRID = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
WEIGHTS = (0.0, -0.0, -1.0, 0.1, 0.2, 0.3, 1.0, 2.5, -0.7, 1e-17)


def _hex_items(result) -> tuple[str, ...] | None:
    if result is None:
        return None
    weight, rect = result
    return tuple(v.hex() for v in (weight, rect.x1, rect.y1, rect.x2, rect.y2))


def _hex_region(region) -> tuple[str, ...]:
    r = region.rect
    return tuple(
        float(v).hex() for v in (region.weight, r.x1, r.y1, r.x2, r.y2)
    )


def _rect(rng: random.Random, grid: bool) -> Rect:
    if grid:
        x1, x2 = sorted((rng.choice(GRID), rng.choice(GRID)))
        y1, y2 = sorted((rng.choice(GRID), rng.choice(GRID)))
        return Rect(x1, y1, x2, y2)
    x1, y1 = rng.uniform(-10, 10), rng.uniform(-10, 10)
    return Rect(x1, y1, x1 + rng.uniform(0, 5), y1 + rng.uniform(0, 5))


def _items(rng: random.Random, n: int, grid: bool) -> list[tuple[Rect, float]]:
    return [
        (
            _rect(rng, grid),
            rng.choice(WEIGHTS) if rng.random() < 0.7 else rng.uniform(-3, 3),
        )
        for _ in range(n)
    ]


def _wrect(rect: Rect, weight: float) -> WeightedRect:
    """A rectangle of any weight; stream objects only carry |weight|."""
    cx, cy = rect.center
    obj = SpatialObject(x=cx, y=cy, weight=abs(weight))
    return WeightedRect(rect=rect, weight=weight, obj=obj)


def _assert_same_items(items) -> None:
    compiled = _hex_items(sweep_items_max(items))
    python = _hex_items(on_reference(sweep_items_max, items))
    assert compiled == python


def _assert_same_vertex_sweeps(anchor, rounds) -> None:
    """Grow one cell round by round; after each round sweep every live
    vertex with both kernels, then settle it."""
    graph = CellGraph()
    seq = 0
    for batch in [[anchor], *rounds]:
        for wr in batch:
            connect_rect(graph, wr, seq)
            seq += 1
        for v in graph:
            compiled = local_plane_sweep_cached(v)
            python = on_reference(local_plane_sweep_cached, v)
            assert _hex_region(compiled) == _hex_region(python)
            graph.settle(v.index, compiled)


def _hex_bounds(graph: CellGraph) -> list[str]:
    return [u.hex() for u in graph.upper]


def _assert_same_connects(rects) -> None:
    """Connect the same rectangles into two cells, one per kernel: the
    touched indices, every bound and every dirty flag must agree after
    each arrival, and so must the bound maximum and the Rule 2 scan."""
    fast, slow = CellGraph(), CellGraph()
    fast_hits, slow_hits = array("q"), array("q")
    for seq, wr in enumerate(rects):
        touched = connect_rect(fast, wr, seq, fast_hits)
        assert on_reference(connect_rect, slow, wr, seq, slow_hits) == touched
        assert fast_hits == slow_hits
        assert _hex_bounds(fast) == _hex_bounds(slow)
        assert fast.dirty == slow.dirty
        assert fast.max_upper().hex() == on_reference(slow.max_upper).hex()
        for rho in (-0.0, 0.0, *fast.upper[-3:]):
            for relax in (1.0, 0.75):
                assert fast.next_above(0, relax, rho) == on_reference(
                    slow.next_above, 0, relax, rho
                )


def _assert_same_local_sweeps(items) -> None:
    """``maxrs_local`` against its reference for every item of one flat
    buffer."""
    buf = _pack(items)
    for i in range(len(items)):
        compiled = _local_flat(buf, i, len(items))
        python = reference_kernel.local_flat(buf, i, len(items))
        assert (compiled is None) == (python is None)
        if compiled is not None:
            assert [v.hex() for v in compiled] == [v.hex() for v in python]


item = st.tuples(
    st.sampled_from(GRID), st.sampled_from(GRID),
    st.sampled_from(GRID), st.sampled_from(GRID),
    st.one_of(
        st.sampled_from(WEIGHTS),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    ),
)


def _as_items(raw) -> list[tuple[Rect, float]]:
    out = []
    for a, b, c, d, w in raw:
        x1, x2 = sorted((a, b))
        y1, y2 = sorted((c, d))
        out.append((Rect(x1, y1, x2, y2), w))
    return out


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(item, max_size=40))
def test_sweep_items_max_bit_identical(raw):
    _assert_same_items(_as_items(raw))


@settings(max_examples=100, deadline=None)
@given(
    anchor=item,
    rounds=st.lists(st.lists(item, max_size=8), min_size=1, max_size=5),
)
def test_cached_vertex_sweep_bit_identical(anchor, rounds):
    (rect, weight), = _as_items([anchor])
    _assert_same_vertex_sweeps(
        _wrect(rect, weight),
        [[_wrect(r, w) for r, w in _as_items(batch)] for batch in rounds],
    )


@settings(max_examples=150, deadline=None)
@given(raw=st.lists(item, max_size=30))
def test_connect_bit_identical(raw):
    _assert_same_connects([_wrect(r, w) for r, w in _as_items(raw)])


@settings(max_examples=150, deadline=None)
@given(raw=st.lists(item, max_size=30))
def test_local_sweep_bit_identical(raw):
    _assert_same_local_sweeps(_as_items(raw))


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "uniform"])
def test_seeded_connect_and_local_bit_identical(grid):
    rng = random.Random(20162)
    for n in (0, 1, 2, 17, 100, 400):
        items = _items(rng, n, grid)
        _assert_same_connects([_wrect(r, w) for r, w in items])
        _assert_same_local_sweeps(items)


def test_signed_zero_bounds_and_clips():
    """``-0.0`` weights and coordinates reach the bounds and the clips
    exactly as Python's float add and min/max leave them."""
    items = [
        (Rect(-0.0, 0.0, 1.0, 1.0), -0.0),
        (Rect(0.0, -0.0, 2.0, 1.0), -0.0),
        (Rect(-1.0, -1.0, 0.0, 0.0), 0.0),
        (Rect(-0.5, -0.5, 0.5, 0.5), -0.0),
    ]
    _assert_same_connects([_wrect(r, w) for r, w in items])
    _assert_same_local_sweeps(items)


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "uniform"])
def test_seeded_sizes_bit_identical(grid):
    rng = random.Random(20161)
    for n in (0, 1, 2, 3, 15, 16, 17, 33, 100, 257, 600, 2000):
        _assert_same_items(_items(rng, n, grid))


def test_seeded_vertex_growth_bit_identical():
    rng = random.Random(15)
    for _ in range(40):
        grid = rng.random() < 0.5
        anchor = _wrect(*_items(rng, 1, grid)[0])
        rounds = [
            [_wrect(r, w) for r, w in _items(rng, rng.randrange(0, 30), grid)]
            for _ in range(rng.randrange(1, 6))
        ]
        _assert_same_vertex_sweeps(anchor, rounds)


def test_signed_zero_keeps_first_in_input_order():
    """Equal x values -0.0 and 0.0 share a slot named by the first one
    in input order; both kernels must report that same zero."""
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        items = [
            (Rect(first, -0.0, 1.0, 1.0), 1.0),
            (Rect(second, 0.0, 2.0, 1.0), 1.0),
        ]
        _assert_same_items(items)
        _, rect = sweep_items_max(items)
        assert rect.x1.hex() == first.hex()


def test_degenerate_and_empty_inputs():
    assert sweep_items_max([]) is None
    flat = [(Rect(0, 0, 0, 5), 1.0), (Rect(1, 1, 4, 1), 2.0)]
    assert sweep_items_max(flat) is None
    assert on_reference(sweep_items_max, flat) is None


# -- top-k: maxrs_topk against the reference candidate collection ----------


def _hex_ranked(regions) -> list[tuple[str, ...]]:
    return [_hex_region(r) for r in regions]


def _assert_same_topk(items) -> None:
    """Every candidate of ``maxrs_topk``, in order, and the ranked
    ``plane_sweep_topk`` answers for small and oversized ``k``, equal the
    reference's.  With no negative weight (stream objects carry none)
    the top-1 is ``plane_sweep_max``'s weight: the same covering
    weights, summed in another association."""
    buf = _pack(items)
    compiled = planesweep._topk_flat(buf)
    python = reference_kernel.topk_flat(buf)
    assert [v.hex() for v in compiled] == [v.hex() for v in python]
    rects = [_wrect(r, w) for r, w in items]
    candidates = len(compiled) // 5
    for k in (1, 2, 5, candidates + 3):
        top = plane_sweep_topk(rects, k)
        assert _hex_ranked(top) == _hex_ranked(
            on_reference(plane_sweep_topk, rects, k)
        )
        assert len(top) == min(k, candidates)
    best = plane_sweep_max(rects)
    top = plane_sweep_topk(rects, 1)
    assert (best is None) == (top == [])
    if best is not None and all(w >= 0 for _, w in items):
        assert top[0].weight == pytest.approx(best.weight, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(item, max_size=40))
def test_topk_candidates_bit_identical(raw):
    _assert_same_topk(_as_items(raw))


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "uniform"])
def test_seeded_topk_bit_identical(grid):
    rng = random.Random(20163)
    for n in (0, 1, 2, 3, 16, 17, 100, 600):
        _assert_same_topk(_items(rng, n, grid))


def test_topk_ties_signed_zero_and_degenerate_items():
    """Stacked equal rectangles tie in one cell, equal weights tie across
    cells (stable order), ``-0.0`` names the shared slot, and zero-area
    items offer nothing."""
    items = [
        (Rect(-0.0, 0.0, 1.0, 1.0), 1.0),
        (Rect(0.0, -0.0, 1.0, 1.0), 1.0),
        (Rect(2.0, 0.0, 3.0, 1.0), 2.0),
        (Rect(4.0, 0.0, 5.0, 1.0), -0.0),
        (Rect(0.0, 0.0, 0.0, 5.0), 9.0),
        (Rect(1.0, 1.0, 4.0, 1.0), 9.0),
    ]
    _assert_same_topk(items)
    top = plane_sweep_topk([_wrect(r, w) for r, w in items], 10)
    assert [r.weight for r in top] == [2.0, 2.0, -0.0]
    assert top[0].rect.x1.hex() == (-0.0).hex()
    assert plane_sweep_topk([_wrect(r, w) for r, w in items[4:]], 3) == []


# -- whole monitors: compiled and reference runs give the same answers -----


def _monitors():
    return {
        "g2": G2Monitor(2.0, 2.0, CountWindow(40)),
        "ag2": AG2Monitor(2.0, 2.0, CountWindow(40)),
        "ag2_eps": AG2Monitor(2.0, 2.0, CountWindow(40), epsilon=0.25),
        "topk": TopKAG2Monitor(2.0, 2.0, CountWindow(40), k=3),
    }


def _run_monitors(batches) -> dict:
    """Every monitor's answers (``float.hex`` of every region) and
    stats counters over the batches."""
    out = {}
    for name, monitor in _monitors().items():
        answers = []
        for batch in batches:
            result = monitor.update(batch)
            answers.append(
                [(*_hex_region(r), r.anchor_oid) for r in result.regions]
            )
        monitor_stats = monitor.stats
        out[name] = (
            answers,
            monitor_stats.local_sweeps,
            monitor_stats.overlap_tests,
            monitor_stats.vertices_pruned,
            monitor_stats.cells_pruned,
            monitor_stats.cells_visited,
        )
        if hasattr(monitor, "check_invariants"):
            monitor.check_invariants()
    return out


point = st.tuples(
    st.sampled_from(GRID), st.sampled_from(GRID),
    st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 1e-17)),
)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.lists(point, max_size=12), min_size=1, max_size=8
    )
)
def test_monitors_bit_identical_across_kernels(raw):
    """G2, aG2 (exact and ε > 0) and top-k over tie-heavy points (a
    half-unit grid scaled by 2, both signed zeros, equal weights, a
    query side of 2, so rectangles share edges and corners): the
    compiled and the reference runs report ``float.hex``-identical regions
    with equal counters."""
    batches = [
        [SpatialObject(x=x * 2.0, y=y * 2.0, weight=w) for x, y, w in b]
        for b in raw
    ]
    assert _run_monitors(batches) == on_reference(_run_monitors, batches)


class _NoKernel:
    """A ``_KERNEL`` whose every entry point fails the test."""

    def __getattr__(self, name: str):
        raise AssertionError(f"maxrs_{name} ran under the reference seam")


def test_reference_seam_reaches_no_kernel_call(monkeypatch, tmp_path):
    """Under the seam nothing calls the library: every graph monitor,
    naive (k = 1 and top-k), the sampling monitor, AllMaxRS, the
    ingest guard, a WAL append and a checkpoint answer with ``_KERNEL``
    replaced by an object that fails on any entry point, so no
    kernel-vs-reference differential compares the kernel with itself."""
    rng = random.Random(11)
    batches = [
        [SpatialObject(x=rng.uniform(0, 8), y=rng.uniform(0, 8),
                       weight=rng.choice((0.5, 1.0, 2.0)))
         for _ in range(12)]
        for _ in range(6)
    ]
    expected = _run_monitors(batches)
    use_reference(monkeypatch)
    monkeypatch.setattr(planesweep, "_KERNEL", _NoKernel())
    assert _run_monitors(batches) == expected
    for monitor in (
        NaiveMonitor(2.0, 2.0, CountWindow(40)),
        NaiveMonitor(2.0, 2.0, CountWindow(40), k=3),
        SamplingMonitor(2.0, 2.0, CountWindow(40), epsilon=0.5, seed=1),
    ):
        for batch in batches:
            monitor.update(batch)
    items = _items(rng, 30, grid=True)
    assert plane_sweep_all_max([_wrect(r, abs(w)) for r, w in items])
    records = _e2e_records(3)
    assert IngestGuard().filter(records) == [coerce_record(r) for r in records]
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append_batch(batches[0])
    assert [b for _, b in scan_wal(tmp_path / "wal").batches] == [batches[0]]
    naive = NaiveMonitor(2.0, 2.0, CountWindow(40))
    naive.ingest(batches[1])
    manager = CheckpointManager(naive, tmp_path / "ckpt.json")
    manager.checkpoint()
    restored, _ = CheckpointManager.load(manager.path)
    assert restored.window.contents == naive.window.contents


# -- the ingest guard's batch pass --------------------------------------------

FIELDS = ("x", "y", "weight", "timestamp", "oid")


class _Key(str):
    """A str subclass key: equal to its text, not exactly a str."""


class _Payload(dict):
    """A dict subclass: not the wire shape."""


#: values a field may hold that the kernel must refuse or check
odd_values = st.one_of(
    st.sampled_from([
        -0.0, -1.0, -1e-300, float("nan"), float("inf"), -float("inf"),
        True, None, "1.5", 2**64,
    ]),
    st.integers(-3, 3),
    st.floats(),
)
good_values = {
    "x": st.floats(-1e6, 1e6),
    "y": st.floats(-1e6, 1e6),
    "weight": st.floats(0.0, 1e6),
    "timestamp": st.one_of(st.floats(allow_nan=False), st.just(-0.0)),
    "oid": st.integers(-(2**70), 2**70),
}


@st.composite
def wire_records(draw):
    """Mostly the wire shape, each field sometimes absent or odd, with
    extra keys (some not exactly str), dict subclasses, tuples and
    objects among them."""
    kind = draw(st.integers(0, 9))
    if kind == 7:
        return tuple(draw(st.lists(good_values["x"], min_size=2, max_size=5)))
    if kind == 8:
        return SpatialObject(draw(good_values["x"]), draw(good_values["y"]))
    if kind == 9:
        return draw(st.sampled_from([None, "x", 3, 1.5, b"", [1.0, 2.0]]))
    record = {}
    for name in FIELDS:
        if draw(st.integers(0, 9)):
            odd = not draw(st.integers(0, 3))
            record[name] = draw(odd_values if odd else good_values[name])
    if not draw(st.integers(0, 4)):
        key = draw(st.sampled_from(["extra", 0, 1.5, b"x", _Key("w")]))
        record[key] = draw(st.sampled_from([None, 1.0, "v"]))
    if not draw(st.integers(0, 9)) and "x" in record:
        record[_Key("x")] = record.pop("x")
    return _Payload(record) if kind == 6 else record


def _assert_same_admission(records, twin=reference_kernel.admit) -> None:
    """``maxrs_admit`` against ``twin``: the same records built, each
    object holding its record's own value objects and equal to the one
    ``coerce_record`` builds on the general path."""
    got = planesweep._KERNEL.admit(records, SpatialObject)
    want = twin(records, SpatialObject)
    assert len(got) == len(want) == len(records)
    for record, g, w in zip(records, got, want):
        assert (g is None) == (w is None), record
        if g is None:
            continue
        assert type(g) is SpatialObject
        assert all(getattr(g, f) is record[f] for f in FIELDS)
        assert repr(g) == repr(w) and g == w
        general = coerce_record(record)
        assert all(getattr(general, f) is record[f] for f in FIELDS)


@settings(max_examples=400, deadline=None)
@given(records=st.lists(wire_records(), max_size=30))
def test_admit_matches_the_reference(records):
    _assert_same_admission(records)


def _e2e_records(n: int) -> list[dict]:
    """``n`` records in the end-to-end benchmark's shape, every value a
    fresh object."""
    return [
        {"x": 0.5 + i, "y": 1e3 / (i + 3), "weight": i / 7,
         "timestamp": float(i), "oid": 2**65 + i}
        for i in range(n)
    ]


def test_admitted_objects_outlive_their_records():
    """Each object owns a reference to each value: dropping the records
    frees nothing the objects hold, and dropping the objects gives every
    reference back."""
    records = _e2e_records(200)
    expected = [tuple(r[f] for f in FIELDS) for r in records]
    probe = records[7]["x"]
    held = sys.getrefcount(probe)
    objs = planesweep._KERNEL.admit(records, SpatialObject)
    assert sys.getrefcount(probe) == held + 1
    del records
    gc.collect()
    churn = [float(i) + 0.25 for i in range(20000)]
    assert [tuple(getattr(o, f) for f in FIELDS) for o in objs] == expected
    del churn
    held = sys.getrefcount(probe)
    objs.pop(7)
    assert sys.getrefcount(probe) == held - 1


def test_admitted_objects_behave_as_constructed():
    """A built object is tracked by the GC, compares, hashes and prints
    as the twin's, and is as frozen."""
    record = {"x": 1.25, "y": -0.0, "weight": 0.0,
              "timestamp": float("-inf"), "oid": 2**70}
    [got] = planesweep._KERNEL.admit([record], SpatialObject)
    [twin] = reference_kernel.admit([record], SpatialObject)
    assert gc.is_tracked(got) == gc.is_tracked(twin) is True
    assert got == twin and hash(got) == hash(twin)
    assert repr(got) == repr(twin)
    assert got == SpatialObject(1.25, -0.0, 0.0, float("-inf"), 2**70)
    for obj in (got, twin):
        with pytest.raises(FrozenInstanceError):
            obj.x = 2.0
        with pytest.raises(FrozenInstanceError):
            del obj.oid
        assert not hasattr(obj, "__dict__")


def _lenient_admit(records, cls):
    """Mutant twin: admits a negative weight and an int coordinate,
    setting the slots as the kernel does, past ``__post_init__``."""
    out = []
    for record in records:
        obj = None
        if type(record) is dict and all(f in record for f in FIELDS):
            values = [record[f] for f in FIELDS]
            if type(values[4]) is int and all(
                type(v) in (int, float) for v in values[:4]
            ):
                obj = object.__new__(cls)
                for name, value in zip(FIELDS, values):
                    object.__setattr__(obj, name, value)
        out.append(obj)
    return out


@pytest.mark.parametrize("mutant", [False, True], ids=["strict", "lenient"])
def test_a_lenient_admission_is_caught(mutant):
    """The differential names a twin that admits what the kernel leaves
    to the general path: a negative weight, an int coordinate."""
    base = {"x": 1.0, "y": 2.0, "weight": 1.0, "timestamp": 0.0, "oid": 1}
    for bad in ({"weight": -1.0}, {"x": 3}):
        records = [dict(base), {**base, **bad}]
        if mutant:
            with pytest.raises(AssertionError):
                _assert_same_admission(records, _lenient_admit)
        else:
            _assert_same_admission(records)


# -- every entry point checks its arguments ---------------------------------


def _flat(n: int, spare: int = 0) -> array:
    """``n`` overlapping unit-weight items in a row, then ``spare``
    zeroed rows."""
    return array(
        "d", [v for k in range(n) for v in (k, 0.0, k + 2.0, 1.0, 1.0)]
    ) + array("d", bytes(40 * spare))


def _zeros(code: str, n: int) -> array:
    return array(code, bytes(array(code).itemsize * n))


def _routed() -> tuple[CellTable, ArrivalTable, int]:
    """A cell table with room for one routed batch not yet mapped."""
    table = ArrivalTable(base=10)
    start = table.route(
        [SpatialObject(x=1.0 + k, y=1.0, weight=1.0) for k in range(3)],
        2.0, 2.0, UniformGrid(2.0),
    )
    cells = CellTable()
    cells.reserve(table.pairs, len(table))
    return cells, table, start


def _mapped() -> tuple[CellTable, ArrivalTable]:
    cells, table, start = _routed()
    cells.map(table, start)
    return cells, table


def _bad_table(cells: CellTable) -> tuple:
    """The table's arrays with a heap entry array shorter than its
    bounds: every heap index past it."""
    arrays = cells.arrays
    return arrays[:5] + (array("q"),) + arrays[6:]


def _args(name: str) -> tuple[list, list, list, list]:
    """A valid call of entry point ``name``: its arguments; the
    ``(position, value)`` replacements that put an index or count past a
    buffer, and those that pass an array of the wrong typecode; and the
    sets of positions that take ``None`` together."""
    if name == "admit":
        return (
            [_e2e_records(3), SpatialObject],
            [],
            [(0, tuple(_e2e_records(3))), (0, iter(_e2e_records(3))),
             (0, None), (1, 3), (1, None), (1, int), (1, WeightedRect)],
            [],
        )
    if name == "columns":
        run = [SpatialObject(x=1.0 + k, y=2.0, oid=k) for k in range(3)]
        return (
            [run, SpatialObject],
            [],
            [(0, iter(run)), (0, None), (0, {0: run[0]}), (1, 3),
             (1, None), (1, int), (1, WeightedRect)],
            [],
        )
    if name == "ints":
        return (
            [[0, -1, 2**63 - 1]],
            [],
            [(0, (0, 1)), (0, iter([0])), (0, None)],
            [],
        )
    if name in ("sweep", "topk"):
        out = _zeros("d", 5 if name == "sweep" else 20)
        return (
            [_flat(4), 4, out],
            [(1, 5), (1, -1), (2, _zeros("d", 4))],
            [(0, array("f", _flat(4))), (2, _zeros("q", len(out)))],
            [],
        )
    if name == "connect":
        return (
            [_flat(4), 0, 1, 4, _zeros("d", 4), _zeros("b", 4),
             _zeros("q", 3)],
            [(1, 4), (1, -1), (2, -1), (3, 5), (4, _zeros("d", 3)),
             (5, _zeros("b", 3)), (5, None), (6, _zeros("q", 2))],
            [(0, array("f", _flat(4))), (4, _zeros("l", 4)),
             (5, _zeros("B", 4)), (6, _zeros("d", 3))],
            [(4, 5), (6,), (4, 5, 6)],
        )
    if name == "insert":
        seqs = array("q", [10, 11, 12])
        return (
            [_flat(3), 10, seqs, 3, _flat(2, 3), 0, 2, _zeros("d", 5),
             _zeros("d", 5), _zeros("b", 5), _zeros("q", 9)],
            [(1, 11), (2, array("q", [10, 11, 13])), (3, 4),
             (4, _flat(2, 2)), (5, 3), (7, _zeros("d", 4)),
             (8, _zeros("d", 4)), (9, _zeros("b", 4)), (10, _zeros("q", 8))],
            [(0, array("f", _flat(3))), (2, array("l", seqs)),
             (7, _zeros("l", 5)), (9, _zeros("B", 5))],
            [(10,)],
        )
    if name == "local":
        return (
            [_flat(4), 0, 4, _zeros("d", 5)],
            [(1, 4), (1, -1), (2, 5), (3, _zeros("d", 4))],
            [(0, array("f", _flat(4))), (3, _zeros("f", 5))],
            [],
        )
    if name == "cell":
        return (
            [_flat(4), 0, 4, 0.0, 0.0, 10.0, 10.0, _zeros("d", 4),
             _zeros("d", 4), _zeros("d", 6)],
            [(1, -1), (2, 5), (7, _zeros("d", 3)), (8, _zeros("d", 3)),
             (9, _zeros("d", 5))],
            [(0, array("f", _flat(4))), (7, _zeros("l", 4))],
            [],
        )
    if name in ("max", "above"):
        values = array("d", [0.5, 2.0, 1.0, 3.0, 0.25])
        extra = [1.0, 0.5] if name == "above" else []
        return (
            [values, 1, 5, *extra],
            [(1, -1), (2, 6)],
            [(0, array("f", values)), (0, array("l", [1, 2, 3, 4, 5]))],
            [],
        )
    if name == "route":
        return (
            [array("d", [1.0, 1.0, 1.0, 3.0, 1.0, 1.0]), 2, 1.0, 1.0, 2.0,
             0.0, 0.0, _zeros("d", 15), 5, _zeros("q", 12), 4],
            [(1, 3), (1, -1), (8, 6), (8, -1), (10, 5)],
            [(0, array("f", [1.0] * 6)), (7, _zeros("f", 15)),
             (9, _zeros("d", 12))],
            [],
        )
    if name == "map":
        cells, table, start = _routed()
        return (
            [cells.arrays, table.rows, table.cover, table.base, start,
             len(table.objs), cells.scratch],
            [(0, _bad_table(cells)), (4, -1), (5, len(table.objs) + 1),
             (6, array("q"))],
            [(1, array("f", table.rows)), (2, array("d", table.cover)),
             (0, (array("f", cells.cw), *cells.arrays[1:]))],
            [],
        )
    cells, table = _mapped()
    if name == "purge":
        return (
            [cells.arrays, table.cover, 0, 2, table.base + 1, cells.scratch],
            [(0, _bad_table(cells)), (2, -1), (3, len(table.objs) + 1),
             (5, array("q", [0]))],
            [(1, array("d", table.cover)), (5, _zeros("l", cells.cap))],
            [],
        )
    if name == "pending":
        return (
            [cells.arrays, 0, cells.pend],
            [(0, _bad_table(cells)), (1, cells.state[S_HWM]), (1, -1),
             (2, array("q"))],
            [(2, _zeros("d", len(cells.pend)))],
            [],
        )
    if name in ("top", "top_bound"):
        return (
            [cells.arrays],
            [(0, _bad_table(cells))],
            [(0, (*cells.arrays[:6], array("d", cells.state),
                  *cells.arrays[7:])), (0, cells.arrays[:9])],
            [],
        )
    assert name == "settle"
    return (
        [cells.arrays, array("q", [0]), 1],
        [(0, _bad_table(cells)), (1, array("q", [cells.state[S_HWM]])),
         (2, 2), (2, -1)],
        [(1, array("d", [0.0]))],
        [],
    )


@pytest.mark.parametrize("name", planesweep._Kernel._fields)
def test_entry_point_checks_indices_and_typecodes(name):
    """An index or count past its buffer raises ``IndexError`` and an
    array of the wrong typecode ``TypeError``, before the kernel touches
    memory; the valid call, and ``None`` where the C side takes
    ``NULL``, work."""
    fn = getattr(planesweep._KERNEL, name)
    args, past, typecodes, nullable = _args(name)
    for error, bad in ((IndexError, past), (TypeError, typecodes)):
        for pos, value in bad:
            args, *_ = _args(name)
            args[pos] = value
            with pytest.raises(error):
                fn(*args)
    for positions in nullable:
        args, *_ = _args(name)
        for pos in positions:
            args[pos] = None
        fn(*args)
    args, *_ = _args(name)
    fn(*args)
    with pytest.raises(TypeError):
        fn(*args[:-1])


# -- loader failures raise the typed error ----------------------------------


def _answers():
    rng = random.Random(3)
    out = []
    for n in (0, 1, 7, 60):
        items = _items(rng, n, grid=n % 2 == 0)
        out.append(_hex_items(sweep_items_max(items)))
        region = plane_sweep_max([_wrect(r, w) for r, w in items])
        out.append(None if region is None else _hex_region(region))
    return out


def _fail(*_args, **_kwargs):
    raise OSError("forced failure")


def _assert_unavailable(tmp_path) -> str:
    with pytest.raises(KernelUnavailableError) as raised:
        planesweep._load_kernel()
    message = str(raised.value)
    assert "gcc" in message and str(tmp_path) in message
    assert "Python development headers" in message
    assert isinstance(raised.value, ImportError)
    return message


@pytest.mark.parametrize(
    "failure", ["no_compiler", "build", "load", "no_headers"]
)
def test_loader_failure_raises_the_typed_error(failure, monkeypatch, tmp_path):
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    if failure == "no_compiler":
        monkeypatch.setattr(planesweep.shutil, "which", lambda _name: None)
    elif failure == "build":
        monkeypatch.setattr(planesweep, "_build", _fail)
    elif failure == "load":
        monkeypatch.setattr(planesweep, "ExtensionFileLoader", _fail)
    else:  # an include directory without Python.h: the build fails
        (tmp_path / "include").mkdir()
        monkeypatch.setattr(planesweep, "_INCLUDE", str(tmp_path / "include"))
    message = _assert_unavailable(tmp_path)
    if failure == "no_headers":
        assert "Python.h" in message
        assert not any(p.suffix == ".so" for p in tmp_path.iterdir())


def test_unloadable_cached_library_raises(monkeypatch, tmp_path):
    """A damaged file under the cache key fails to load and cannot be
    rebuilt: the typed error, not a half-working import."""
    (tmp_path / planesweep._kernel_name()).write_bytes(b"not an ELF file")
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(planesweep, "_build", _fail)
    _assert_unavailable(tmp_path)


def test_loader_builds_into_an_empty_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path / "c")
    kernel = planesweep._load_kernel()
    built = list((tmp_path / "c").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_sweep-")
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == on_reference(_answers)


def test_unloadable_cached_library_is_rebuilt(monkeypatch, tmp_path):
    """A damaged file under the cache key is rebuilt once and loaded."""
    damaged = tmp_path / planesweep._kernel_name()
    damaged.write_bytes(b"not an ELF file")
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    kernel = planesweep._load_kernel()
    assert damaged.read_bytes()[:4] == b"\x7fELF"
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == on_reference(_answers)


def test_import_without_a_compiler_raises_the_typed_error(tmp_path):
    """``import repro`` on a host with no compiler on ``PATH`` and an
    empty cache exits non-zero with the typed error, which names the
    compiler it looked for and the cache directory."""
    env = {
        "PATH": "",
        "XDG_CACHE_HOME": str(tmp_path),
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
    }
    done = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "KernelUnavailableError" in done.stderr
    assert "gcc" in done.stderr
    assert str(tmp_path / "repro-maxrs") in done.stderr
