"""Differential tests: the compiled sweep kernel against the Python tree.

``repro.core.planesweep`` runs every max sweep through ``_sweep.c`` when
it compiled and loaded at import, and through the Python segment tree
otherwise.  The two must agree bit for bit, so every comparison here is
on ``float.hex`` of the weight and of all four region coordinates, over
inputs chosen to stress the tie rules: grid-aligned rectangles with
shared edges, degenerate rectangles, duplicated x coordinates, ``-0.0``
next to ``0.0``, and zero and negative weights.  The loader tests force
the build or the load to fail and check that the Python tree then
answers, identically and without raising.
"""

from __future__ import annotations

import ctypes
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planesweep
from repro.core.geometry import Rect
from repro.core.graph import Vertex
from repro.core.objects import SpatialObject, WeightedRect
from repro.core.planesweep import (
    local_plane_sweep_cached,
    plane_sweep_max,
    sweep_items_max,
)

needs_kernel = pytest.mark.skipif(
    planesweep._KERNEL is None, reason="compiled sweep kernel not loaded"
)

#: tie-heavy coordinates: a half-unit grid with both signed zeros
GRID = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
WEIGHTS = (0.0, -0.0, -1.0, 0.1, 0.2, 0.3, 1.0, 2.5, -0.7, 1e-17)


def _python(fn, *args):
    """``fn(*args)`` with the compiled kernel switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planesweep, "_KERNEL", None)
        return fn(*args)


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
    python = _hex_items(_python(sweep_items_max, items))
    assert compiled == python


def _assert_same_vertex_sweeps(anchor, rounds) -> None:
    """Grow two vertices identically; sweep one per kernel each round."""
    fast = Vertex(anchor, seq=0)
    slow = Vertex(anchor, seq=0)
    for batch in rounds:
        fast.neighbors.extend(batch)
        slow.neighbors.extend(batch)
        compiled = local_plane_sweep_cached(fast)
        python = _python(local_plane_sweep_cached, slow)
        assert _hex_region(compiled) == _hex_region(python)
        assert fast.clip_items == slow.clip_items


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


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(raw=st.lists(item, max_size=40))
def test_sweep_items_max_bit_identical(raw):
    _assert_same_items(_as_items(raw))


@needs_kernel
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


@needs_kernel
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "uniform"])
def test_seeded_sizes_bit_identical(grid):
    rng = random.Random(20161)
    for n in (0, 1, 2, 3, 15, 16, 17, 33, 100, 257, 600, 2000):
        _assert_same_items(_items(rng, n, grid))


@needs_kernel
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


@needs_kernel
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


@needs_kernel
def test_degenerate_and_empty_inputs():
    assert sweep_items_max([]) is None
    flat = [(Rect(0, 0, 0, 5), 1.0), (Rect(1, 1, 4, 1), 2.0)]
    assert sweep_items_max(flat) is None
    assert _python(sweep_items_max, flat) is None


# -- loader failures fall back to the Python tree ---------------------------


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


@pytest.mark.parametrize("failure", ["no_compiler", "build", "load"])
def test_loader_failure_falls_back_to_python(failure, monkeypatch, tmp_path):
    expected = _answers()
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    if failure == "no_compiler":
        monkeypatch.setattr(planesweep.shutil, "which", lambda _name: None)
    elif failure == "build":
        monkeypatch.setattr(planesweep, "_build", _fail)
    else:
        monkeypatch.setattr(ctypes, "PyDLL", _fail)
    with pytest.warns(RuntimeWarning, match="sweep kernel unavailable"):
        kernel = planesweep._load_kernel()
    assert kernel is None
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == expected


def test_unloadable_cached_library_falls_back(monkeypatch, tmp_path):
    """A damaged file under the cache key fails to load and cannot be
    rebuilt; the Python tree answers instead."""
    expected = _answers()
    (tmp_path / planesweep._kernel_name()).write_bytes(b"not an ELF file")
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(planesweep, "_build", _fail)
    with pytest.warns(RuntimeWarning, match="sweep kernel unavailable"):
        kernel = planesweep._load_kernel()
    assert kernel is None
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == expected


@needs_kernel
def test_loader_builds_into_an_empty_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path / "c")
    kernel = planesweep._load_kernel()
    assert kernel is not None
    built = list((tmp_path / "c").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_sweep-")
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == _python(_answers)


@needs_kernel
def test_unloadable_cached_library_is_rebuilt(monkeypatch, tmp_path):
    """A damaged file under the cache key is rebuilt once and loaded."""
    damaged = tmp_path / planesweep._kernel_name()
    damaged.write_bytes(b"not an ELF file")
    monkeypatch.setattr(planesweep, "_cache_dir", lambda: tmp_path)
    kernel = planesweep._load_kernel()
    assert kernel is not None
    assert damaged.read_bytes()[:4] == b"\x7fELF"
    monkeypatch.setattr(planesweep, "_KERNEL", kernel)
    assert _answers() == _python(_answers)
