"""The batch route: ``maxrs_route`` against its twin and the Python
route, on the bytes it appends.

``cells.route_rows`` routes a batch in one compiled pass that reads
``x``, ``y`` and ``weight`` straight from the objects' slots; a batch
the kernel declines (an object that is not an exact
:class:`SpatialObject` with exact-float slots, a bound that is not
finite, a cell index beyond 2**52) goes to ``cells._route_python``.
The differential here holds the kernel, the twin in
``tests/reference_kernel.py`` and the Python route to the same ``rows``
and ``cover`` bytes, the same pair count and the same error.  A kept
mutant (a pass that swaps ``x`` and ``y``) shows the differential
catches a kernel that routes other rows.
"""

from __future__ import annotations

from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from repro.core import cells, planesweep
from repro.core.grid import UniformGrid
from repro.core.objects import SpatialObject
from repro.errors import InvalidGeometryError


class _Sub(SpatialObject):
    """A subclass object: not the exact type the kernel routes."""

    __slots__ = ()


#: coordinates near the cell lines, signed zeros, and ones whose cell
#: index passes 2**52.  ``grid._axis_cells`` steps an index by 1 until
#: the cell line it names moves, so the Python route can only be held
#: to indices whose doubles are at most a few thousand apart.
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**52, -(2.0**53) + 2.0,
                     3.0 * 2**52]),
    st.integers(-40, 40).map(lambda k: k / 4),
    st.floats(-1e12, 1e12),
)
plain = st.builds(
    SpatialObject, x=coords, y=coords,
    weight=st.floats(min_value=0.0, allow_nan=False),
)
#: objects the kernel declines: int-valued coordinates or weights, and
#: subclass objects
odd = st.one_of(
    st.builds(SpatialObject, x=st.integers(-(10**6), 10**6), y=coords),
    st.builds(SpatialObject, x=coords, y=coords,
              weight=st.integers(0, 10**6)),
    st.builds(_Sub, x=coords, y=coords),
)
halves = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1e6),
)
grids = st.builds(
    UniformGrid,
    cell_size=st.one_of(st.sampled_from([1.0, 2.0, 1e-3]),
                        st.floats(min_value=1e-3, max_value=1e6)),
    origin_x=st.sampled_from([0.0, -0.0, 0.5, -3.0]),
    origin_y=st.sampled_from([0.0, 0.25]),
)


@st.composite
def batches(draw):
    """Mostly plain objects, sometimes with one the kernel declines, as
    a list or a tuple."""
    run = draw(st.lists(plain, max_size=12))
    if not draw(st.integers(0, 3)):
        run.insert(draw(st.integers(0, len(run))), draw(odd))
    return tuple(run) if draw(st.booleans()) else run


def _appended(route, run, hw, hh, grid):
    """What ``route`` appends after a one-row prefix: ``(pairs or the
    error's text, rows bytes, cover bytes)``; a cell index beyond 64
    bits fails to append, as an ``OverflowError``."""
    rows = array("d", [7.5] * 5)
    cover = array("q", [3, 3, 4, 4])
    try:
        got = route(rows, cover, run, hw, hh, grid)
    except (InvalidGeometryError, OverflowError) as exc:
        got = f"raised {type(exc).__name__}: {exc}"
    return got, rows.tobytes(), cover.tobytes()


def _kernel_call(entry, run, hw, hh, grid):
    """One call of the entry point ``entry`` (the kernel's or the
    twin's) on zeroed room after a prefix: ``(result, rows, cover)``,
    the bytes only when it routed the batch."""
    n = len(run)
    rows = array("d", bytes(40 * (n + 1)))
    cover = array("q", bytes(32 * (n + 1)))
    got = entry(run, SpatialObject, hw, hh, grid.cell_size, grid.origin_x,
                grid.origin_y, rows, 5, cover, 4)
    if got < 0:
        return got, None, None
    return got, rows.tobytes(), cover.tobytes()


def _assert_same_route(run, hw, hh, grid, twin=reference_kernel.route):
    """The kernel and ``twin`` return the same code and write the same
    rows; ``route_rows`` on each appends what ``_route_python`` does."""
    got = _kernel_call(planesweep._KERNEL.route, run, hw, hh, grid)
    assert got == _kernel_call(twin, run, hw, hh, grid)
    plain_run = type(run) in (list, tuple) and all(
        type(o) is SpatialObject
        and all(type(getattr(o, f)) is float for f in ("x", "y", "weight"))
        for o in run
    )
    # only an object the kernel does not read is declined, and the
    # first failure decides
    assert got[0] != -3 if plain_run else got[0] < 0
    want = _appended(cells._route_python, run, hw, hh, grid)
    assert _appended(cells.route_rows, run, hw, hh, grid) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference_kernel, "route", twin)
        assert _appended(reference_kernel.route_rows, run, hw, hh,
                         grid) == want


@settings(max_examples=400, deadline=None)
@given(run=batches(), hw=halves, hh=halves, grid=grids)
def test_route_matches_the_twin_and_the_python_route(run, hw, hh, grid):
    _assert_same_route(run, hw, hh, grid)


@pytest.mark.parametrize(
    "run, hw, hh, code",
    [
        ([SpatialObject(1.0, 2.0, 3.0), SpatialObject(-0.0, 0.0)], 1.0, 1.0,
         8),
        ([SpatialObject(1e308, 0.0)], 1e308, 1.0, -1),  # x + hw overflows
        # a degenerate row (hh 0) routes, then the overflow stops it
        ([SpatialObject(1.0, 2.0), SpatialObject(1e308, 0.0)], 1e308, 0.0,
         -1),
        ([SpatialObject(1.5 * 2**52, 0.0)], 4.0, 1.0, -2),  # index > 2**52
        ([SpatialObject(1, 2.0)], 1.0, 1.0, -3),  # an int coordinate
        ([SpatialObject(1.0, 2.0, 1)], 1.0, 1.0, -3),  # an int weight
        ((_Sub(1.0, 2.0),), 1.0, 1.0, -3),
    ],
)
def test_each_outcome_of_the_pass(run, hw, hh, code):
    """The pass routes plain objects, and names the first object it
    cannot route: a bound that is not finite (-1), an index beyond
    2**52 (-2), an object it does not read (-3)."""
    grid = UniformGrid(1.0)
    assert _kernel_call(planesweep._KERNEL.route, run, hw, hh, grid)[0] == code
    _assert_same_route(run, hw, hh, grid)


def test_a_batch_the_kernel_declines_is_routed_in_python(monkeypatch):
    """An int coordinate, a subclass object or a run that is not a list
    or tuple goes to ``_route_python``, which routes the whole batch."""
    calls = []
    route_python = cells._route_python

    def spy(rows, cover, arrived, *args):
        calls.append(len(arrived))
        return route_python(rows, cover, arrived, *args)

    monkeypatch.setattr(cells, "_route_python", spy)
    grid = UniformGrid(2.0)
    good = [SpatialObject(1.0, 2.0), SpatialObject(3.5, -0.0)]
    for run in (good, tuple(good)):
        cells.route_rows(array("d"), array("q"), run, 1.0, 1.0, grid)
    assert calls == []
    for run in (good + [SpatialObject(4, 5.0)], good + [_Sub(1.0, 1.0)],
                deque(good)):
        cells.route_rows(array("d"), array("q"), run, 1.0, 1.0, grid)
    assert calls == [3, 3, 2]


def test_a_non_finite_bound_raises_the_dual_transform_error():
    """A bound that is not finite raises the error the dual transform
    raises, and nothing is appended."""
    rows, cover = array("d", [1.0] * 5), array("q", [0, 0, 0, 0])
    with pytest.raises(InvalidGeometryError) as got:
        cells.route_rows(rows, cover, [SpatialObject(0.0, 0.0),
                                       SpatialObject(1e308, 0.0)],
                         1e308, 0.0, UniformGrid(1.0))
    with pytest.raises(InvalidGeometryError) as want:
        SpatialObject(1e308, 0.0).to_rect(2e308, 0.0)
    assert str(got.value) == str(want.value)
    assert len(rows) == 5 and len(cover) == 4


def _swapped(run, cls, hw, hh, cs, ox, oy, rows, r0, cover, c0):
    """Mutant twin: routes each object at ``(y, x)``."""
    if type(run) in (list, tuple) and all(type(o) is cls for o in run):
        run = [cls(o.y, o.x, o.weight, o.timestamp, o.oid) for o in run]
    return reference_kernel.route(
        run, cls, hw, hh, cs, ox, oy, rows, r0, cover, c0
    )


@pytest.mark.parametrize("mutant", [False, True], ids=["kernel", "swapped"])
def test_a_pass_that_swaps_x_and_y_is_caught(mutant):
    run = [SpatialObject(1.0, 2.5, 1.0), SpatialObject(4.0, -3.0, 2.0)]
    grid = UniformGrid(1.0)
    if mutant:
        with pytest.raises(AssertionError):
            _assert_same_route(run, 0.5, 0.25, grid, _swapped)
    else:
        _assert_same_route(run, 0.5, 0.25, grid)
