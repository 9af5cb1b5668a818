"""The durable column pass: ``maxrs_columns`` against its twin, and the
bytes that reach disk through it.

``objects_to_columns`` packs a list or tuple of plain stream objects in
one compiled pass (``objects.pack_columns``) and every other run field
by field in Python.  Every snapshot, checkpoint and WAL batch payload
goes through it, so the two must give the same bytes: the differential
here compares the column form, a framed WAL record and a whole
checkpoint file on the kernel and on ``tests/reference_kernel.py``, and
holds all three to the general path and the checkpoint file to
``json.dumps`` of its document; the checkpoint's oid list, written by
``maxrs_ints``, is held to ``json.dumps`` on its own too.  Kept mutants (a pass that drops the
sign of ``-0.0``, one that swaps two columns) show the differential
catches a kernel that writes other bytes.

The WAL splices a batch or spill payload from the packed columns and
the compact oid text (``encode_objects_payload``); every frame it
writes must equal ``encode_record(seq, encode_payload(document))``
byte for byte, on the kernel and on the reference.  A kept mutant (an
oid writer that puts ``", "`` between oids) shows that check catches a
splice with other separators.
"""

from __future__ import annotations

import json
import tempfile
import zlib
from array import array
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import reference_kernel as on_the_reference
from repro import persist
from repro.core import objects as objects_module
from repro.core import planesweep
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, objects_to_columns, pack_doubles
from repro.durability import WriteAheadLog
from repro.durability import record as record_module
from repro.durability.record import (
    encode_objects_payload,
    encode_payload,
    encode_record,
    objects_to_payload,
)
from repro.resilience import CheckpointManager
from repro.window import CountWindow
from test_durable_columns import finite, spatial_objects


class _Sub(SpatialObject):
    """A subclass object: not the exact type the kernel packs."""

    __slots__ = ()


#: objects the kernel leaves to the general path
odd_objects = st.one_of(
    st.builds(SpatialObject, x=st.integers(-(10**6), 10**6), y=finite),
    st.builds(SpatialObject, x=finite, y=finite,
              weight=st.integers(0, 10**6)),
    st.builds(_Sub, x=finite, y=finite, oid=st.integers(0, 2**70)),
)


@st.composite
def runs(draw):
    """Mostly plain objects, sometimes with one odd object in among
    them, as a list or a tuple."""
    run = draw(st.lists(spatial_objects, max_size=30))
    if not draw(st.integers(0, 3)):
        run.insert(draw(st.integers(0, len(run))), draw(odd_objects))
    return tuple(run) if draw(st.booleans()) else run


def _general_columns(run) -> dict:
    """The column form on the general path, field by field."""
    return {
        "oid": [o.oid for o in run],
        "x": pack_doubles([o.x for o in run]),
        "y": pack_doubles([o.y for o in run]),
        "weight": pack_doubles([o.weight for o in run]),
        "timestamp": pack_doubles([o.timestamp for o in run]),
    }


def _dumps_file(batch_index: int, state: dict) -> bytes:
    """A format-2 checkpoint file as ``json.dumps`` of its document."""
    blob = (
        f'{{"format": 2, "batch_index": {batch_index}, '
        f'"state": {json.dumps(state)}'
    ).encode()
    return blob + b', "crc32": %d}' % (zlib.crc32(blob) & 0xFFFFFFFF)


def _durable_bytes(run, directory: Path) -> tuple:
    """The column form of ``run``, its framed WAL batch record, and the
    checkpoint file of a monitor holding it, with the ``json.dumps``
    form of that file."""
    record = encode_record(
        7,
        encode_payload(
            {"kind": "batch", "index": 3, "objects": objects_to_payload(run)}
        ),
    )
    monitor = NaiveMonitor(10, 10, CountWindow(64))
    if run:
        monitor.ingest(list(run))
    path = directory / "ckpt.json"
    CheckpointManager(monitor, path).checkpoint()
    expected = _dumps_file(0, persist.snapshot(monitor))
    return objects_to_columns(run), record, path.read_bytes(), expected


def _assert_same_bytes(run, twin=None) -> None:
    """The durable bytes of ``run`` on the kernel (or on ``twin`` in its
    place) and on the reference are equal, equal to the general path's
    column form, and the checkpoint file is ``json.dumps`` of its
    document."""
    with tempfile.TemporaryDirectory() as tmp:
        kernel_dir, reference_dir = Path(tmp, "k"), Path(tmp, "r")
        kernel_dir.mkdir()
        reference_dir.mkdir()
        with pytest.MonkeyPatch.context() as mp:
            if twin is not None:
                mp.setattr(objects_module, "pack_columns",
                           lambda objs: twin(objs, SpatialObject))
            got = _durable_bytes(run, kernel_dir)
        with on_the_reference():
            want = _durable_bytes(run, reference_dir)
    assert got[0] == want[0] == _general_columns(run)
    assert got[1] == want[1]
    assert got[2] == want[2] == got[3]


@settings(max_examples=150, deadline=None)
@given(run=runs())
def test_durable_bytes_match_the_reference(run):
    _assert_same_bytes(run)


def test_plain_runs_take_the_compiled_pass():
    """A list or tuple of plain objects is packed by the kernel, each oid
    the object's own; a run with an odd object, or another sequence, is
    left to the general path."""
    run = [SpatialObject(0.5 * k, -0.0, 1.0, float("-inf"), 2**64 + k)
           for k in range(5)]
    for seq in (run, tuple(run)):
        packed = planesweep._KERNEL.columns(seq, SpatialObject)
        assert packed == reference_kernel.columns(seq, SpatialObject)
        assert all(a is o.oid for a, o in zip(packed[0], run))
        assert array("d", packed[3]).tolist() == [1.0] * 5
    unset = object.__new__(SpatialObject)
    for odd in (SpatialObject(1, 2.0), _Sub(1.0, 2.0), unset):
        seq = run[:2] + [odd]
        assert planesweep._KERNEL.columns(seq, SpatialObject) is None
        assert reference_kernel.columns(seq, SpatialObject) is None
    with pytest.raises(AttributeError):
        objects_to_columns([unset])
    assert planesweep._KERNEL.columns(deque(run), SpatialObject) is None
    assert objects_to_columns(deque(run)) == _general_columns(run)


#: oid lists the kernel writes, and ones it leaves to ``json.dumps``
oid_lists = st.lists(
    st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
        st.integers(),
        st.sampled_from([True, False, 1.0, None]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(values=oid_lists)
def test_oid_text_matches_json(values):
    """``maxrs_ints`` writes ``json.dumps`` of every list of exact 64-bit
    ints, and leaves every other list (a bool, a float, a wider int)
    to ``json.dumps``, as its twin does."""
    text = planesweep._KERNEL.ints(values)
    assert text == reference_kernel.ints(values)
    plain = all(type(v) is int and -(2**63) <= v < 2**63 for v in values)
    assert text == (json.dumps(values) if plain else None)


def _unsigned_zeros(run, cls):
    """Mutant twin: packs as the kernel does but writes ``-0.0`` as
    ``0.0``."""
    packed = reference_kernel.columns(run, cls)
    if packed is None:
        return None
    oids, *floats = packed
    return oids, *(
        array("d", [v + 0.0 for v in array("d", c)]).tobytes() for c in floats
    )


def _swapped_columns(run, cls):
    """Mutant twin: packs ``y`` as ``x`` and ``x`` as ``y``."""
    packed = reference_kernel.columns(run, cls)
    if packed is None:
        return None
    oids, xs, ys, ws, ts = packed
    return oids, ys, xs, ws, ts


@pytest.mark.parametrize(
    "twin", [None, _unsigned_zeros, _swapped_columns],
    ids=["kernel", "unsigned_zeros", "swapped_columns"],
)
def test_a_pass_writing_other_bytes_is_caught(twin):
    """The differential names a pass that drops the sign of ``-0.0`` or
    swaps two columns."""
    run = [SpatialObject(1.0, 2.0, 0.5, -0.0, 1),
           SpatialObject(-0.0, 3.0, 0.0, 2.0, 2)]
    if twin is None:
        _assert_same_bytes(run)
    else:
        with pytest.raises(AssertionError):
            _assert_same_bytes(run, twin)


# -- the spliced WAL frame ---------------------------------------------------

#: oids past the column strategy's: negative, and at the 64-bit edges
wide_oids = st.one_of(
    st.integers(-(2**63), -1),
    st.sampled_from([-(2**63), 2**63 - 1, -(2**63) - 1, 2**64, -1, 0]),
)


@st.composite
def wal_runs(draw):
    """:func:`runs`, some objects re-made with a negative or edge oid."""
    run = list(draw(runs()))
    for k in draw(st.lists(st.integers(0, max(0, len(run) - 1)),
                           max_size=3)):
        if k < len(run) and type(run[k]) is SpatialObject:
            o = run[k]
            run[k] = SpatialObject(o.x, o.y, o.weight, o.timestamp,
                                   draw(wide_oids))
    return tuple(run) if draw(st.booleans()) else run


def _expected_frame(seq: int, kind: str, index: int, run) -> bytes:
    return encode_record(
        seq,
        encode_payload(
            {"kind": kind, "index": index, "objects": objects_to_payload(run)}
        ),
    )


def _wal_frames(run, directory: Path, index: int) -> bytes:
    """The bytes a log writes for ``run`` as a batch at ``index`` (when
    the run is not empty) and then as a spill at the same index."""
    with WriteAheadLog(directory, fsync="os") as wal:
        if run:
            wal.append_batch(run, index)
        wal.log_spill(run, index)
        [segment] = wal.segments
    return segment.read_bytes()


def _assert_same_frames(run, index: int = 5) -> None:
    """The log's frames for ``run``, on the kernel and on the reference,
    are ``encode_record(seq, encode_payload(document))`` byte for byte,
    and so is each spliced payload."""
    want = (_expected_frame(1, "batch", index, run) if run else b"") + (
        _expected_frame(2 if run else 1, "spill", index, run)
    )
    for kind in ("batch", "spill"):
        document = {"kind": kind, "index": index,
                    "objects": objects_to_payload(run)}
        assert encode_objects_payload(kind, index, run) == encode_payload(
            document
        )
    with tempfile.TemporaryDirectory() as tmp:
        assert _wal_frames(run, Path(tmp, "k"), index) == want
        with on_the_reference():
            assert _wal_frames(run, Path(tmp, "r"), index) == want


@settings(max_examples=150, deadline=None)
@given(run=wal_runs(), index=st.integers(1, 2**62))
def test_wal_frames_match_the_canonical_encoding(run, index):
    _assert_same_frames(run, index)


def test_wal_frame_cases():
    """An empty spill, a tuple, negative and 64-bit-edge oids (written
    by the kernel), a wider oid (written by ``json``) and an int
    coordinate (packed field by field)."""
    edge = [SpatialObject(1.5, -0.0, 0.0, float("-inf"), -(2**63)),
            SpatialObject(-2.0, 3.0, 1e300, 0.0, 2**63 - 1)]
    for run in ([], (), edge, tuple(edge),
                edge + [SpatialObject(0.0, 0.0, oid=2**64)],
                edge + [SpatialObject(1, 0.0, oid=-5)]):
        _assert_same_frames(run)


def _spaced_ints(values, compact=False):
    """Mutant oid writer: ``", "`` between oids, compact or not."""
    return reference_kernel.ints(values)


@pytest.mark.parametrize("mutant", [False, True], ids=["kernel", "spaced"])
def test_a_splice_with_other_separators_is_caught(mutant):
    run = [SpatialObject(1.0, 2.0, 0.5, 0.0, 1),
           SpatialObject(3.0, 4.0, 1.0, 1.0, -2)]
    if not mutant:
        _assert_same_frames(run)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(record_module, "json_ints", _spaced_ints)
        with pytest.raises(AssertionError):
            _assert_same_frames(run)
