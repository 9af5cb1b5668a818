"""The column form of the durability path: snapshots (format 2) and WAL
batch payloads store each float field as packed little-endian doubles
and the oids as a JSON int list.

Pinned here: every float round-trips bit for bit (``-0.0`` and infinite
timestamps included) and any int oid survives; decode + re-encode gives
the same bytes (what ``scripts/wal_crashtest.py`` relies on); logs and
snapshots written in the older shapes still read; the soak injector's
bit flip lands in the packed column; ``wal inspect`` counts objects in
both payload shapes.
"""

from __future__ import annotations

import base64
import json
import random
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_objects
from repro import persist
from repro.core.naive import NaiveMonitor
from repro.core.objects import (
    SpatialObject,
    objects_from_columns,
    objects_to_columns,
    pack_doubles,
    unpack_doubles,
)
from repro.durability import WriteAheadLog, inspect_wal, reconcile, scan_wal
from repro.durability.record import (
    decode_payload,
    encode_payload,
    objects_from_payload,
    objects_to_payload,
    payload_object_count,
)
from repro.errors import CheckpointChecksumError, SnapshotError
from repro.resilience import CheckpointManager
from repro.soak.injectors import corrupt_checkpoint
from repro.window import CountWindow

DATA = Path(__file__).parent / "data"

finite = st.floats(allow_nan=False, allow_infinity=False)
spatial_objects = st.builds(
    SpatialObject,
    x=finite,
    y=finite,
    weight=st.floats(min_value=0.0, allow_nan=False),
    timestamp=st.one_of(
        st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
        st.floats(allow_nan=False),
    ),
    oid=st.one_of(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=2**63, max_value=2**80),
    ),
)


def _bits(objects):
    return [
        (o.oid, o.x.hex(), o.y.hex(), o.weight.hex(), o.timestamp.hex())
        for o in objects
    ]


class TestPackedDoubles:
    def test_little_endian_ieee754(self):
        text = pack_doubles([1.0, -0.0])
        assert text == "AAAAAAAA8D8AAAAAAAAAgA=="
        assert unpack_doubles(text) == [1.0, -0.0]
        raw = base64.b64decode(text)
        assert struct.unpack("<2d", raw) == (1.0, -0.0)
        assert raw[-1] == 0x80  # the sign bit of -0.0 is the last byte

    def test_empty_column(self):
        assert pack_doubles([]) == ""
        assert unpack_doubles("") == []
        assert objects_from_columns(objects_to_columns([])) == []

    @pytest.mark.parametrize("text", ["AAAA", "not base64!", "AAAAAAAA8D8A"])
    def test_damaged_column_raises_value_error(self, text):
        with pytest.raises(ValueError):
            unpack_doubles(text)

    def test_unequal_columns_raise_value_error(self):
        columns = objects_to_columns(make_objects(3, seed=1))
        columns["oid"].append(99)
        with pytest.raises(ValueError):
            objects_from_columns(columns)


class TestSnapshotColumns:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(spatial_objects, max_size=30))
    def test_round_trip_is_exact_and_byte_stable(self, objects):
        monitor = NaiveMonitor(10, 10, CountWindow(64))
        if objects:
            monitor.ingest(objects)
        text = json.dumps(persist.snapshot(monitor))
        restored = persist.restore(json.loads(text))
        assert _bits(restored.window.contents) == _bits(objects)
        assert json.dumps(persist.snapshot(restored)) == text

    def test_snapshot_is_format_2_columns(self):
        monitor = NaiveMonitor(10, 10, CountWindow(8))
        objects = make_objects(5, seed=3)
        monitor.ingest(objects)
        state = persist.snapshot(monitor)
        assert state["format"] == 2
        assert sorted(state["objects"]) == [
            "oid", "timestamp", "weight", "x", "y"
        ]
        assert state["objects"]["oid"] == [o.oid for o in objects]
        assert unpack_doubles(state["objects"]["x"]) == [o.x for o in objects]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda c: c.pop("weight"),
            lambda c: c.update(x="AAAA"),
            lambda c: c["oid"].pop(),
            lambda c: c.update(oid="12"),
        ],
    )
    def test_damaged_columns_raise_snapshot_error(self, damage):
        monitor = NaiveMonitor(10, 10, CountWindow(8))
        monitor.ingest(make_objects(5, seed=3))
        state = persist.snapshot(monitor)
        damage(state["objects"])
        with pytest.raises(SnapshotError):
            persist.restore(state)

    def test_format_2_rows_are_refused(self):
        """Format 2 means columns: a row list under it is damage."""
        monitor = NaiveMonitor(10, 10, CountWindow(8))
        monitor.ingest(make_objects(2, seed=3))
        state = persist.snapshot(monitor)
        state["objects"] = [
            {"oid": 1, "x": 1.0, "y": 1.0, "weight": 1.0, "timestamp": 0.0}
        ]
        with pytest.raises(SnapshotError):
            persist.restore(state)


class TestWalColumns:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(spatial_objects, max_size=30), st.integers(0, 2**40))
    def test_payload_round_trip_is_exact_and_byte_stable(self, objects, index):
        payload = encode_payload(
            {"kind": "batch", "index": index,
             "objects": objects_to_payload(objects)}
        )
        document = decode_payload(payload)
        decoded = objects_from_payload(document["objects"])
        assert _bits(decoded) == _bits(objects)
        assert payload_object_count(document["objects"]) == len(objects)
        again = encode_payload(
            {"kind": document["kind"], "index": document["index"],
             "objects": objects_to_payload(decoded)}
        )
        assert again == payload

    def test_row_payload_still_decodes(self):
        objects = make_objects(4, seed=9, domain=100.0)
        rows = [[o.oid, o.x, o.y, o.weight, o.timestamp] for o in objects]
        document = decode_payload(encode_payload({"objects": rows}))
        assert objects_from_payload(document["objects"]) == objects
        assert payload_object_count(document["objects"]) == 4


def _fixture_batches() -> list[list[SpatialObject]]:
    """The six batches in ``data/wal_rows``: five ``batch`` records
    (indexes 1-5) and one ``spill`` at index 5, each of seven objects,
    written by the row-list encoder with a ``Random(11)`` stream."""
    rng = random.Random(11)
    batches, oid = [], 0
    for _ in range(6):
        batch = []
        for _ in range(7):
            batch.append(
                SpatialObject(
                    x=rng.uniform(0, 100), y=rng.uniform(0, 100),
                    weight=rng.uniform(0, 10), timestamp=float(oid), oid=oid,
                )
            )
            oid += 1
        batches.append(batch)
    return batches


class TestRowWrittenLog:
    """A WAL segment written before the column form, whose payloads are
    ``[oid, x, y, w, t]`` rows, still scans, replays and resumes."""

    FIXTURE = DATA / "wal_rows"

    def test_fixture_is_a_row_log(self):
        (segment,) = self.FIXTURE.iterdir()
        text = segment.read_bytes()
        assert b'"objects":[[0,' in text and b'"oid"' not in text

    def test_scans_and_replays_to_the_written_window(self):
        expected = _fixture_batches()
        scan = scan_wal(self.FIXTURE)
        assert not scan.skipped and not scan.truncated_segments
        assert [i for i, _ in scan.batches] == [1, 2, 3, 4, 5]
        assert [objs for _, objs in scan.batches] == expected[:5]
        tail = reconcile(scan, 2)
        assert tail.spill == expected[5]
        recovered = NaiveMonitor(20, 20, CountWindow(30))
        recovered.ingest([o for batch in expected[:2] for o in batch])
        for _, objects in tail.batches:
            recovered.update(objects)
        reference = NaiveMonitor(20, 20, CountWindow(30))
        for batch in expected[:5]:
            reference.update(batch)
        assert _bits(recovered.window.contents) == _bits(
            reference.window.contents
        )
        assert recovered.result.regions == reference.result.regions

    def test_a_resumed_log_mixes_both_shapes(self, tmp_path):
        directory = tmp_path / "wal"
        shutil.copytree(self.FIXTURE, directory)
        extra = make_objects(3, seed=4, domain=100.0)
        with WriteAheadLog(directory) as wal:
            assert wal.last_index == 5
            wal.append_batch(extra)
        scan = scan_wal(directory)
        assert [i for i, _ in scan.batches] == [1, 2, 3, 4, 5, 6]
        assert scan.batches[-1][1] == extra
        assert scan.batches[0][1] == _fixture_batches()[0]

    def test_inspect_counts_objects_in_both_shapes(self, tmp_path):
        directory = tmp_path / "wal"
        shutil.copytree(self.FIXTURE, directory)
        with WriteAheadLog(directory) as wal:
            wal.append_batch(make_objects(3, seed=4, domain=100.0))
        report = inspect_wal(directory)
        assert report["clean"]
        counts = [
            (r["kind"], r["objects"])
            for segment in report["detail"]
            for r in segment["records"]
        ]
        assert counts == [("batch", 7)] * 5 + [("spill", 7), ("batch", 3)]


class TestCheckpointBitflip:
    def _checkpoint(self, tmp_path):
        monitor = NaiveMonitor(10, 10, CountWindow(40))
        monitor.ingest(make_objects(25, seed=6, domain=60.0))
        path = tmp_path / "ckpt.json"
        CheckpointManager(monitor, path).checkpoint()
        return monitor, path

    def test_bitflip_changes_only_the_newest_weight(self, tmp_path):
        monitor, path = self._checkpoint(tmp_path)
        stored = json.loads(path.read_text())["crc32"]
        corrupt_checkpoint(path, "bitflip")
        document = json.loads(path.read_text())
        assert document["crc32"] == stored
        assert document["batch_index"] == 0
        with pytest.raises(CheckpointChecksumError):
            CheckpointManager.load(path)
        restored, _ = CheckpointManager.load(path, verify_checksum=False)
        before = list(monitor.window.contents)
        after = list(restored.window.contents)
        assert _bits(after[:-1]) == _bits(before[:-1])
        last, damaged = before[-1], after[-1]
        assert damaged.weight == last.weight + 1.0
        assert _bits([damaged])[0][:3] == _bits([last])[0][:3]
        assert damaged.timestamp == last.timestamp

    def test_bitflip_of_an_empty_window_moves_the_batch_index(self, tmp_path):
        path = tmp_path / "ckpt.json"
        CheckpointManager(NaiveMonitor(10, 10, CountWindow(4)), path).checkpoint()
        corrupt_checkpoint(path, "bitflip")
        assert json.loads(path.read_text())["batch_index"] == 1
        with pytest.raises(CheckpointChecksumError):
            CheckpointManager.load(path)
