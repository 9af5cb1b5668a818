"""Checkpoint/recovery tests: atomicity, damage tolerance, equivalence.

The core guarantee under test: *kill at any batch boundary, restore
from the last checkpoint, replay the tail, and the final answer is
bit-identical to an uninterrupted run* — for every snapshotable
monitor kind.  This holds because snapshots capture the alive window
and the indexes are pure functions of the arrival sequence.
"""

from __future__ import annotations

import json
import random
import string
import zlib
from pathlib import Path

import pytest

from conftest import make_objects
from repro import persist
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import (
    SpatialObject,
    objects_from_columns,
    pack_doubles,
    unpack_doubles,
)
from repro.core.spaces import region_key
from repro.core.topk import TopKAG2Monitor
from repro.errors import (
    CheckpointChecksumError,
    DiskFullError,
    DurableWriteError,
    ReproError,
    SnapshotError,
)
from repro.resilience import (
    CheckpointManager,
    FaultInjectingSource,
    IngestGuard,
    MonitorSupervisor,
)
from repro.resilience.checkpoint import _payload_crc
from repro.streams import UniformStream
from repro.window import CountWindow

WINDOW = 60
BATCH = 10
TOTAL_BATCHES = 12
KILL_AT = 7  # checkpoint boundary: multiple of EVERY below
EVERY = 7

FACTORIES = {
    "naive": lambda: NaiveMonitor(12, 12, CountWindow(WINDOW)),
    "g2": lambda: G2Monitor(12, 12, CountWindow(WINDOW)),
    "ag2": lambda: AG2Monitor(12, 12, CountWindow(WINDOW)),
    "topk": lambda: TopKAG2Monitor(12, 12, CountWindow(WINDOW), k=3),
}


def stream_batches(count: int = TOTAL_BATCHES):
    return [
        make_objects(BATCH, seed=100 + i, domain=80.0, start_t=i * BATCH)
        for i in range(count)
    ]


def covered_oids(monitor) -> set[int]:
    """Objects whose dual rectangle covers the reported best region."""
    best = monitor.result.best
    if best is None:
        return set()
    cx, cy = best.best_point
    return {
        o.oid
        for o in monitor.window.contents
        if o.to_rect(monitor.rect_width, monitor.rect_height).covers_point(cx, cy)
    }


class TestAtomicPersistence:
    def test_save_json_leaves_no_temp_files(self, tmp_path):
        monitor = FACTORIES["ag2"]()
        monitor.update(make_objects(20, seed=1, domain=80.0))
        target = tmp_path / "snap.json"
        persist.save_json(monitor, target)
        assert target.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_save_json_overwrites_atomically(self, tmp_path):
        monitor = FACTORIES["naive"]()
        target = tmp_path / "snap.json"
        monitor.update(make_objects(5, seed=2, domain=80.0, start_t=0.0))
        persist.save_json(monitor, target)
        monitor.update(make_objects(5, seed=3, domain=80.0, start_t=10.0))
        persist.save_json(monitor, target)
        restored = persist.load_json(target)
        assert len(restored.window) == len(monitor.window)

    def test_truncated_json_raises_snapshot_error(self, tmp_path):
        monitor = FACTORIES["naive"]()
        monitor.update(make_objects(5, seed=4, domain=80.0))
        target = tmp_path / "snap.json"
        persist.save_json(monitor, target)
        target.write_text(target.read_text()[:40])  # torn write
        with pytest.raises(SnapshotError):
            persist.load_json(target)

    def test_not_json_raises_snapshot_error(self, tmp_path):
        target = tmp_path / "snap.json"
        target.write_text("this is not json{{{")
        with pytest.raises(SnapshotError):
            persist.load_json(target)

    def test_missing_fields_raise_repro_error(self):
        with pytest.raises(ReproError):
            persist.restore({"format": 1, "kind": "naive"})  # no window/size

    def test_non_object_snapshot_rejected(self):
        with pytest.raises(SnapshotError):
            persist.restore(["not", "a", "snapshot"])  # type: ignore[arg-type]


class TestCheckpointManager:
    def test_periodic_checkpoints(self, tmp_path):
        monitor = FACTORIES["ag2"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=3)
        for batch in stream_batches(7):
            monitor.update(batch)
            manager.note_batch()
        assert manager.checkpoints_written == 2  # after batches 3 and 6
        restored, index = CheckpointManager.load(path)
        assert index == 6
        assert len(restored.window) == len(monitor.window) or index * BATCH >= WINDOW

    def test_rotation_keeps_history(self, tmp_path):
        monitor = FACTORIES["naive"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1, keep=2)
        for batch in stream_batches(4):
            monitor.update(batch)
            manager.note_batch()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt.json", "ckpt.json.1", "ckpt.json.2"]
        _, newest = CheckpointManager.load(path)
        _, older = CheckpointManager.load(tmp_path / "ckpt.json.1")
        assert (newest, older) == (4, 3)

    def test_recover_falls_back_through_history(self, tmp_path):
        monitor = FACTORIES["g2"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1, keep=2)
        for batch in stream_batches(3):
            monitor.update(batch)
            manager.note_batch()
        path.write_text("corrupted!!!")  # current checkpoint damaged
        restored, index = manager.recover()
        assert index == 2  # newest readable is the rotated predecessor
        assert len(restored.window) == 2 * BATCH

    def test_recover_with_nothing_readable(self, tmp_path):
        with pytest.raises(SnapshotError):
            CheckpointManager(None, tmp_path / "absent.json").recover()

    def test_unknown_checkpoint_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": 999, "batch_index": 1}))
        with pytest.raises(SnapshotError):
            CheckpointManager.load(path)

    def test_metrics_counters(self, tmp_path):
        """The manager's attributes count its writes and position."""
        monitor = FACTORIES["naive"]()
        manager = CheckpointManager(monitor, tmp_path / "c.json", every=2)
        for batch in stream_batches(4):
            monitor.update(batch)
            manager.note_batch()
        assert manager.checkpoints_written == 2
        assert manager.batch_index == 4
        assert manager.positions == [4, 2]

    def test_file_bytes_are_one_dumps_of_the_document(self, tmp_path):
        """The file holds exactly ``json.dumps`` of the envelope, whose
        CRC covers every byte written before its ``crc32`` field, and
        the CRC survives the round trip through ``load``."""
        monitor = FACTORIES["topk"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=3)
        for batch in stream_batches(3):
            monitor.update(batch)
            manager.note_batch()
        state = persist.snapshot(monitor)
        document = {"format": 2, "batch_index": 3, "state": state}
        checksummed = json.dumps(document)[:-1].encode()
        document["crc32"] = zlib.crc32(checksummed)
        assert path.read_text() == json.dumps(document)
        restored, index = CheckpointManager.load(path)
        assert index == 3
        assert persist.snapshot(restored) == json.loads(json.dumps(state))
        assert restored.refresh().regions == monitor.result.regions

    def test_atomic_write_json_is_one_dumps(self, tmp_path):
        document = {"b": [1.5, -0.0, 1e-300], "a": {"n": None, "s": "é"}}
        target = tmp_path / "doc.json"
        persist.atomic_write_json(target, document)
        assert target.read_text() == json.dumps(document)
        assert persist.read_json(target) == document

    def test_supervisor_is_unwrapped(self, tmp_path):
        supervised = MonitorSupervisor(FACTORIES["ag2"]())
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(supervised, path, every=1)
        supervised.update(stream_batches(1)[0])
        manager.note_batch()
        restored, _ = CheckpointManager.load(path)
        assert isinstance(restored, AG2Monitor)
        assert len(restored.window) == BATCH


class TestCrashRecoveryEquivalence:
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    def test_kill_restore_replay_equals_uninterrupted(self, kind, tmp_path):
        batches = stream_batches()

        # uninterrupted reference run
        reference = FACTORIES[kind]()
        for batch in batches:
            reference.update(batch)

        # interrupted run: checkpoint every EVERY batches, die at KILL_AT
        victim = FACTORIES[kind]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(victim, path, every=EVERY)
        for batch in batches[:KILL_AT]:
            victim.update(batch)
            manager.note_batch()
        del victim  # crash

        # recovery: load last checkpoint, replay the tail
        recovered, resume_from = CheckpointManager(None, path).recover()
        assert resume_from == EVERY
        for batch in batches[resume_from:]:
            recovered.update(batch)

        want, got = reference.result, recovered.result
        assert got.best_weight == pytest.approx(want.best_weight)
        assert got.window_size == want.window_size
        assert [region_key(r) for r in got.regions] == [
            region_key(r) for r in want.regions
        ]
        assert covered_oids(recovered) == covered_oids(reference)
        assert [o.oid for o in recovered.window.contents] == [
            o.oid for o in reference.window.contents
        ]

    def test_recovery_counts_in_metrics(self, tmp_path):
        monitor = FACTORIES["ag2"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1)
        monitor.update(stream_batches(1)[0])
        manager.note_batch()
        manager.recover()
        assert manager.recoveries == 1
        assert (manager.fallbacks, manager.checksum_failures) == (0, 0)

    def test_resumed_manager_keeps_period_alignment(self, tmp_path):
        batches = stream_batches(8)
        monitor = FACTORIES["naive"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=4)
        for batch in batches[:5]:
            monitor.update(batch)
            manager.note_batch()
        fresh = CheckpointManager(None, path, every=4)
        recovered, index = fresh.recover()
        fresh.resume(recovered, index)
        for batch in batches[index:]:
            recovered.update(batch)
            fresh.note_batch()
        # second period boundary (batch 8) checkpointed by the resumed manager
        _, final_index = CheckpointManager.load(path)
        assert final_index == 8

    def test_checkpoint_recovery_reproduces_chaos_run_exactly(self, tmp_path):
        """Kill mid-chaos, restore, replay the identical guarded stream
        tail: final result matches the uninterrupted chaos run."""

        def guarded_batches():
            stream = UniformStream(domain=500.0, seed=21, dt=1.0)
            chaos = FaultInjectingSource(
                stream, seed=22,
                p_drop=0.02, p_duplicate=0.02, p_corrupt=0.02, p_delay=0.05,
            )
            guard = IngestGuard(chaos, policy="quarantine", max_lateness=6.0)
            iterator = iter(guard)
            out = []
            for _ in range(80):
                batch = []
                for obj in iterator:
                    batch.append(obj)
                    if len(batch) == 10:
                        break
                out.append(batch)
            return out

        batches = guarded_batches()

        reference = AG2Monitor(40, 40, CountWindow(200))
        for batch in batches:
            reference.update(batch)

        victim = MonitorSupervisor(AG2Monitor(40, 40, CountWindow(200)))
        path = tmp_path / "chaos-ckpt.json"
        manager = CheckpointManager(victim, path, every=25)
        for batch in batches[:60]:
            victim.update(batch)
            manager.note_batch()
        del victim  # crash after batch 60; last checkpoint at 50

        recovered, resume_from = CheckpointManager(None, path).recover()
        assert resume_from == 50
        for batch in batches[resume_from:]:
            recovered.update(batch)

        assert recovered.result.best_weight == pytest.approx(
            reference.result.best_weight
        )
        assert [o.oid for o in recovered.window.contents] == [
            o.oid for o in reference.window.contents
        ]


def _shift_column(state, field, index, delta):
    """Add ``delta`` to one value of a snapshot's packed float column."""
    values = unpack_doubles(state["objects"][field])
    values[index] += delta
    state["objects"][field] = pack_doubles(values)


class TestChecksum:
    def _checkpointed(self, tmp_path, *, keep=1):
        monitor = FACTORIES["ag2"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1, keep=keep)
        for batch in stream_batches(3):
            monitor.update(batch)
            manager.note_batch()
        return monitor, path

    def test_envelope_carries_a_crc_that_roundtrips(self, tmp_path):
        monitor, path = self._checkpointed(tmp_path)
        document = json.loads(path.read_text())
        assert isinstance(document["crc32"], int)
        restored, index = CheckpointManager.load(path)
        assert index == 3
        assert [o.oid for o in restored.window.contents] == [
            o.oid for o in monitor.window.contents
        ]

    def test_silent_payload_tamper_is_caught(self, tmp_path):
        _, path = self._checkpointed(tmp_path)
        document = json.loads(path.read_text())
        _shift_column(document["state"], "weight", 0, 1.0)
        path.write_text(json.dumps(document))  # crc32 left stale
        with pytest.raises(CheckpointChecksumError, match="checksum"):
            CheckpointManager.load(path)
        # opting out of verification loads the damaged payload anyway
        restored, _ = CheckpointManager.load(path, verify_checksum=False)
        assert len(restored.window) == 3 * BATCH

    def test_checksum_less_legacy_checkpoint_still_loads(self, tmp_path):
        _, path = self._checkpointed(tmp_path)
        document = json.loads(path.read_text())
        del document["crc32"]
        path.write_text(json.dumps(document))
        _, index = CheckpointManager.load(path)
        assert index == 3

    def test_recover_skips_tampered_latest_with_metrics(self, tmp_path):
        _, path = self._checkpointed(tmp_path, keep=2)
        document = json.loads(path.read_text())
        _shift_column(document["state"], "x", -1, 0.5)
        path.write_text(json.dumps(document))
        manager = CheckpointManager(None, path)
        restored, index = manager.recover()
        assert index == 2  # fell back to the previous rotation
        assert len(restored.window) == 2 * BATCH
        assert manager.checksum_failures == 1
        assert manager.fallbacks == 1
        assert manager.recoveries == 1

    def test_flipped_byte_in_the_state_is_caught(self, tmp_path):
        """One bit of one base64 digit of the packed weight column
        flipped in place: the file still parses and decodes, but the
        CRC of its bytes no longer matches."""
        monitor, path = self._checkpointed(tmp_path)
        raw = bytearray(path.read_bytes())
        stored = json.loads(raw)["crc32"]
        column = raw.index(b'"weight": "') + len(b'"weight": "')
        # digit 32 carries the top 6 bits of byte 24, the lowest
        # mantissa byte of the 4th little-endian weight: the weight
        # stays valid, so the damaged file still restores unverified
        alphabet = string.ascii_letters.encode() + string.digits.encode() + b"+/"
        bit = next(b for b in (1, 2, 4) if (raw[column + 32] ^ b) in alphabet)
        raw[column + 32] ^= bit
        path.write_bytes(bytes(raw))
        weights = unpack_doubles(json.loads(raw)["state"]["objects"]["weight"])
        assert weights[3] != monitor.window.contents[3].weight
        assert json.loads(path.read_text())["crc32"] == stored
        with pytest.raises(CheckpointChecksumError, match="checksum"):
            CheckpointManager.load(path)
        restored, _ = CheckpointManager.load(path, verify_checksum=False)
        assert len(restored.window) == 3 * BATCH


class TestFormat1:
    """Checkpoints written before the single-encode format (format 1,
    whose CRC covers a canonical re-encoding of the payload) still
    restore and still verify.  The fixture was written by that code
    from the monitor :meth:`_monitor` rebuilds."""

    FIXTURE = Path(__file__).parent / "data" / "checkpoint_format1.json"

    @staticmethod
    def _monitor() -> AG2Monitor:
        rng = random.Random(5)
        objects = [
            SpatialObject(
                x=rng.uniform(0, 100), y=rng.uniform(0, 100),
                weight=rng.uniform(0, 10), timestamp=float(i), oid=i,
            )
            for i in range(20)
        ]
        monitor = AG2Monitor(12, 12, CountWindow(15))
        monitor.update(objects[:10])
        monitor.update(objects[10:])
        return monitor

    def test_format_1_file_restores(self):
        document = json.loads(self.FIXTURE.read_text())
        assert document["format"] == 1
        assert document["crc32"] == _payload_crc(2, document["state"])
        restored, index = CheckpointManager.load(self.FIXTURE)
        assert index == 2
        original = self._monitor()
        assert restored.refresh().regions == original.result.regions
        # the snapshot is written in format 2 now: the same state, with
        # the window in columns
        legacy = dict(document["state"])
        snap = persist.snapshot(restored)
        assert (legacy.pop("format"), snap.pop("format")) == (1, 2)
        assert objects_from_columns(snap.pop("objects")) == [
            SpatialObject(**rec) for rec in legacy.pop("objects")
        ]
        assert snap == legacy

    def test_format_1_tamper_is_caught(self, tmp_path):
        document = json.loads(self.FIXTURE.read_text())
        document["state"]["objects"][-1]["weight"] += 1.0
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(document))  # crc32 left stale
        with pytest.raises(CheckpointChecksumError, match="checksum"):
            CheckpointManager.load(path)


class TestTornWrite:
    def test_torn_temp_from_a_mid_write_crash_is_ignored(self, tmp_path):
        """A crash during the checkpoint write itself leaves a torn
        ``*.tmp`` file beside the target; recovery must ignore it and
        load the committed checkpoint untouched."""
        monitor = FACTORIES["naive"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1)
        for batch in stream_batches(2):
            monitor.update(batch)
            manager.note_batch()
        committed = path.read_text()
        # simulate the mid-write crash: a half-serialised temp file
        (tmp_path / "ckpt.json12345.tmp").write_text(committed[:25])
        restored, index = manager.recover()
        assert index == 2
        assert path.read_text() == committed  # committed file untouched
        assert len(restored.window) == 2 * BATCH

    def test_interrupted_write_leaves_old_checkpoint_loadable(
        self, tmp_path, monkeypatch
    ):
        """If the process dies before os.replace, the previous complete
        checkpoint is still what readers see."""
        import os as _os

        monitor = FACTORIES["naive"]()
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(monitor, path, every=1, keep=0)
        monitor.update(stream_batches(1)[0])
        manager.note_batch()

        def explode(src, dst):
            raise OSError("simulated crash at the replace boundary")

        monitor.update(stream_batches(2)[1])
        monkeypatch.setattr(persist.os, "replace", explode)
        with pytest.raises(DurableWriteError):
            manager.note_batch()
        monkeypatch.undo()
        _, index = manager.recover()
        assert index == 1  # the pre-crash checkpoint, complete
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
