"""Tests for monitor snapshot/restore persistence."""

from __future__ import annotations

import json

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.grid import default_cell_size
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvalidParameterError, SnapshotError
from repro.persist import restore, snapshot
from repro.resilience.checkpoint import CheckpointManager
from repro.window import CountWindow, TimeWindow, WindowUpdate


def primed(monitor, count=25, seed=8):
    monitor.ingest(make_objects(count, seed=seed, domain=60.0))
    return monitor


class TestSnapshotRestore:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NaiveMonitor(10, 10, CountWindow(30)),
            lambda: G2Monitor(10, 10, CountWindow(30)),
            lambda: AG2Monitor(10, 10, CountWindow(30), epsilon=0.2),
            lambda: AG2Monitor(10, 10, CountWindow(30), cell_size=25.0),
            lambda: TopKAG2Monitor(10, 10, CountWindow(30), k=4),
        ],
    )
    def test_roundtrip_preserves_answers(self, factory):
        original = primed(factory())
        clone = restore(snapshot(original))
        batch = make_objects(5, seed=99, domain=60.0)
        a = original.update(batch)
        b = clone.update(batch)
        assert [r.weight for r in a.regions] == pytest.approx(
            [r.weight for r in b.regions]
        )

    def test_snapshot_is_json_serialisable(self):
        monitor = primed(AG2Monitor(10, 10, CountWindow(20)))
        text = json.dumps(snapshot(monitor))
        assert "objects" in text

    def test_config_preserved(self):
        monitor = AG2Monitor(7, 9, CountWindow(15), epsilon=0.3, cell_size=42.0)
        clone = restore(snapshot(monitor))
        assert isinstance(clone, AG2Monitor)
        assert clone.rect_width == 7 and clone.rect_height == 9
        assert clone.epsilon == 0.3
        assert clone.grid.cell_size == 42.0
        assert clone.window.capacity == 15  # type: ignore[attr-defined]

    def test_legacy_quadtree_snapshot_restores_as_grid_ag2(self):
        """Checkpoints of the deleted quadtree index still load: the
        window replays into grid aG2 at the default cell size, keeping
        ``epsilon``, dropping the 7 quadtree policy knobs and carrying
        the tick on."""
        objects = make_objects(25, seed=8, domain=60.0)
        state = {
            "format": 1,
            "kind": "ag2_quadtree",
            "rect_width": 10.0,
            "rect_height": 10.0,
            "window": {"kind": "count", "capacity": 30},
            "tick": 6,
            "extra": {
                "epsilon": 0.0,
                "tile_size": 96.0,
                "min_leaf_size": 6.0,
                "split_occupancy": 11,
                "merge_occupancy": 3,
                "split_load": 50.0,
                "merge_load": 1.5,
                "load_decay": 0.25,
            },
            "objects": [
                {
                    "oid": o.oid,
                    "x": o.x,
                    "y": o.y,
                    "weight": o.weight,
                    "timestamp": o.timestamp,
                }
                for o in objects
            ],
        }
        monitor = restore(json.loads(json.dumps(state)))
        assert type(monitor) is AG2Monitor
        assert monitor.grid.cell_size == default_cell_size(10.0, 10.0)
        fresh = AG2Monitor(10, 10, CountWindow(30))
        fresh.ingest(objects)
        oracle = NaiveMonitor(10, 10, CountWindow(30))
        oracle.ingest(objects)
        answer = monitor.refresh()
        assert answer.tick == 6
        assert answer.regions == fresh.refresh().regions
        assert answer.best_weight == pytest.approx(oracle.refresh().best_weight)
        batch = make_objects(5, seed=99, domain=60.0, start_t=25.0)
        after = monitor.update(batch)
        assert after.tick == 7
        assert after.regions == fresh.update(batch).regions
        assert after.best_weight == pytest.approx(
            oracle.update(batch).best_weight
        )
        state["extra"]["epsilon"] = 0.25
        assert restore(state).epsilon == 0.25

    def test_topk_k_preserved(self):
        clone = restore(snapshot(TopKAG2Monitor(5, 5, CountWindow(9), k=7)))
        assert isinstance(clone, TopKAG2Monitor)
        assert clone.k == 7

    def test_time_window_preserved(self):
        monitor = NaiveMonitor(5, 5, TimeWindow(123.0))
        clone = restore(snapshot(monitor))
        assert isinstance(clone.window, TimeWindow)
        assert clone.window.duration == 123.0

    def test_tick_continues_after_restore(self):
        """A restored monitor answers the next batch at the tick the
        original would have, so answer-change events stay ordered."""
        monitor = AG2Monitor(10, 10, CountWindow(50))
        for s in range(7):
            monitor.update(make_objects(5, seed=s, domain=60.0))
        clone = restore(json.loads(json.dumps(snapshot(monitor))))
        assert clone.window.tick == 7
        assert clone.refresh() == monitor.result  # same answer, same tick
        batch = make_objects(5, seed=99, domain=60.0)
        assert clone.update(batch).tick == monitor.update(batch).tick == 8

    def test_snapshot_without_tick_still_loads(self):
        """Snapshots from before ticks were recorded restart the tick at
        the bulk load's, as they always did."""
        monitor = primed(AG2Monitor(10, 10, CountWindow(30)))
        for s in range(3):
            monitor.update(make_objects(5, seed=s, domain=60.0))
        state = snapshot(monitor)
        del state["tick"]
        clone = restore(state)
        assert clone.window.tick == 1
        assert clone.window.contents == monitor.window.contents

    def test_malformed_tick_rejected(self):
        state = snapshot(primed(AG2Monitor(10, 10, CountWindow(30))))
        state["tick"] = "soon"
        with pytest.raises(SnapshotError):
            restore(state)

    def test_object_identity_preserved(self):
        monitor = primed(G2Monitor(10, 10, CountWindow(10)), count=4)
        clone = restore(snapshot(monitor))
        assert [o.oid for o in clone.window.contents] == [
            o.oid for o in monitor.window.contents
        ]

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NaiveMonitor(10, 10, CountWindow(30)),
            lambda: G2Monitor(10, 10, CountWindow(30)),
            lambda: AG2Monitor(10, 10, CountWindow(30), epsilon=0.2),
            lambda: AG2Monitor(10, 10, CountWindow(30), cell_size=25.0),
            lambda: TopKAG2Monitor(10, 10, CountWindow(30), k=4),
        ],
    )
    def test_legacy_kernel_key_is_dropped(self, factory, kernel):
        """Snapshots from before the single sweep kernel name the one
        they ran on in ``extra``; restore ignores it and answers exactly
        like a fresh monitor fed the same objects."""
        state = snapshot(primed(factory()))
        state["extra"]["backend"] = kernel
        clone = restore(json.loads(json.dumps(state)))
        fresh = primed(factory())
        batch = make_objects(5, seed=99, domain=60.0)
        a = clone.update(batch)
        b = fresh.update(batch)
        assert [(r.rect, r.weight) for r in a.regions] == [
            (r.rect, r.weight) for r in b.regions
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidParameterError):
            restore({"format": 999})

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            restore({"format": 1, "kind": "btree"})

    def test_unsupported_monitor_rejected(self):
        class Weird(MaxRSMonitor):
            def _on_delta(self, delta: WindowUpdate) -> None:
                pass

            def _compute_result(self, tick):
                raise NotImplementedError

        with pytest.raises(InvalidParameterError):
            snapshot(Weird(1, 1, CountWindow(1)))


class TestJsonFiles:
    """State on disk goes through the checkpoint manager, the one
    writer and reader of snapshot files."""

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "state.json"
        monitor = primed(AG2Monitor(10, 10, CountWindow(20)))
        CheckpointManager(monitor, path).checkpoint()
        clone, _ = CheckpointManager.load(path)
        batch = make_objects(3, seed=5, domain=60.0)
        assert clone.update(batch).best_weight == pytest.approx(
            monitor.update(batch).best_weight
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CheckpointManager.load(tmp_path / "missing.json")
