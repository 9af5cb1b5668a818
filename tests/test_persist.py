"""Tests for monitor snapshot/restore persistence."""

from __future__ import annotations

import json

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.quadtree import QuadtreeAG2Monitor
from repro.core.topk import TopKAG2Monitor
from repro.errors import InvalidParameterError
from repro.persist import load_json, restore, save_json, snapshot
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
            lambda: QuadtreeAG2Monitor(10, 10, CountWindow(30)),
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

    def test_quadtree_policy_preserved(self):
        monitor = QuadtreeAG2Monitor(
            6,
            6,
            CountWindow(12),
            tile_size=96.0,
            min_leaf_size=6.0,
            split_occupancy=11,
            merge_occupancy=3,
            split_load=50.0,
            merge_load=1.5,
            load_decay=0.25,
        )
        clone = restore(snapshot(monitor))
        assert isinstance(clone, QuadtreeAG2Monitor)
        assert clone.tree.tile_size == 96.0
        assert clone.tree.min_leaf_size == 6.0
        assert clone.split_occupancy == 11
        assert clone.merge_occupancy == 3
        assert clone.split_load == 50.0
        assert clone.merge_load == 1.5
        assert clone.load_decay == 0.25

    def test_topk_k_preserved(self):
        clone = restore(snapshot(TopKAG2Monitor(5, 5, CountWindow(9), k=7)))
        assert isinstance(clone, TopKAG2Monitor)
        assert clone.k == 7

    def test_time_window_preserved(self):
        monitor = NaiveMonitor(5, 5, TimeWindow(123.0))
        clone = restore(snapshot(monitor))
        assert isinstance(clone.window, TimeWindow)
        assert clone.window.duration == 123.0

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
            lambda: QuadtreeAG2Monitor(10, 10, CountWindow(30)),
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
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "state.json"
        monitor = primed(AG2Monitor(10, 10, CountWindow(20)))
        save_json(monitor, path)
        clone = load_json(path)
        batch = make_objects(3, seed=5, domain=60.0)
        assert clone.update(batch).best_weight == pytest.approx(
            monitor.update(batch).best_weight
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_json(tmp_path / "missing.json")
