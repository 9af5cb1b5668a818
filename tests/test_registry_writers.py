"""One count per event beyond the monitors: the registry holds monitor
stats plus ``update_ms`` only.

Every layer around the monitors (ingest guard, reorder buffer,
dead-letter queue, backpressure queue, write-ahead log, checkpoint
manager, supervisor, degradation ladder) counts its events in plain
attributes and writes nothing to a metrics registry.  The engine's
publish of ``MonitorStats`` and its ``update_ms`` histogram are the
registry's only writers.  One exception stands: the WAL's
``wal_bytes_written``, which the end-to-end benchmark sets up and reads
through ``WriteAheadLog.metrics``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.durability import WriteAheadLog
from repro.engine import StreamEngine
from repro.obs import Metrics
from repro.overload import BackpressureQueue
from repro.resilience import CheckpointManager, IngestGuard, MonitorSupervisor
from repro.window import CountWindow

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the registry's own package and the engine that publishes into it
OWNERS = {"obs", "engine"}
WRITER = re.compile(r"\.inc\(|set_gauge\(|attach_metrics|metrics: Metrics")
ALLOWED = [
    ("durability/wal.py", 'self.metrics.inc("wal_bytes_written", len(frame))')
]


def test_no_registry_writer_outside_obs_and_engine():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in OWNERS:
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if WRITER.search(line):
                hits.append((rel.as_posix(), line.strip()))
    assert hits == ALLOWED


def test_registry_holds_monitor_stats_and_update_ms_only(tmp_path):
    monitor = MonitorSupervisor(
        AG2Monitor(20.0, 20.0, CountWindow(120)), probe_every=2
    )
    wal = WriteAheadLog(tmp_path / "wal")
    manager = CheckpointManager(monitor, tmp_path / "ckpt.json", every=2)
    guard = IngestGuard(max_lateness=1.0)
    queue = BackpressureQueue(100, max_batch=20)
    registry = Metrics()
    engine = StreamEngine(
        {"q": monitor},
        iter(()),
        20,
        metrics=registry,
        checkpoint=manager,
        wal=wal,
    )
    try:
        for seed in range(8):
            records: list[object] = list(
                make_objects(20, seed=seed, start_t=100.0 * seed)
            )
            records.append({"x": float("nan"), "y": 1.0})
            queue.offer_all(guard.filter(records))
            batch = queue.take_batch()
            if batch:
                engine.process(batch)
    finally:
        wal.close()
    # the layers did count, each in its own attributes
    assert guard.quarantined == 8
    assert wal.appends == manager.batch_index > 0
    assert manager.checkpoints_written > 0
    snap = registry.snapshot()
    assert registry.scopes() == ("q",)
    assert snap.counters == {
        f"q.{name}": value
        for name, value in dataclasses.asdict(monitor.stats).items()
    }
    assert set(snap.histograms) == {"q.update_ms"}
