"""One count per event: nothing in the library writes a metrics
registry but the WAL's ``wal_bytes_written``.

Monitors count in ``MonitorStats`` and every layer around them (ingest
guard, reorder buffer, dead-letter queue, backpressure queue, write-ahead
log, checkpoint manager, degradation ladder, engine) counts
its events in plain attributes.  Only the registry's own package may
hold writer calls; the one exception is the WAL's ``wal_bytes_written``,
which the end-to-end benchmark sets up and reads through
``WriteAheadLog.metrics``.
"""

from __future__ import annotations

import re
from pathlib import Path

from conftest import make_objects
from repro.durability import WriteAheadLog
from repro.engine import StreamEngine
from repro.obs import Metrics
from repro.overload import AdaptiveMonitor, BackpressureQueue
from repro.resilience import CheckpointManager, IngestGuard
from repro.window import CountWindow

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the registry's own package
OWNERS = {"obs"}
WRITER = re.compile(r"\.inc\(|set_gauge\(|attach_metrics|metrics: Metrics")
ALLOWED = [
    ("durability/wal.py", 'self.metrics.inc("wal_bytes_written", len(frame))')
]


def test_no_registry_writer_outside_obs():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in OWNERS:
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if WRITER.search(line):
                hits.append((rel.as_posix(), line.strip()))
    assert hits == ALLOWED


def test_composed_run_writes_only_wal_bytes(tmp_path):
    """guard -> queue -> WAL -> probed ladder -> checkpoint: each layer
    counts in its own attributes, and the WAL's registry, the only one
    attached, holds ``wal_bytes_written`` alone."""
    monitor = AdaptiveMonitor(
        20.0, 20.0, CountWindow(120), budget_ms=1e9, probe_every=2
    )
    wal = WriteAheadLog(tmp_path / "wal")
    wal.metrics = Metrics("wal")
    manager = CheckpointManager(monitor, tmp_path / "ckpt.json", every=2)
    guard = IngestGuard(max_lateness=1.0)
    queue = BackpressureQueue(100, max_batch=20)
    engine = StreamEngine(
        {"q": monitor}, [], 20, checkpoint=manager, wal=wal
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
    assert monitor.stats.updates == manager.batch_index
    assert list(wal.metrics._counters) == ["wal_bytes_written"]
    assert wal.metrics.counter("wal_bytes_written").value > 0
