"""One counter per monitor event: ``MonitorStats`` reaches the registry
only through the engine's publish path.

Every monitor counts its work in plain ``stats`` fields; a
``StreamEngine`` given a registry adds each monitor's increase into the
monitor's scope after priming and after every update.  The registry
therefore reads exactly what ``stats`` reads, for every monitor class,
and counts survive the replacements a run can make: a rebuilt ladder
rung takes over the ``stats`` of the one it replaces.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.allmax import AllMaxRSMonitor
from repro.core.approx import ApproxAG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.sampling import SamplingMonitor
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.engine import StreamEngine
from repro.obs import Metrics
from repro.overload import AdaptiveMonitor
from repro.window import CountWindow

SIDE = 300.0
WINDOW = 300
BATCH = 30
BATCHES = 6

FACTORIES = {
    "naive": lambda w: NaiveMonitor(SIDE, SIDE, w),
    "g2": lambda w: G2Monitor(SIDE, SIDE, w),
    "ag2": lambda w: AG2Monitor(SIDE, SIDE, w),
    "approx": lambda w: ApproxAG2Monitor(SIDE, SIDE, w, epsilon=0.2),
    "topk": lambda w: TopKAG2Monitor(SIDE, SIDE, w, k=5),
    "allmax": lambda w: AllMaxRSMonitor(SIDE, SIDE, w),
    "rtree": lambda w: RTreeMonitor(SIDE, SIDE, w),
    "sampling": lambda w: SamplingMonitor(SIDE, SIDE, w, epsilon=0.3, seed=3),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_registry_reads_what_stats_read(name):
    monitor = FACTORIES[name](CountWindow(WINDOW))
    registry = Metrics()
    engine = StreamEngine(
        {name: monitor},
        make_stream("geolife_like", domain=10_000.0, seed=7),
        batch_size=BATCH,
        metrics=registry,
    )
    engine.prime(WINDOW)
    primed = registry.scope(name).snapshot().counters
    report = engine.run(BATCHES)
    stats = dataclasses.asdict(monitor.stats)
    assert report.metrics[name].counters == stats
    deltas = report.batch_metrics[name]
    assert len(deltas) == BATCHES
    for field, total in stats.items():
        run = sum(snap.counters[field] for snap in deltas)
        assert primed[field] + run == total, field
    if name in ("ag2", "approx", "topk", "allmax"):
        # non-vacuous: top-k once counted its prunings only in stats
        assert stats["cells_pruned"] > 0
        assert stats["vertices_pruned"] > 0


def test_ladder_stats_never_move_backwards():
    """Across a sampling residency and a rebuild of the aG2 rung the
    ladder's ``stats`` stay one object that only grows, so every delta
    the engine publishes is non-negative (a negative one would raise)."""
    latency = {"ms": 0.0}
    adaptive = AdaptiveMonitor(
        20.0,
        20.0,
        lambda: CountWindow(120),
        budget_ms=10.0,
        epsilon_schedule=(0.2, 0.4),
        seed=3,
        latency_model=lambda rung, batch: latency["ms"],
    )
    lineage = adaptive.stats
    registry = Metrics()
    engine = StreamEngine(
        {"ladder": adaptive}, iter(()), batch_size=10, metrics=registry
    )
    adaptive.ingest(make_objects(120, seed=1))
    previous = lineage.snapshot()
    modes = []

    def step(seed: int) -> None:
        nonlocal previous
        engine.process(make_objects(10, seed=seed, start_t=float(seed)))
        for field, amount in lineage.delta(previous).items():
            assert amount >= 0, field
        previous = lineage.snapshot()
        modes.append(adaptive.mode)

    step(2)
    adaptive.note_pressure(5)  # a backlog licenses the panic
    latency["ms"] = 100.0
    step(3)
    assert adaptive.mode == "sampling"
    latency["ms"] = 0.0
    for seed in range(4, 8):
        step(seed)  # sampling residency; recovery is deferred
    adaptive.note_pressure(0)
    for seed in range(8, 14):
        step(seed)
        adaptive.note_pressure(0)  # slack: the stale rung rebuilds here
    assert adaptive.rebuilds >= 1
    assert "sampling" in modes and modes[-1] != "sampling"
    assert adaptive.stats is lineage
    assert adaptive._ag2_core().stats is lineage
    report = engine.collect_report()
    for snap in report.batch_metrics["ladder"]:
        assert min(snap.counters.values()) >= 0
    counters = registry.scope("ladder").snapshot().counters
    assert counters == dataclasses.asdict(lineage)
