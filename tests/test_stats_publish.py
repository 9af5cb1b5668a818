"""One counter per monitor event: ``MonitorStats``, read per batch.

Every monitor counts its work in plain ``stats`` fields, and nothing
mirrors them elsewhere.  :func:`repro.bench.measure` (the loop behind
``profile``) reads each timed batch's counts as the difference of two
``stats`` copies, so the counts it reports are exactly what ``stats``
reads, for every monitor class.  Counts survive the replacements a run
can make: a rebuilt ladder rung takes over the ``stats`` of the one it
replaces, so no delta is ever negative.
"""
from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.allmax import AllMaxRSMonitor
from repro.core.g2 import G2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.sampling import SamplingMonitor
from repro.core.topk import TopKAG2Monitor
from repro.bench import ExperimentConfig, measure
from repro.datasets import make_stream
from repro.engine import StreamEngine
from repro.overload import AdaptiveMonitor
from repro.window import CountWindow

SIDE = 300.0
WINDOW = 300
BATCH = 30
BATCHES = 6
CFG = ExperimentConfig(
    dataset="geolife_like", window_size=WINDOW, batch_size=BATCH,
    batches=BATCHES, rect_side=SIDE, domain=10_000.0, seed=7,
)

FACTORIES = {
    "naive": lambda w: NaiveMonitor(SIDE, SIDE, w),
    "g2": lambda w: G2Monitor(SIDE, SIDE, w),
    "ag2": lambda w: AG2Monitor(SIDE, SIDE, w),
    "approx": lambda w: AG2Monitor(SIDE, SIDE, w, epsilon=0.2),
    "topk": lambda w: TopKAG2Monitor(SIDE, SIDE, w, k=5),
    "allmax": lambda w: AllMaxRSMonitor(SIDE, SIDE, w),
    "rtree": lambda w: RTreeMonitor(SIDE, SIDE, w),
    "sampling": lambda w: SamplingMonitor(SIDE, SIDE, w, epsilon=0.3, seed=3),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_measured_counts_read_what_stats_read(name):
    """``measure``'s counts of each timed batch equal the ``stats``
    increase a replay of the same slices shows over that batch, so
    they sum to the increase over the timed batches."""
    built = []

    def build():
        built.append(FACTORIES[name](CountWindow(WINDOW)))
        return {name: built[-1]}

    _, _, counts = measure(CFG, build)
    turnover = -(-WINDOW // BATCH)
    objects = make_stream(CFG.dataset, domain=CFG.domain, seed=CFG.seed).take(
        WINDOW + (turnover + BATCHES) * BATCH
    )
    replay = FACTORIES[name](CountWindow(WINDOW))
    replay.ingest(objects[:WINDOW])
    chunks = [
        objects[i : i + BATCH] for i in range(WINDOW, len(objects), BATCH)
    ]
    for batch in chunks[:turnover]:
        replay.update(batch)
    start = replay.stats.snapshot()
    expected = []
    for batch in chunks[turnover:]:
        before = replay.stats.snapshot()
        replay.update(batch)
        expected.append(replay.stats.delta(before))
    assert counts[name] == expected
    increase = replay.stats.delta(start)
    assert built[-1].stats == replay.stats
    for field, total in increase.items():
        assert sum(delta[field] for delta in counts[name]) == total, field
    if name in ("ag2", "approx", "topk", "allmax"):
        # non-vacuous: top-k once counted its prunings only in stats
        assert increase["cells_pruned"] > 0
        assert increase["vertices_pruned"] > 0


def test_ladder_stats_never_move_backwards():
    """Across a sampling residency and a rebuild of the aG2 rung the
    ladder's ``stats`` stay one object that only grows, so every
    per-batch ``MonitorStats.delta`` is non-negative."""
    latency = {"ms": 0.0}
    adaptive = AdaptiveMonitor(
        20.0,
        20.0,
        CountWindow(120),
        budget_ms=10.0,
        seed=3,
        latency_model=lambda rung, batch: latency["ms"],
    )
    lineage = adaptive.stats
    engine = StreamEngine({"ladder": adaptive}, [], batch_size=10)
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
    assert adaptive._ag2.stats is lineage
    assert engine.batches == len(modes) == 12


def test_sampling_rung_counts_in_the_ladder_stats():
    """The sampling rung counts into the ladder's one ``MonitorStats``:
    its sweeps show in ``ladder.stats``, and it keeps no counter of its
    own."""
    adaptive = AdaptiveMonitor(
        20.0,
        20.0,
        CountWindow(120),
        budget_ms=10.0,
        seed=3,
        latency_model=lambda rung, batch: 0.0,
    )
    assert adaptive._sampler.stats is adaptive.stats
    adaptive._transition(adaptive.sampling_rung, "test")
    adaptive.note_pressure(5)  # a backlog holds the rung
    for seed in (1, 2):
        result = adaptive.update(make_objects(10, seed=seed, start_t=float(seed)))
        assert result.mode == "sampling"
    assert adaptive.stats.full_sweeps == 2
    assert adaptive.stats.updates == 2
    assert adaptive.stats.objects_seen == 20
