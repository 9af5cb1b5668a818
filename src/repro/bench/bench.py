"""Fixed-seed benchmark suite with a committed baseline (``bench``).

``run_bench`` drives every monitor implementation over the two
canonical workloads (uniform = ``synthetic``, gaussian =
``geolife_like``) with a fixed stream seed and reports, per
(monitor, dataset) row:

* ``ops_per_s``   — arrival throughput (objects processed per second),
* ``mean_ms`` / ``p95_ms`` — per-batch update latency,
* ``speedup_vs_naive`` — naive mean over this monitor's mean on the
  *same* dataset in the *same* run,
* ``index``       — the spatial index that produced the row
  (``uniform-grid`` / ``quadtree`` / ``rtree`` / ``none``), so a gate
  failure names the offending index, not just the algorithm label.

Three *skewed* workloads (``gauss_static``, ``gauss_drift``,
``powerlaw``) additionally run the skew-relevant subset — naive,
uniform-grid aG2 and quadtree aG2 — to measure the adaptive index
exactly where the flat grid degrades (see docs/PERFORMANCE.md).

``speedup_vs_naive`` is the number the CI gate compares across runs:
it is a ratio *within* one run on one machine, so it tracks algorithmic
regressions while staying insensitive to how fast the host happens to
be (absolute ``ops_per_s`` is recorded for humans, never gated).  To
keep that ratio stable on a noisy runner, every dataset is measured as
``repeats`` interleaved *rounds* over the identical seeded stream and
each batch keeps its fastest observation — noise only ever adds time,
so per-batch minima converge on the true cost and the ratio of
denoised means survives a 15% tolerance (see ``run_profile_suite``).

A final *multi-query scaling* row times the same query set served by
:class:`~repro.engine.multi.MultiQueryGroup` (serial) and
:class:`~repro.engine.parallel.ParallelQueryGroup` (sharded across
worker processes).  ``scaling`` is serial-over-parallel wall time; the
row records ``cpu_count`` because the ratio only exceeds 1 when the
host actually has spare cores — on a single-CPU machine the honest
number is below 1 and the gate skips it (see docs/PERFORMANCE.md).

The committed baseline lives in ``BENCH_PR9.json`` at the repo root;
regenerate it with ``maxrs-stream bench --seed 42 --out BENCH_PR9.json``
and compare a fresh run against it with
``python scripts/perf_gate.py --bench new.json --baseline BENCH_PR9.json``.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.quadtree import QuadtreeAG2Monitor
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.engine.multi import MultiQueryGroup
from repro.engine.parallel import ParallelQueryGroup
from repro.errors import InvalidParameterError
from repro.window import CountWindow

__all__ = [
    "BENCH_DATASETS",
    "BENCH_MONITORS",
    "BENCH_SCHEMA",
    "BENCH_SKEW_DATASETS",
    "BENCH_SKEW_MONITORS",
    "BenchProfile",
    "PROFILES",
    "bench_rows",
    "run_bench",
    "run_profile_suite",
    "scaling_rows",
]

#: 4: rows drop the ``backend`` field; there is one sweep kernel
#: 3: ``backend`` named the sweep kernel, and the spatial index moved
#: to the new ``index`` field
#: 2: added the skewed workload rows, the ag2_quadtree monitor and the
#: per-row ``backend`` field (PR 6)
BENCH_SCHEMA = 4

#: benchmark dataset label -> repro.datasets workload name
BENCH_DATASETS = {"uniform": "synthetic", "gaussian": "geolife_like"}

#: skewed workload label -> repro.datasets workload name; these rows
#: exist to measure the adaptive index where the flat grid degrades
BENCH_SKEW_DATASETS = {
    "gauss_static": "hotspot_static",
    "gauss_drift": "hotspot_drift",
    "powerlaw": "powerlaw_cities",
}

MonitorFactory = Callable[[float, int], MaxRSMonitor]

#: label -> factory(side, window_size); ordering is the report ordering
BENCH_MONITORS: Dict[str, MonitorFactory] = {
    "naive": lambda side, w: NaiveMonitor(side, side, CountWindow(w)),
    "g2": lambda side, w: G2Monitor(side, side, CountWindow(w)),
    "ag2": lambda side, w: AG2Monitor(side, side, CountWindow(w)),
    "ag2_quadtree": lambda side, w: QuadtreeAG2Monitor(
        side, side, CountWindow(w)
    ),
    "rtree": lambda side, w: RTreeMonitor(side, side, CountWindow(w)),
    "topk": lambda side, w: TopKAG2Monitor(side, side, CountWindow(w), k=10),
}

#: the subset run on the skewed workloads: the naive denominator plus
#: the two aG2 index backends under comparison (the full matrix would
#: triple the suite's runtime for rows no gate consumes)
BENCH_SKEW_MONITORS = ("naive", "ag2", "ag2_quadtree")


@dataclass(frozen=True, slots=True)
class BenchProfile:
    """One benchmark sizing; ``full`` for the committed baseline,
    ``quick`` for the CI smoke job."""

    window_size: int
    batch_size: int
    batches: int
    rect_side: float = 1000.0
    domain: float = 140_000.0
    #: interleaved measurement rounds per dataset; every row's numbers
    #: come from per-batch minima across rounds (see
    #: ``run_profile_suite.run_dataset`` for the noise argument).
    repeats: int = 1
    # multi-query scaling row sizing
    mq_queries: int = 4
    mq_workers: int = 2
    mq_window: int = 2_000
    mq_batch_size: int = 150
    mq_batches: int = 6


PROFILES: Dict[str, BenchProfile] = {
    "full": BenchProfile(
        window_size=4_000, batch_size=200, batches=12, repeats=2
    ),
    "quick": BenchProfile(
        window_size=1_000,
        batch_size=100,
        batches=10,
        repeats=5,
        mq_window=800,
        mq_batch_size=80,
        mq_batches=4,
    ),
}


def _p95(samples: List[float]) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(0.95 * len(ordered)))
    return ordered[index]


def _time_once(
    monitor: MaxRSMonitor, profile: BenchProfile, dataset: str, seed: int
) -> List[float]:
    """Prime the window untimed, then time ``batches`` updates (s).

    Every row starts from the same heap state: the previous row's
    garbage is collected up front, and the collector is paused while
    the clock runs.  Without this the rows are order-biased — later
    monitors inherit a bigger heap and pay the earlier rows' GC pauses
    inside their timed region, which showed up as ±30% swings when the
    suite order was shuffled.
    """
    stream = make_stream(dataset, domain=profile.domain, seed=seed)
    monitor.ingest(stream.take(profile.window_size))
    # One full window turnover untimed before the clock starts: the
    # one-shot priming ingest leaves every monitor in an atypical
    # state, and per-batch cost ramps to its steady plateau only once
    # the primed cohort has expired (G2's climbs ~20x over that span,
    # naive's falls ~2x).  Timing from the plateau measures what a
    # long-running monitor actually costs per batch.
    turnover = -(-profile.window_size // profile.batch_size)
    for _ in range(turnover):
        monitor.update(stream.take(profile.batch_size))
    batches = [stream.take(profile.batch_size) for _ in range(profile.batches)]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        times: List[float] = []
        for batch in batches:
            start = perf()
            monitor.update(batch)
            times.append(perf() - start)
    finally:
        if was_enabled:
            gc.enable()
    return times


def _mq_monitors(profile: BenchProfile) -> Dict[str, MaxRSMonitor]:
    """The multi-query set: aG2 queries of graduated rectangle sizes."""
    sides = [
        profile.rect_side * (0.6 + 0.2 * i) for i in range(profile.mq_queries)
    ]
    return {
        f"q{i}": AG2Monitor(side, side, CountWindow(profile.mq_window))
        for i, side in enumerate(sides)
    }


def _time_group(group, profile: BenchProfile, seed: int) -> float:
    """Total wall seconds to serve ``mq_batches`` through a group."""
    stream = make_stream(
        BENCH_DATASETS["uniform"], domain=profile.domain, seed=seed
    )
    prime = stream.take(profile.mq_window)
    batches = [stream.take(profile.mq_batch_size) for _ in range(profile.mq_batches)]
    group.update(prime)  # untimed warm-up fill
    perf = time.perf_counter
    start = perf()
    for batch in batches:
        group.update(batch)
    return perf() - start


def _run_scaling(profile: BenchProfile, seed: int) -> Dict[str, object]:
    serial = MultiQueryGroup()
    for name, monitor in _mq_monitors(profile).items():
        serial.add(name, monitor)
    serial_s = _time_group(serial, profile, seed)

    parallel = ParallelQueryGroup(workers=profile.mq_workers)
    try:
        for name, monitor in _mq_monitors(profile).items():
            parallel.add(name, monitor)
        parallel_s = _time_group(parallel, profile, seed)
    finally:
        parallel.close()

    return {
        "queries": profile.mq_queries,
        "workers": profile.mq_workers,
        "serial_ms": serial_s * 1000.0,
        "parallel_ms": parallel_s * 1000.0,
        "scaling": serial_s / parallel_s if parallel_s > 0 else 0.0,
    }


def run_profile_suite(
    name: str, seed: int, scaling: bool = True
) -> Dict[str, object]:
    """All rows of one named profile."""
    profile = PROFILES.get(name)
    if profile is None:
        raise InvalidParameterError(
            f"unknown bench profile {name!r}; expected one of {tuple(PROFILES)}"
        )
    rows: List[Dict[str, object]] = []

    def run_dataset(
        ds_label: str, dataset: str, monitor_labels: Sequence[str]
    ) -> None:
        """One dataset's rows, measured as interleaved rounds.

        Each round times *every* monitor (naive included) back to back
        over the identical seeded stream, and each batch keeps its
        fastest observation across rounds.  Scheduler preemption and
        page faults only ever *add* time, so the per-batch minimum
        converges on the true cost as rounds accumulate; interleaving
        the rounds means every monitor's minima sample the same span of
        the host's speed history, so slow drift (frequency scaling,
        allocator layout, co-tenant load) cannot land on one side of a
        ratio only.  ``speedup_vs_naive`` — the number the CI gate
        compares — is the ratio of these denoised means.  Single-shot
        5-batch means swung ±20–30% between runs on a busy 1-CPU host,
        tripping the 15% gate on pure noise; the minima hold rows
        steady within a few percent.
        """
        rounds = max(1, profile.repeats)
        best: Dict[str, List[float]] = {}
        indexes: Dict[str, str] = {}
        for _ in range(rounds):
            for label in monitor_labels:
                monitor = BENCH_MONITORS[label](
                    profile.rect_side, profile.window_size
                )
                indexes[label] = monitor.index_backend
                times = _time_once(monitor, profile, dataset, seed)
                if label in best:
                    best[label] = [min(a, b) for a, b in zip(best[label], times)]
                else:
                    best[label] = times
        naive = best.get("naive")
        naive_mean_ms = sum(naive) / len(naive) * 1000.0 if naive else 0.0
        for label in monitor_labels:
            times = best[label]
            total = sum(times)
            mean_ms = total / len(times) * 1000.0
            rows.append(
                {
                    "monitor": label,
                    "dataset": ds_label,
                    "index": indexes[label],
                    "ops_per_s": (
                        profile.batch_size * len(times) / total
                        if total > 0
                        else 0.0
                    ),
                    "mean_ms": mean_ms,
                    "p95_ms": _p95(times) * 1000.0,
                    "speedup_vs_naive": (
                        naive_mean_ms / mean_ms if mean_ms > 0 else 0.0
                    ),
                }
            )

    for ds_label, dataset in BENCH_DATASETS.items():
        run_dataset(ds_label, dataset, tuple(BENCH_MONITORS))
    for ds_label, dataset in BENCH_SKEW_DATASETS.items():
        run_dataset(ds_label, dataset, BENCH_SKEW_MONITORS)
    doc: Dict[str, object] = {
        "window_size": profile.window_size,
        "batch_size": profile.batch_size,
        "batches": profile.batches,
        "repeats": profile.repeats,
        "rows": rows,
    }
    if scaling:
        doc["multi_query"] = _run_scaling(profile, seed)
    return doc


def run_bench(
    seed: int = 42,
    profiles: tuple[str, ...] = ("full", "quick"),
    scaling: bool = True,
) -> Dict[str, object]:
    """The full benchmark document (see module docstring)."""
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "profiles": {
            name: run_profile_suite(name, seed, scaling=scaling)
            for name in profiles
        },
    }


def bench_rows(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """Flatten a bench document's monitor rows for the table printer."""
    out: List[Dict[str, object]] = []
    for name, profile_doc in doc["profiles"].items():  # type: ignore[union-attr]
        for row in profile_doc["rows"]:
            flat = {"profile": name}
            flat.update(row)
            out.append(flat)
    return out


def scaling_rows(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """Flatten a bench document's multi-query scaling rows."""
    out: List[Dict[str, object]] = []
    for name, profile_doc in doc["profiles"].items():  # type: ignore[union-attr]
        mq = profile_doc.get("multi_query")
        if mq:
            flat = {"profile": name}
            flat.update(mq)
            out.append(flat)
    return out
