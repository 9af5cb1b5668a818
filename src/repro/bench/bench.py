"""The measurement loop and the fixed-seed benchmark suite (``bench``).

:func:`measure` is the only timing code in ``repro.bench``: the bench
rows below and every paper experiment (``repro.bench.runners``, the
CLI sweeps, ``benchmarks/run_experiments.py``) time their monitors
through it.

``run_bench`` drives every monitor implementation over the two
canonical workloads (uniform = ``synthetic``, gaussian =
``geolife_like``) with a fixed stream seed and reports, per
(monitor, dataset) row:

* ``ops_per_s``   — arrival throughput (objects processed per second),
* ``mean_ms`` / ``max_ms`` — mean and slowest per-batch update
  latency (``batches`` is 10–12, too few samples for a p95),
* ``speedup_vs_naive`` — naive mean over this monitor's mean on the
  *same* dataset in the *same* run.

Each monitor label names exactly one spatial index, so a gate failure
on a row already names the offending index.

The document also names the ``sweep_kernel`` that ran every sweep.  It
always reads ``compiled`` now (the library is required, see
``repro.core.planesweep``); older baselines may read ``python``, and
the compiled kernel speeds naive up far more than the indexed
monitors, so speedups from different kernels are not comparable.

Three *skewed* workloads (``gauss_static``, ``gauss_drift``,
``powerlaw``) additionally run naive and aG2.  They pin aG2 where the
uniform grid degrades: dense cells make every arrival's overlap
search and every cell's sweep expensive (see docs/PERFORMANCE.md).

The ``paper`` profile times the paper's default sizing
(``DEFAULT_CONFIG``: n = 10000, l = 1000, domain 140k) where the quick
profile's n = 1000 window is too sparse to show the dense-cell cost:
naive and aG2 on ``uniform``, ``gaussian`` and ``gauss_static``, and
G2 on ``uniform`` only (:data:`PAPER_ROWS`).  It is not in the default
``both``: ``bench --profile paper`` runs it (~20 s).

``speedup_vs_naive`` is the number the CI gate compares across runs:
it is a ratio *within* one run on one machine, so it tracks algorithmic
regressions while staying insensitive to how fast the host happens to
be (absolute ``ops_per_s`` is recorded for humans, never gated).  To
keep that ratio stable on a noisy runner, each batch is timed on every
monitor of a dataset back to back, so a slow phase of the host slows
numerator and denominator alike, and every dataset is measured as
``repeats`` *rounds* over the identical seeded stream, each batch
keeping its fastest observation — noise only ever adds time, so
per-batch minima converge on the true cost and the ratio of denoised
means survives a 15% tolerance (see :func:`measure`).

The committed baseline lives in ``BENCH_PR36.json`` at the repo root
(the quick and paper profiles, measured with the compiled sweep
kernel); regenerate a profile with
``maxrs-stream bench --profile quick --seed 42 --out new.json`` and
copy its ``profiles`` entry into the baseline, and compare a fresh run
against it with
``python scripts/perf_gate.py --bench new.json --baseline BENCH_PR36.json``.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.config import ExperimentConfig
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.spaces import MaxRSResult
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.errors import InvalidParameterError, StreamExhaustedError
from repro.window import CountWindow

__all__ = [
    "BENCH_DATASETS",
    "BENCH_MONITORS",
    "BENCH_SCHEMA",
    "BENCH_SKEW_DATASETS",
    "BENCH_SKEW_MONITORS",
    "PAPER_ROWS",
    "PROFILES",
    "bench_rows",
    "mean_ms",
    "measure",
    "run_bench",
    "run_profile_suite",
]

#: 8: one pass over the seeded stream feeds the window fill, the
#: turnover and the timed batches; every earlier schema re-read the
#: stream's first objects for each of them
#: 7: rows drop the ``index`` field and the skew-adaptive aG2 monitor
#: is gone; each monitor label names exactly one index
#: 6: the document names its ``sweep_kernel`` (``compiled`` or
#: ``python``); the gate refuses to compare across kernels.  Monitors
#: are timed batch by batch in turn, not row after row
#: 5: rows report ``max_ms`` (the sample maximum) in place of
#: ``p95_ms``, which with 10–12 batches was that same maximum; the
#: multi-query scaling block is gone
#: 4: rows drop the ``backend`` field; there is one sweep kernel
#: 3: ``backend`` named the sweep kernel, and the spatial index moved
#: to the new ``index`` field
#: 2: added the skewed workload rows, the skew-adaptive aG2 monitor and the
#: per-row ``backend`` field (PR 6)
BENCH_SCHEMA = 8

#: benchmark dataset label -> repro.datasets workload name
BENCH_DATASETS = {"uniform": "synthetic", "gaussian": "geolife_like"}

#: skewed workload label -> repro.datasets workload name; these rows
#: track aG2 where dense grid cells degrade it
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
    "rtree": lambda side, w: RTreeMonitor(side, side, CountWindow(w)),
    "topk": lambda side, w: TopKAG2Monitor(side, side, CountWindow(w), k=10),
}

#: the subset run on the skewed workloads: the naive denominator plus
#: aG2, the paper's monitor (the full matrix would triple the suite's
#: runtime)
BENCH_SKEW_MONITORS = ("naive", "ag2")

#: the ``paper`` profile's rows, dataset label -> monitors: naive and
#: aG2 at the paper's default sizing on three densities, G2 on the
#: uniform one only (on ``hotspot_static`` it takes ~1.3 s a batch at
#: this window, ~150 s a round)
PAPER_ROWS = {
    "uniform": ("naive", "g2", "ag2"),
    "gaussian": ("naive", "ag2"),
    "gauss_static": ("naive", "ag2"),
}


PROFILES: Dict[str, ExperimentConfig] = {
    "full": ExperimentConfig(
        window_size=4_000, batch_size=200, batches=12, repeats=2
    ),
    "quick": ExperimentConfig(
        window_size=1_000, batch_size=100, batches=10, repeats=5
    ),
    # DEFAULT_CONFIG's sizing: n = 10000, m = 100, l = 1000, domain
    # 140k, whose overlap degree matches the paper's default
    "paper": ExperimentConfig(batches=10, repeats=2),
}

Timings = Dict[str, List[float]]
Answers = Dict[str, List[MaxRSResult]]
#: per monitor, one ``MonitorStats.delta`` per timed batch
Counts = Dict[str, List[Dict[str, int]]]


def measure(
    cfg: ExperimentConfig, build: Callable[[], Dict[str, MaxRSMonitor]]
) -> Tuple[Timings, Answers, Counts]:
    """Per-batch update times (s), answers and counter deltas of the
    monitors ``build`` returns, over ``cfg``'s seeded stream: the one
    measurement loop of the benchmark, the paper experiments and
    ``profile``.

    One pass over the stream supplies, as consecutive disjoint slices,
    the window fill, one full window turnover and the ``cfg.batches``
    timed batches; every monitor sees the same objects.  A stream too
    short for all of them raises :class:`StreamExhaustedError` naming
    the objects it got and needed.  Each of the ``cfg.repeats`` rounds
    builds fresh monitors and times every batch on them (see
    :func:`_time_round`), and each batch keeps its fastest observation
    across rounds.  Scheduler preemption and page faults only ever
    *add* time, so the per-batch minimum converges on the true cost as
    rounds accumulate.  The answers and counts are the last round's
    (every round computes the same ones).
    """
    turnover = -(-cfg.window_size // cfg.batch_size)
    needed = cfg.window_size + (turnover + cfg.batches) * cfg.batch_size
    stream = make_stream(cfg.dataset, domain=cfg.domain, seed=cfg.seed)
    objects = stream.take(needed)
    if len(objects) < needed:
        raise StreamExhaustedError(
            f"dataset {cfg.dataset!r} ran dry: got {len(objects)} of the "
            f"{needed} objects needed (window {cfg.window_size}, "
            f"{turnover} turnover + {cfg.batches} timed batches of "
            f"{cfg.batch_size})"
        )
    batches = [
        objects[start : start + cfg.batch_size]
        for start in range(cfg.window_size, needed, cfg.batch_size)
    ]
    prime = objects[: cfg.window_size]
    warm, timed = batches[:turnover], batches[turnover:]
    best: Timings = {}
    for _ in range(cfg.repeats):
        times, answers, counts = _time_round(build(), prime, warm, timed)
        best = {
            label: list(map(min, best[label], sample)) if best else sample
            for label, sample in times.items()
        }
    return best, answers, counts


def _time_round(
    monitors: Dict[str, MaxRSMonitor],
    prime: List[SpatialObject],
    warm: List[List[SpatialObject]],
    timed: List[List[SpatialObject]],
) -> Tuple[Timings, Answers, Counts]:
    """One measurement round: bring every monitor to its steady state
    untimed, then time every batch of ``timed`` on each.

    The window is filled in one ingest, then one full window turnover
    (``warm``) runs before the clock starts: the one-shot fill leaves
    every monitor in an atypical state, and per-batch cost reaches its
    steady plateau only once the primed cohort has expired.  Timing
    from the plateau measures what a long-running monitor costs per
    batch.

    Batch ``i`` is timed on each monitor back to back before batch
    ``i + 1`` is timed on any.  The monitors' ``i``-th samples are thus
    milliseconds apart, so a slow phase of the host (co-tenant load,
    frequency scaling) lands on naive and on the monitor it is divided
    by alike, and cancels out of ``speedup_vs_naive``.  Such phases
    last seconds, and naive's batch is ~1 ms with the compiled sweep,
    so rows timed one after another drifted apart by up to 1.6x.
    Garbage is collected before the clock starts and the collector is
    paused while it runs, so no monitor pays for another's garbage
    inside its timed region.  Each monitor's ``stats`` are copied after
    its clock stops, and the counts are the differences of consecutive
    copies: what each timed batch alone cost in operations.
    """
    for monitor in monitors.values():
        monitor.ingest(prime)
        for batch in warm:
            monitor.update(batch)
    times: Timings = {label: [] for label in monitors}
    answers: Answers = {label: [] for label in monitors}
    seen = {label: [m.stats.snapshot()] for label, m in monitors.items()}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        for batch in timed:
            for label, monitor in monitors.items():
                start = perf()
                result = monitor.update(batch)
                times[label].append(perf() - start)
                answers[label].append(result)
                seen[label].append(monitor.stats.snapshot())
    finally:
        if was_enabled:
            gc.enable()
    counts: Counts = {
        label: [after.delta(before) for before, after in zip(s, s[1:])]
        for label, s in seen.items()
    }
    return times, answers, counts


def mean_ms(sample: Sequence[float]) -> float:
    """Mean of per-batch times (s), in milliseconds."""
    return sum(sample) / len(sample) * 1000.0


def run_profile_suite(name: str, seed: int) -> Dict[str, object]:
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
        """One dataset's rows; ``speedup_vs_naive``, the number the CI
        gate compares, is the ratio of per-batch-minimum means."""
        cfg = profile.with_(dataset=dataset, seed=seed)
        best, _, _ = measure(
            cfg,
            lambda: {
                label: BENCH_MONITORS[label](cfg.rect_side, cfg.window_size)
                for label in monitor_labels
            },
        )
        naive_ms = mean_ms(best["naive"])
        for label in monitor_labels:
            times = best[label]
            row_ms = mean_ms(times)
            rows.append(
                {
                    "monitor": label,
                    "dataset": ds_label,
                    "ops_per_s": cfg.batch_size * len(times) / sum(times),
                    "mean_ms": row_ms,
                    "max_ms": max(times) * 1000.0,
                    "speedup_vs_naive": naive_ms / row_ms,
                }
            )

    if name == "paper":
        datasets = {**BENCH_DATASETS, **BENCH_SKEW_DATASETS}
        for ds_label, monitor_labels in PAPER_ROWS.items():
            run_dataset(ds_label, datasets[ds_label], monitor_labels)
    else:
        for ds_label, dataset in BENCH_DATASETS.items():
            run_dataset(ds_label, dataset, tuple(BENCH_MONITORS))
        for ds_label, dataset in BENCH_SKEW_DATASETS.items():
            run_dataset(ds_label, dataset, BENCH_SKEW_MONITORS)
    return {
        "window_size": profile.window_size,
        "batch_size": profile.batch_size,
        "batches": profile.batches,
        "repeats": profile.repeats,
        "rows": rows,
    }


def run_bench(
    seed: int = 42,
    profiles: tuple[str, ...] = ("full", "quick"),
) -> Dict[str, object]:
    """The full benchmark document (see module docstring)."""
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "sweep_kernel": "compiled",
        "profiles": {name: run_profile_suite(name, seed) for name in profiles},
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
