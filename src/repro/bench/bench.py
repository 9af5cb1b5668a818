"""Fixed-seed benchmark suite with a committed baseline (``bench``).

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

The document also names the ``sweep_kernel`` that ran every sweep
(``compiled`` or ``python``, see ``repro.core.planesweep``): the
compiled kernel speeds naive up far more than the indexed monitors,
so speedups from different kernels are not comparable.

Three *skewed* workloads (``gauss_static``, ``gauss_drift``,
``powerlaw``) additionally run naive and aG2.  They pin aG2 where the
uniform grid degrades: dense cells make every arrival's overlap
search and local sweep expensive, and aG2 runs at 0.24–0.51x naive
there in the committed baseline, its largest loss in the suite (see
docs/PERFORMANCE.md).

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
means survives a 15% tolerance (see ``_time_round``).

The committed baseline lives in ``BENCH_PR9.json`` at the repo root
(the quick profile, measured with the compiled sweep kernel);
regenerate it with
``maxrs-stream bench --profile quick --seed 42 --out BENCH_PR9.json``
and compare a fresh run against it with
``python scripts/perf_gate.py --bench new.json --baseline BENCH_PR9.json``.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core import planesweep
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
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
]

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
BENCH_SCHEMA = 7

#: benchmark dataset label -> repro.datasets workload name
BENCH_DATASETS = {"uniform": "synthetic", "gaussian": "geolife_like"}

#: skewed workload label -> repro.datasets workload name; these rows
#: track aG2's largest loss to naive, where dense grid cells degrade it
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


@dataclass(frozen=True, slots=True)
class BenchProfile:
    """One benchmark sizing; ``quick`` for the committed baseline and
    the CI smoke job, ``full`` for a longer run by hand."""

    window_size: int
    batch_size: int
    batches: int
    rect_side: float = 1000.0
    domain: float = 140_000.0
    #: measurement rounds per dataset; every row's numbers come from
    #: per-batch minima across rounds (see ``_time_round`` for the
    #: noise argument).
    repeats: int = 1


PROFILES: Dict[str, BenchProfile] = {
    "full": BenchProfile(
        window_size=4_000, batch_size=200, batches=12, repeats=2
    ),
    "quick": BenchProfile(
        window_size=1_000, batch_size=100, batches=10, repeats=5
    ),
}


def _prime(
    monitor: MaxRSMonitor, profile: BenchProfile, dataset: str, seed: int
) -> List[list]:
    """Bring ``monitor`` to its steady state untimed and return the
    ``batches`` it is to be timed on.

    The window is filled in one ingest, then one full window turnover
    runs before the clock starts: the one-shot priming ingest leaves
    every monitor in an atypical state, and per-batch cost ramps to its
    steady plateau only once the primed cohort has expired (G2's climbs
    ~20x over that span, naive's falls ~2x).  Timing from the plateau
    measures what a long-running monitor actually costs per batch.
    """
    stream = make_stream(dataset, domain=profile.domain, seed=seed)
    monitor.ingest(stream.take(profile.window_size))
    turnover = -(-profile.window_size // profile.batch_size)
    for _ in range(turnover):
        monitor.update(stream.take(profile.batch_size))
    return [stream.take(profile.batch_size) for _ in range(profile.batches)]


def _time_round(
    labels: Sequence[str], profile: BenchProfile, dataset: str, seed: int
) -> Dict[str, List[float]]:
    """One measurement round: per-batch update times (s) of every
    monitor in ``labels``.

    Every monitor is built and primed first; then batch ``i`` is timed
    on each monitor back to back before batch ``i + 1`` is timed on
    any.  The monitors' ``i``-th samples are thus milliseconds apart,
    so a slow phase of the host (co-tenant load, frequency scaling)
    lands on naive and on the monitor it is divided by alike, and
    cancels out of ``speedup_vs_naive``.  Such phases last seconds,
    and naive's batch is ~1 ms with the compiled sweep, so rows timed
    one after another drifted apart by up to 1.6x.  Garbage is
    collected before the clock starts and the collector is paused
    while it runs, so no monitor pays for another's garbage inside its
    timed region.
    """
    monitors = {
        label: BENCH_MONITORS[label](profile.rect_side, profile.window_size)
        for label in labels
    }
    batches = {
        label: _prime(monitor, profile, dataset, seed)
        for label, monitor in monitors.items()
    }
    times: Dict[str, List[float]] = {label: [] for label in labels}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        for i in range(profile.batches):
            for label in labels:
                update = monitors[label].update
                batch = batches[label][i]
                start = perf()
                update(batch)
                times[label].append(perf() - start)
    finally:
        if was_enabled:
            gc.enable()
    return times


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
        """One dataset's rows, from per-batch minima over rounds.

        Each round times every monitor (naive included) over the
        identical seeded stream (see :func:`_time_round`), and each
        batch keeps its fastest observation across rounds.  Scheduler
        preemption and page faults only ever *add* time, so the
        per-batch minimum converges on the true cost as rounds
        accumulate.  ``speedup_vs_naive`` — the number the CI gate
        compares — is the ratio of these denoised means.
        """
        best: Dict[str, List[float]] = {}
        for _ in range(max(1, profile.repeats)):
            times = _time_round(monitor_labels, profile, dataset, seed)
            for label, sample in times.items():
                prev = best.get(label)
                best[label] = (
                    sample if prev is None else list(map(min, prev, sample))
                )
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
                    "ops_per_s": (
                        profile.batch_size * len(times) / total
                        if total > 0
                        else 0.0
                    ),
                    "mean_ms": mean_ms,
                    "max_ms": max(times) * 1000.0,
                    "speedup_vs_naive": (
                        naive_mean_ms / mean_ms if mean_ms > 0 else 0.0
                    ),
                }
            )

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
        "sweep_kernel": planesweep.sweep_kernel(),
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
