"""Profiling runner: internal operation counters for one workload.

The paper explains *why* aG2 wins through internal quantities — cells
visited, branch-and-bound prunings, upper-bound recomputations — not
only wall-clock means (§7).  ``run_profile`` times the monitors through
:func:`~repro.bench.bench.measure`, the loop of the bench and the paper
experiments (window fill and one full turnover untimed, then the timed
batches), and keeps each timed batch's ``MonitorStats`` delta beside
its time.  The :class:`ProfileReport` tables/JSON/CSV expose those
quantities per monitor and per batch.  The CI perf-regression gate
consumes the JSON artefact (``scripts/perf_gate.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Sequence

from repro.bench.bench import Counts, Timings, mean_ms, measure
from repro.bench.config import ExperimentConfig
from repro.bench.runners import ALGORITHMS, build_monitor
from repro.core.monitor import MonitorStats
from repro.engine.stats import TimingStats

__all__ = ["ProfileReport", "run_profile"]

#: counter display order: paper-relevant quantities first
_PREFERRED = (
    "cells_visited",
    "cells_scanned",
    "cells_pruned",
    "vertices_pruned",
    "local_sweeps",
    "cell_sweeps",
    "upper_bound_recomputes",
    "bound_tightenings",
    "edges_touched",
    "overlap_tests",
    "full_sweeps",
    "objects_swept",
    "nodes_expanded",
    "objects_expired",
)

#: every ``MonitorStats`` field: preferred counters first, the rest sorted
_COLUMNS = _PREFERRED + tuple(
    sorted({f.name for f in fields(MonitorStats)} - set(_PREFERRED))
)


@dataclass
class ProfileReport:
    """One profiled run: per monitor, each timed batch's update time
    (s) and ``MonitorStats`` delta."""

    config: ExperimentConfig
    times: Timings
    counts: Counts

    @property
    def batches(self) -> int:
        return self.config.batches

    def counters(self, name: str) -> Dict[str, int]:
        """Monitor ``name``'s counts summed over the timed batches: its
        ``stats`` increase from the first timed batch to the last."""
        return {
            column: sum(delta[column] for delta in self.counts[name])
            for column in _COLUMNS
        }

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per monitor: mean update time + timed-batch counters."""
        return [
            {"monitor": name, "mean_ms": mean_ms(sample), **self.counters(name)}
            for name, sample in self.times.items()
        ]

    def per_batch_rows(self) -> List[Dict[str, object]]:
        """One row per (batch, monitor) with that batch's counter deltas."""
        return [
            {"batch": index + 1, "monitor": name, **deltas[index]}
            for index in range(self.batches)
            for name, deltas in self.counts.items()
        ]

    def rate_rows(self) -> List[Dict[str, object]]:
        """Per-(batch, monitor) *derived* rates, normalising raw counters
        by the work offered (see docs/PERFORMANCE.md):

        * ``prune_fraction`` — cells pruned over cells considered
          (visited + pruned); how much of the index branch-and-bound
          skipped this batch.
        * ``sweeps_per_arrival`` — Local-Plane-Sweep invocations per
          arriving object; the incrementality argument made measurable.
        * ``overlap_tests_per_arrival`` — pairwise rectangle tests per
          arriving object; the neighbour-discovery cost driver.
        """
        arrivals = float(self.config.batch_size)
        rows: List[Dict[str, object]] = []
        for index in range(self.batches):
            for name, deltas in self.counts.items():
                c = deltas[index]
                considered = c["cells_visited"] + c["cells_pruned"]
                sweeps = c["local_sweeps"] + c["full_sweeps"]
                rows.append(
                    {
                        "batch": index + 1,
                        "monitor": name,
                        "prune_fraction": (
                            c["cells_pruned"] / considered
                            if considered
                            else 0.0
                        ),
                        "sweeps_per_arrival": sweeps / arrivals,
                        "overlap_tests_per_arrival": (
                            c["overlap_tests"] / arrivals
                        ),
                    }
                )
        return rows

    def csv_rows(self) -> List[Dict[str, object]]:
        """Flat (monitor, kind, metric, value) rows: every timing
        summary statistic and every timed-batch counter."""
        rows: List[Dict[str, object]] = []
        for name, sample in self.times.items():
            for metric, value in TimingStats(sample).summary().items():
                rows.append(
                    {"monitor": name, "kind": "timing",
                     "metric": metric, "value": value}
                )
            for metric, value in self.counters(name).items():
                rows.append(
                    {"monitor": name, "kind": "counter",
                     "metric": metric, "value": value}
                )
        return rows

    def to_dict(self) -> Dict[str, object]:
        """The JSON artefact shape (consumed by the CI perf gate, which
        reads ``metrics.<monitor>.counters`` and
        ``timings.<monitor>.mean_ms``)."""
        return {
            "config": asdict(self.config),
            "batches": self.batches,
            "batch_size": self.config.batch_size,
            "timings": {
                name: TimingStats(sample).summary()
                for name, sample in self.times.items()
            },
            "metrics": {
                name: {"counters": self.counters(name)} for name in self.counts
            },
            "batch_metrics": {
                name: [{"counters": delta} for delta in deltas]
                for name, deltas in self.counts.items()
            },
            "derived_rates": self.rate_rows(),
        }


def run_profile(
    cfg: ExperimentConfig,
    algorithms: Sequence[str] = ALGORITHMS,
    tighten_mode: str = "off",
) -> ProfileReport:
    """Time and count one workload on every algorithm through
    :func:`~repro.bench.bench.measure`."""
    times, _, counts = measure(
        cfg,
        lambda: {
            name: build_monitor(name, cfg, tighten_mode=tighten_mode)
            for name in algorithms
        },
    )
    return ProfileReport(config=cfg, times=times, counts=counts)
