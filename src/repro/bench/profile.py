"""Profiling runner: internal operation counters for one workload.

The paper explains *why* aG2 wins through internal quantities — cells
visited, branch-and-bound prunings, upper-bound recomputations — not
only wall-clock means (§7).  ``run_profile`` executes the standard
measurement protocol (prime untimed, then timed batches) with a live
:class:`~repro.obs.metrics.Metrics` registry attached, and returns a
:class:`ProfileReport` whose tables/JSON/CSV expose those quantities
per monitor and per batch.  The CI perf-regression gate consumes the
JSON artefact (``scripts/perf_gate.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.bench.config import ExperimentConfig
from repro.bench.runners import ALGORITHMS, build_monitor
from repro.datasets import make_stream
from repro.engine.engine import EngineReport, StreamEngine
from repro.obs.metrics import Metrics

__all__ = ["ProfileReport", "run_profile", "counter_columns"]

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


def counter_columns(report: EngineReport) -> list[str]:
    """Stable column order: preferred counters first, extras sorted."""
    present = set(report.counter_names())
    ordered = [name for name in _PREFERRED if name in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


@dataclass
class ProfileReport:
    """One profiled run: configuration + metric-carrying engine report."""

    config: ExperimentConfig
    report: EngineReport
    primed: int

    def summary_rows(self) -> list[dict[str, object]]:
        """One row per monitor: mean update time + lifetime counters."""
        columns = counter_columns(self.report)
        rows: list[dict[str, object]] = []
        for name, snap in self.report.metrics.items():
            row: dict[str, object] = {
                "monitor": name,
                "mean_ms": self.report.mean_ms(name),
            }
            for column in columns:
                row[column] = snap.counters.get(column, 0.0)
            rows.append(row)
        return rows

    def per_batch_rows(self) -> list[dict[str, object]]:
        """One row per (batch, monitor) with that batch's counter deltas."""
        columns = counter_columns(self.report)
        rows: list[dict[str, object]] = []
        for index in range(self.report.batches):
            for name, deltas in self.report.batch_metrics.items():
                snap = deltas[index]
                row: dict[str, object] = {"batch": index + 1, "monitor": name}
                for column in columns:
                    row[column] = snap.counters.get(column, 0.0)
                rows.append(row)
        return rows

    def rate_rows(self) -> list[dict[str, object]]:
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
        rows: list[dict[str, object]] = []
        for index in range(self.report.batches):
            for name, deltas in self.report.batch_metrics.items():
                c = deltas[index].counters
                visited = c.get("cells_visited", 0.0)
                pruned = c.get("cells_pruned", 0.0)
                considered = visited + pruned
                sweeps = c.get("local_sweeps", 0.0) + c.get("full_sweeps", 0.0)
                rows.append(
                    {
                        "batch": index + 1,
                        "monitor": name,
                        "prune_fraction": (
                            pruned / considered if considered else 0.0
                        ),
                        "sweeps_per_arrival": (
                            sweeps / arrivals if arrivals else 0.0
                        ),
                        "overlap_tests_per_arrival": (
                            c.get("overlap_tests", 0.0) / arrivals
                            if arrivals
                            else 0.0
                        ),
                    }
                )
        return rows

    def to_dict(self) -> dict[str, object]:
        """The JSON artefact shape (consumed by the CI perf gate)."""
        doc = self.report.to_dict()
        doc["config"] = asdict(self.config)
        doc["primed"] = self.primed
        doc["derived_rates"] = self.rate_rows()
        return doc


def run_profile(
    cfg: ExperimentConfig,
    algorithms: Sequence[str] = ALGORITHMS,
    tighten_mode: str = "off",
) -> ProfileReport:
    """Run one workload with metrics attached to every monitor."""
    monitors = {
        name: build_monitor(name, cfg, tighten_mode=tighten_mode)
        for name in algorithms
    }
    registry = Metrics()
    stream = make_stream(cfg.dataset, domain=cfg.domain, seed=cfg.seed)
    engine = StreamEngine(
        monitors, stream, batch_size=cfg.batch_size, metrics=registry
    )
    primed = engine.prime(cfg.window_size)
    report = engine.run(cfg.batches)
    return ProfileReport(config=cfg, report=report, primed=primed)
