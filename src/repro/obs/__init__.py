"""Observability: dependency-free metrics registry + export.

See :mod:`repro.obs.metrics` for the instrument/registry model and
:mod:`repro.obs.export` for the JSON/CSV artefact shapes.
"""

from repro.obs.export import (
    snapshot_rows,
    snapshots_from_dict,
    snapshots_to_dict,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Ewma,
    Histogram,
    Metrics,
    MetricsSnapshot,
    NullMetrics,
)

__all__ = [
    "Counter",
    "Ewma",
    "Histogram",
    "Metrics",
    "MetricsSnapshot",
    "NullMetrics",
    "NULL_METRICS",
    "snapshot_rows",
    "snapshots_from_dict",
    "snapshots_to_dict",
    "write_metrics_csv",
    "write_metrics_json",
]
