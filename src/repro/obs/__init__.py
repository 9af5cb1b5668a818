"""Observability: dependency-free metrics primitives + export.

See :mod:`repro.obs.metrics` for the instruments and the registry and
:mod:`repro.obs.export` for the JSON/CSV artefact writers.
"""

from repro.obs.export import write_metrics_csv, write_metrics_json
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Ewma,
    Histogram,
    Metrics,
    NullMetrics,
)

__all__ = [
    "Counter",
    "Ewma",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "write_metrics_csv",
    "write_metrics_json",
]
