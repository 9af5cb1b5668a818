"""repro — Monitoring MaxRS in spatial data streams.

A Python reproduction of Amagata & Hara, "Monitoring MaxRS in Spatial
Data Streams" (EDBT 2016): continuous (top-k / approximate)
maximizing-range-sum queries over sliding windows, built on the G2 and
aG2 graph-in-grid indexes.  Every sweep step runs in one small C
library compiled on first import, which needs gcc (or cc): without it
the import raises ``repro.errors.KernelUnavailableError``.

Quickstart::

    from repro import AG2Monitor, CountWindow, SpatialObject

    monitor = AG2Monitor(
        rect_width=1000.0, rect_height=1000.0, window=CountWindow(10_000)
    )
    for batch in stream:          # batches of SpatialObject
        result = monitor.update(batch)
        if result.best is not None:
            x, y = result.best.best_point     # optimal placement centre
"""

from repro.core import (
    AG2Monitor,
    AllMaxRSMonitor,
    G2Monitor,
    Interval,
    MaxRSMonitor,
    MaxRSResult,
    MonitorStats,
    NaiveMonitor,
    RTree,
    RTreeMonitor,
    Rect,
    Region,
    SamplingMonitor,
    SpatialObject,
    TopKAG2Monitor,
    UniformGrid,
    WeightedRect,
    plane_sweep_max,
    plane_sweep_topk,
    practical_error,
)
from repro.errors import (
    EmptyWindowError,
    InvalidGeometryError,
    InvalidParameterError,
    InvariantViolationError,
    ReproError,
    WindowOrderError,
)
from repro.engine import ResultChange, ResultRecorder
from repro.obs import NULL_METRICS, Metrics
from repro.persist import restore, snapshot
from repro.window import CountWindow, SlidingWindow, TimeWindow, WindowUpdate

__version__ = "1.0.0"

__all__ = [
    "AG2Monitor",
    "AllMaxRSMonitor",
    "CountWindow",
    "EmptyWindowError",
    "G2Monitor",
    "Interval",
    "InvalidGeometryError",
    "InvalidParameterError",
    "InvariantViolationError",
    "MaxRSMonitor",
    "MaxRSResult",
    "Metrics",
    "MonitorStats",
    "NULL_METRICS",
    "NaiveMonitor",
    "RTree",
    "RTreeMonitor",
    "Rect",
    "Region",
    "ReproError",
    "ResultChange",
    "ResultRecorder",
    "SamplingMonitor",
    "SlidingWindow",
    "SpatialObject",
    "TimeWindow",
    "TopKAG2Monitor",
    "UniformGrid",
    "WeightedRect",
    "WindowOrderError",
    "WindowUpdate",
    "plane_sweep_max",
    "plane_sweep_topk",
    "practical_error",
    "restore",
    "snapshot",
    "__version__",
]
