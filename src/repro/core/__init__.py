"""Core MaxRS machinery: primitives, solvers, indexes and monitors."""

from repro.core.ag2 import AG2Cell, AG2Monitor
from repro.core.allmax import AllMaxRSMonitor, plane_sweep_all_max
from repro.core.approx import practical_error
from repro.core.g2 import G2Monitor
from repro.core.geometry import Interval, Rect, bounding_box
from repro.core.grid import CellKey, UniformGrid, default_cell_size
from repro.core.monitor import MaxRSMonitor, MonitorStats
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject, WeightedRect, to_weighted_rects
from repro.core.rtree import RTree
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.planesweep import (
    local_plane_sweep,
    plane_sweep_max,
    plane_sweep_topk,
)
from repro.core.sampling import (
    SamplingMonitor,
    sample_maxrs,
    suggested_sample_size,
)
from repro.core.spaces import MaxRSResult, Region
from repro.core.topk import TopKAG2Monitor
from repro.core.upperbound import (
    conditional_tightener,
    make_tightener,
    tighten_upper_bound,
)

__all__ = [
    "AG2Cell",
    "AG2Monitor",
    "AllMaxRSMonitor",
    "CellKey",
    "G2Monitor",
    "Interval",
    "MaxRSMonitor",
    "MaxRSResult",
    "MonitorStats",
    "NaiveMonitor",
    "RTree",
    "RTreeMonitor",
    "Rect",
    "SamplingMonitor",
    "Region",
    "SpatialObject",
    "TopKAG2Monitor",
    "UniformGrid",
    "WeightedRect",
    "bounding_box",
    "conditional_tightener",
    "default_cell_size",
    "local_plane_sweep",
    "plane_sweep_all_max",
    "sample_maxrs",
    "suggested_sample_size",
    "make_tightener",
    "plane_sweep_max",
    "plane_sweep_topk",
    "practical_error",
    "tighten_upper_bound",
    "to_weighted_rects",
]
