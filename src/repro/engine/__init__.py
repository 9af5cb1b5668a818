"""Continuous-query engine (the one fan-out over monitors), result
recording, timing."""

from repro.engine.engine import StreamEngine
from repro.engine.recorder import ResultChange, ResultRecorder
from repro.engine.stats import TimingStats

__all__ = [
    "ResultChange",
    "ResultRecorder",
    "StreamEngine",
    "TimingStats",
]
