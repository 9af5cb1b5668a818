"""Continuous-query engine, multi-query serving, recording, timing."""

from repro.engine.engine import EngineReport, StreamEngine
from repro.engine.multi import MultiQueryGroup
from repro.engine.recorder import ResultChange, ResultRecorder
from repro.engine.stats import TimingStats

__all__ = [
    "EngineReport",
    "MultiQueryGroup",
    "ResultChange",
    "ResultRecorder",
    "StreamEngine",
    "TimingStats",
]
