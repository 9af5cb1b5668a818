"""The graph monitors hold only the alive window (paper §2–§4).

Nothing on the arrival path may keep an expired object reachable: after
many window turnovers the live :class:`SpatialObject` population the
monitor adds to the heap is bounded by the window plus the batch in
flight, however long the stream has run.
"""

from __future__ import annotations

import gc

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.g2 import G2Monitor
from repro.core.objects import SpatialObject
from repro.window import CountWindow

WINDOW = 200
BATCH = 50
TURNOVERS = 16


def _live_objects() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, SpatialObject))


@pytest.mark.parametrize("cls", [AG2Monitor, G2Monitor])
def test_no_expired_state_is_retained(cls):
    before = _live_objects()
    monitor = cls(10.0, 10.0, CountWindow(WINDOW))
    for seed in range(TURNOVERS * WINDOW // BATCH):
        monitor.update(make_objects(BATCH, seed=seed, domain=200.0))
    assert len(monitor.window) == WINDOW
    assert _live_objects() - before <= WINDOW + BATCH
