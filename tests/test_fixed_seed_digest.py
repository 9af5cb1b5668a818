"""Fixed-seed answer and counter digests of the monitors.

Every reported region and anchor of aG2, aG2 with ε = 0.2, top-k with
k = 10, naive top-k with k = 10 and the naive AllMaxRS answer
(``plane_sweep_all_max``), over two seeded datasets, is hashed as the
``float.hex`` of its numbers into the monitor's *answer* hash, and
``dataclasses.asdict(stats)`` after each dataset into its *counter*
hash; oids are numbered from 0 per stream, so neither depends on how
many objects the process made before.  Two hashes keep the two
contracts apart: a change that may move the counts (a new
``MonitorStats`` field, a cheaper path) must still leave every answer
hash alone.  The answer hashes of the graph monitors go back to before
the arrival path was rebuilt around flat arrays, those of the naive
top-k and AllMaxRS answers to the pure-Python segment tree; aG2 ε = 0.2
changed when the dense-cell path began to give it exact answers in the
cells it sweeps whole, and again when cell bounds began to follow
expiry (fewer cells pass Rule 3, so it adopts other answers within its
ε); the graph monitors' counter hashes moved with the latter too.  The
full digest runs on the compiled kernel; a smaller one runs on the
Python reference (``tests/reference_kernel.py``), which must give the
same answers and counts bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from reference_kernel import use_reference
from repro.core import objects
from repro.core.ag2 import AG2Monitor
from repro.core.allmax import plane_sweep_all_max
from repro.core.naive import NaiveMonitor
from repro.core.spaces import MaxRSResult
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.window import CountWindow


class AllMaxNaive(NaiveMonitor):
    """The naive monitor answering AllMaxRS: every arrangement cell of
    one full sweep that ties the maximum (``plane_sweep_all_max``)."""

    def _compute_result(self, tick: int) -> MaxRSResult:
        rects = list(self._alive)
        self.stats.full_sweeps += 1
        self.stats.objects_swept += len(rects)
        return MaxRSResult.ranked(
            plane_sweep_all_max(rects), tick=tick, window_size=len(rects)
        )


MONITORS = {
    "ag2": lambda w: AG2Monitor(1000, 1000, w),
    "ag2 eps=0.2": lambda w: AG2Monitor(1000, 1000, w, epsilon=0.2),
    "topk k=10": lambda w: TopKAG2Monitor(1000, 1000, w, k=10),
    "naive k=10": lambda w: NaiveMonitor(1000, 1000, w, k=10),
    "all_max_rs": lambda w: AllMaxNaive(1000, 1000, w),
}

#: (window, ticks of 100 arrivals) -> monitor -> the first 16 hex digits
#: of its answer hash and of its counter hash
EXPECTED = {
    (2000, 40): {
        "ag2": ("b655aa78d91c1f2b", "4b86e6aba682e76e"),
        "ag2 eps=0.2": ("6ad3023a10ff9171", "d6268396dd9f70cb"),
        "topk k=10": ("550021024b93cbd8", "e4cc33a6930b46aa"),
        "naive k=10": ("eef4c67c965fe109", "f19b08ed4d72b787"),
        "all_max_rs": ("09aebdf6043cc68b", "f19b08ed4d72b787"),
    },
    (500, 8): {
        "ag2": ("1006d20d1e8ce813", "f9e42be6abc55722"),
        "ag2 eps=0.2": ("64144b2fc4369ae8", "964ed63cb2b7f3ba"),
        "topk k=10": ("831173a1629a84dd", "c8927fa52f8aeb16"),
        "naive k=10": ("e42802335a1383e6", "23ff46d80b330b33"),
        "all_max_rs": ("60130aaae42bb623", "23ff46d80b330b33"),
    },
}


def digest(name: str, window: int, ticks: int, monkeypatch) -> tuple[str, str]:
    """The answer hash and the counter hash of one monitor."""
    answers, counters = hashlib.sha256(), hashlib.sha256()
    for dataset in ("synthetic", "geolife_like"):
        monkeypatch.setattr(objects, "_AUTO_ID", itertools.count())
        monitor = MONITORS[name](CountWindow(window))
        stream = iter(make_stream(dataset, domain=40000.0, seed=42))
        for _ in range(ticks):
            batch = [next(stream) for _ in range(100)]
            for r in monitor.update(batch).regions:
                numbers = (r.weight, r.rect.x1, r.rect.y1, r.rect.x2, r.rect.y2)
                answers.update(repr(
                    (r.anchor_oid, [float(v).hex() for v in numbers])
                ).encode())
        counters.update(repr(dataclasses.asdict(monitor.stats)).encode())
    return answers.hexdigest()[:16], counters.hexdigest()[:16]


@pytest.mark.parametrize("name", list(MONITORS))
def test_digest(name: str, monkeypatch):
    assert digest(name, 2000, 40, monkeypatch) == EXPECTED[2000, 40][name]


@pytest.mark.parametrize("name", list(MONITORS))
def test_digest_python_kernel(name: str, monkeypatch):
    """The smaller digest with the Python reference swapped in for every
    kernel call."""
    use_reference(monkeypatch)
    assert digest(name, 500, 8, monkeypatch) == EXPECTED[500, 8][name]
