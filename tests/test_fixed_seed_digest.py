"""Fixed-seed answer and counter digest of the graph monitors.

Every reported region and anchor of aG2, aG2 with ε = 0.2 and top-k
with k = 10, over two seeded datasets, is hashed as the ``float.hex``
of its numbers, followed by ``dataclasses.asdict(stats)``; oids are
numbered from 0 per stream, so the digest does not depend on how many
objects the process made before.  The
expected hashes were computed before the arrival path was rebuilt
around flat arrays, so any change to an answer, a tie-break or a single
operation count shows here.  The full digest runs on the compiled
kernel; a smaller one runs on the Python fallback, which must give the
same answers bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from repro.core import objects, planesweep
from repro.core.ag2 import AG2Monitor
from repro.core.topk import TopKAG2Monitor
from repro.datasets import make_stream
from repro.window import CountWindow

MONITORS = {
    "ag2": lambda w: AG2Monitor(1000, 1000, w),
    "ag2 eps=0.2": lambda w: AG2Monitor(1000, 1000, w, epsilon=0.2),
    "topk k=10": lambda w: TopKAG2Monitor(1000, 1000, w, k=10),
}

#: (window, ticks of 100 arrivals) -> monitor -> the first 16 hex digits
EXPECTED = {
    (2000, 40): {
        "ag2": "33f221cc770182b6",
        "ag2 eps=0.2": "c8d88a978d4b7e42",
        "topk k=10": "2fb5a109298950a4",
    },
    (500, 8): {
        "ag2": "7424e7c07201b672",
        "ag2 eps=0.2": "ad572c00530c9c8a",
        "topk k=10": "be1d65c6281b947a",
    },
}


def digest(name: str, window: int, ticks: int, monkeypatch) -> str:
    h = hashlib.sha256()
    for dataset in ("synthetic", "geolife_like"):
        monkeypatch.setattr(objects, "_AUTO_ID", itertools.count())
        monitor = MONITORS[name](CountWindow(window))
        stream = iter(make_stream(dataset, domain=40000.0, seed=42))
        for _ in range(ticks):
            batch = [next(stream) for _ in range(100)]
            for r in monitor.update(batch).regions:
                numbers = (r.weight, r.rect.x1, r.rect.y1, r.rect.x2, r.rect.y2)
                h.update(repr(
                    (r.anchor_oid, [float(v).hex() for v in numbers])
                ).encode())
        h.update(repr(dataclasses.asdict(monitor.stats)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", list(MONITORS))
def test_digest(name: str, monkeypatch):
    assert digest(name, 2000, 40, monkeypatch) == EXPECTED[2000, 40][name]


@pytest.mark.parametrize("name", list(MONITORS))
def test_digest_python_kernel(name: str, monkeypatch):
    monkeypatch.setattr(planesweep, "_KERNEL", None)
    assert digest(name, 500, 8, monkeypatch) == EXPECTED[500, 8][name]
