"""Workload table and seeded record generation for the end-to-end benchmark.

Each workload runs at a fixed nominal arrival rate, about half the
stack's closed-loop throughput on the reference host, so the open-loop
replay sits at a utilisation between 0.35 and 0.65.  The latency limit
is about twice the p99 latency measured at that rate on the commit that
introduced the benchmark; both are frozen here so later commits are
judged against the same yardstick.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.datasets import make_stream

__all__ = ["Workload", "WORKLOADS", "RecordSource", "RECT_SIZE"]

#: side of the query rectangle (the paper's default 1000 x 1000)
RECT_SIZE = 1000.0


@dataclass(frozen=True)
class Workload:
    """One frozen benchmark workload (README.md says why each exists)."""

    name: str
    dataset: str
    window: int  # w: count-window capacity
    batch: int  # m: arrivals per tick, also the queue's max_batch
    rate: float  # nominal λ, arrivals/s
    fsync: str  # WAL fsync policy
    checkpoint_every: int  # engine batches between checkpoints
    ooo_frac: float  # share of records delivered late
    max_lateness: int  # guard lateness bound; displacement stays below it
    latency_limit_ms: float  # p99 limit that defines sustainable_aps

    @property
    def delta_s(self) -> float:
        """Δ: seconds between tick due times at the nominal rate."""
        return self.batch / self.rate

    @property
    def turnover_ticks(self) -> int:
        """Ticks that replace the whole window once."""
        return -(-self.window // self.batch)


WORKLOADS = {
    w.name: w
    for w in (
        # paper default: cells mostly pruned, so the stack around the
        # kernel dominates; the only workload that fills the dual_rect LRU
        Workload(
            name="uniform",
            dataset="synthetic",
            window=2000,
            batch=100,
            rate=5000.0,
            fsync="batch",
            checkpoint_every=250,
            ooo_frac=0.0,
            max_lateness=0,
            latency_limit_ms=500.0,
        ),
        # medium density, where aG2 and naive break even
        Workload(
            name="gaussian",
            dataset="geolife_like",
            window=2000,
            batch=20,
            rate=1250.0,
            fsync="batch",
            checkpoint_every=250,
            ooo_frac=0.0,
            max_lateness=0,
            latency_limit_ms=200.0,
        ),
        # one dense cell: local sweeps and the segment tree dominate
        Workload(
            name="hotspot",
            dataset="hotspot_static",
            window=1000,
            batch=10,
            rate=625.0,
            fsync="batch",
            checkpoint_every=250,
            ooo_frac=0.0,
            max_lateness=0,
            latency_limit_ms=100.0,
        ),
        # write-heavy: small ticks, fsync per append, frequent
        # checkpoints and reordering
        Workload(
            name="trickle",
            dataset="synthetic",
            window=4000,
            batch=20,
            rate=1600.0,
            fsync="always",
            checkpoint_every=50,
            ooo_frac=0.1,
            max_lateness=16,
            latency_limit_ms=350.0,
        ),
    )
}


class RecordSource:
    """Seeded raw records in delivery order, handed out a tick at a time.

    Records are plain dicts, the shape a deployment parses off the wire.
    ``oid`` and ``timestamp`` are the generation index, so the records do
    not depend on the process-wide oid counter of ``SpatialObject``.

    A share ``ooo_frac`` of the records is held back: record ``i`` gets
    the delivery key ``i + d`` with ``d`` in ``1 .. max_lateness - 1``
    and leaves after every record with a smaller key (ties go by index).
    The largest timestamp seen before it is then at most ``i + d``, so
    it lags the guard's watermark by less than ``max_lateness`` and is
    re-sequenced, never rejected.
    """

    def __init__(
        self,
        dataset: str,
        seed: int,
        ooo_frac: float = 0.0,
        max_lateness: int = 0,
    ) -> None:
        if ooo_frac and max_lateness < 2:
            raise ValueError("displacement needs max_lateness >= 2")
        self._objects = iter(make_stream(dataset, seed=seed))
        # a separate stream, so the displacement pattern does not shift
        # the generated positions and weights
        self._rng = random.Random(seed + 0x5EED0E2E)
        self._ooo_frac = ooo_frac
        self._max_shift = max_lateness - 1
        self._heap: list[tuple[int, int, dict]] = []
        self._next = 0

    def _generate(self) -> None:
        obj = next(self._objects)
        idx = self._next
        self._next += 1
        shift = 0
        if self._ooo_frac and self._rng.random() < self._ooo_frac:
            shift = self._rng.randint(1, self._max_shift)
        record = {
            "x": obj.x,
            "y": obj.y,
            "weight": obj.weight,
            "timestamp": float(idx),
            "oid": idx,
        }
        heapq.heappush(self._heap, (idx + shift, idx, record))

    def take(self, count: int) -> list[dict]:
        """The next ``count`` records in delivery order."""
        out: list[dict] = []
        heap = self._heap
        while len(out) < count:
            # every record not yet generated has a delivery key of at
            # least self._next, so a smaller key at the top is final
            while not heap or heap[0][0] >= self._next:
                self._generate()
            out.append(heapq.heappop(heap)[2])
        return out
