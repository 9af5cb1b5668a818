"""One benchmark round: the composed stack, driven through public APIs.

``python stack.py '<json spec>'`` runs one round in its own process and
prints one JSON object: set-up time, per-tick service times, speed-probe
readings and answers, failed ticks and peak RSS, plus the per-layer
summary of a traced round.  A service time is the tick's thread CPU time
plus the time it waited for ``fsync``; the parent (``run.py``) rescales
it by the probe, runs rounds one at a time and combines them.

The composition is the deployment's: raw dict records pass
``IngestGuard.filter`` (QUARANTINE), a BLOCK ``BackpressureQueue`` whose
``max_batch`` is the tick size, and ``StreamEngine.process`` over an
exact grid-indexed aG2 monitor with a write-ahead log and periodic
checkpoints.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time
from array import array
from pathlib import Path

from repro import persist
from repro.core import AG2Monitor, NaiveMonitor, Rect, UniformGrid
from repro.core import ag2 as ag2_module
from repro.core.graph import CellGraph
from repro.durability import WriteAheadLog
from repro.engine import StreamEngine
from repro.obs.metrics import Metrics
from repro.overload import BackpressureQueue, ShedPolicy
from repro.resilience import CheckpointManager, ErrorPolicy, IngestGuard
from repro.window import CountWindow

from replay import percentile
from spans import Tracer, per_tick_sums, self_times
from workloads import RECT_SIZE, WORKLOADS, RecordSource, Workload

__all__ = ["Stack", "run_round", "verify"]

#: records per monitor.ingest call while priming (as StreamEngine.prime)
PRIME_CHUNK = 1000
#: every COVER_EVERY-th timed tick, the reported centre must be covered
#: by exactly the reported weight in the live window
COVER_EVERY = 20
#: timed ticks per round that are also re-solved by a full plane sweep;
#: each costs 20-250 ms, so a fixed count keeps the pass short
ORACLE_CHECKS = 5
#: relative tolerance between aG2's and the oracle's float sums
REL_TOL = 1e-9
#: speed probes taken just before the timed set-up
SETUP_PROBES = 21

#: per-layer groups of traced spans whose self time is reported per tick
LAYERS = {
    "guard": ("guard.filter",),
    "queue": ("queue.offer_all", "queue.take_batch"),
    "engine": ("engine.process",),
    "wal.append": ("wal.append_batch",),
    "wal.sync": ("wal.sync", "wal.compact"),
    "update": ("monitor.update",),
    "window": ("window.push",),
    "route": ("ag2.dual_rect", "grid.cell_keys"),
    "graph.connect": ("graph.connect",),
    "graph.expire": ("graph.expire_upto",),
    "sweep": ("ag2.local_plane_sweep_cached",),
    "gc": ("gc",),
}


class FsyncClock:
    """Counts the off-CPU time spent in ``os.fsync`` while installed.

    Thread CPU time leaves out the hypervisor's steal and other
    processes' turns on the CPU, but also the wait for the disk; adding
    this back keeps the cost of durability in a tick's service time.
    """

    def __init__(self) -> None:
        self.off_cpu_ns = 0
        self._fsync = os.fsync

    def __enter__(self) -> "FsyncClock":
        os.fsync = self._timed
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._fsync

    def _timed(self, fd) -> None:
        wall, cpu = time.perf_counter_ns(), time.thread_time_ns()
        try:
            self._fsync(fd)
        finally:
            self.off_cpu_ns += (time.perf_counter_ns() - wall) - (
                time.thread_time_ns() - cpu
            )


def _rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") // 1024


class SpeedProbe:
    """CPU time of a fixed memory-bound job: the host's current speed.

    On a shared host the stack's speed follows contention for the memory
    system more than the core's clock, so the probe reads a fixed random
    sequence of doubles from a 32 MB array.  The array holds no Python
    objects, so the collector never scans it; ``rss_kb`` is what it adds
    to the process's resident set.
    """

    ELEMENTS = 4_000_000
    READS = 2_000
    #: successive calls read different slices of one long random order,
    #: so back-to-back calls do not find their data in the cache
    SLICES = 64

    def __init__(self) -> None:
        before = _rss_kb()
        self._data = array("d", [0.5]) * self.ELEMENTS
        rng = random.Random(0)
        self._order = array(
            "l",
            (
                rng.randrange(self.ELEMENTS)
                for _ in range(self.READS * self.SLICES)
            ),
        )
        self._calls = 0
        self.rss_kb = _rss_kb() - before

    def measure(self) -> int:
        data = self._data
        first = self._calls % self.SLICES * self.READS
        self._calls += 1
        order = self._order[first:first + self.READS]
        start = time.thread_time_ns()
        acc = 0.0
        for i in order:
            acc += data[i]
        return time.thread_time_ns() - start


def make_guard(wl: Workload) -> IngestGuard:
    return IngestGuard(
        policy=ErrorPolicy.QUARANTINE, max_lateness=wl.max_lateness
    )


def make_queue(wl: Workload) -> BackpressureQueue:
    return BackpressureQueue(
        50 * wl.batch, ShedPolicy.BLOCK, max_batch=wl.batch
    )


def admit(guard: IngestGuard, queue: BackpressureQueue, records: list):
    """Guard then queue: ``(batch this tick applies, refused objects)``."""
    refused = queue.offer_all(guard.filter(records))
    return queue.take_batch(), refused


class Stack:
    """The composed stack of one round, with its WAL and checkpoint in
    ``workdir``."""

    def __init__(self, wl: Workload, workdir: Path) -> None:
        self.guard = make_guard(wl)
        self.queue = make_queue(wl)
        self.monitor = AG2Monitor(RECT_SIZE, RECT_SIZE, CountWindow(wl.window))
        self.wal = WriteAheadLog(workdir / "wal", fsync=wl.fsync)
        self.checkpoint = CheckpointManager(
            self.monitor,
            workdir / "checkpoint.json",
            every=wl.checkpoint_every,
        )
        self.engine = StreamEngine(
            {"q": self.monitor},
            [],
            wl.batch,
            wal=self.wal,
            checkpoint=self.checkpoint,
        )

    def prime(self, records: list) -> None:
        """Fill the window through the guard, untimed by the engine."""
        for i in range(0, len(records), PRIME_CHUNK):
            self.monitor.ingest(self.guard.filter(records[i:i + PRIME_CHUNK]))

    def tick(self, records: list):
        """One tick; returns ``(answer or None, failed)``."""
        guard, queue = self.guard, self.queue
        rejected, shed = guard.rejected, queue.shed
        batch, refused = admit(guard, queue, records)
        answer = None
        if batch:
            best = self.engine.process(batch)["q"].best
            if best is not None:
                cx, cy = best.rect.center
                answer = (best.weight, cx, cy)
        failed = bool(
            refused or guard.rejected != rejected or queue.shed != shed
        )
        return answer, failed

    def close(self) -> None:
        self.wal.close()


def _install_tracer(tracer: Tracer, stack: Stack) -> None:
    tracer.patch(stack.guard, "filter", "guard.filter")
    tracer.patch(stack.queue, "offer_all", "queue.offer_all")
    tracer.patch(stack.queue, "take_batch", "queue.take_batch")
    tracer.patch(stack.engine, "process", "engine.process")
    tracer.patch(stack.wal, "append_batch", "wal.append_batch")
    tracer.patch(stack.wal, "sync", "wal.sync")
    tracer.patch(stack.wal, "compact", "wal.compact")
    tracer.patch(stack.monitor, "update", "monitor.update")
    tracer.patch(stack.monitor.window, "push", "window.push")
    tracer.patch(ag2_module, "dual_rect", "ag2.dual_rect")
    tracer.patch(
        UniformGrid, "cell_keys", "grid.cell_keys",
        count=lambda args, result: len(result),
    )
    tracer.patch(CellGraph, "connect", "graph.connect")
    tracer.patch(CellGraph, "expire_upto", "graph.expire_upto")
    tracer.patch(
        ag2_module, "local_plane_sweep_cached",
        "ag2.local_plane_sweep_cached",
        count=lambda args, result: len(args[0].neighbors),
    )
    tracer.patch(stack.checkpoint, "note_batch", "checkpoint.note_batch")
    tracer.patch(stack.checkpoint, "checkpoint", "checkpoint.checkpoint")
    tracer.patch(persist, "snapshot", "persist.snapshot")
    tracer.trace_gc()


def _counters(stack: Stack) -> dict:
    stats = stack.monitor.stats
    return {
        "offered": stack.guard.offered,
        "reordered": stack.guard.late_reordered,
        "rejected": stack.guard.rejected,
        "queue_offered": stack.queue.offered,
        "queue_lost": stack.queue.shed + stack.queue.refused,
        "arrivals": stats.objects_seen,
        "cells_pruned": stats.cells_pruned,
        "vertices_pruned": stats.vertices_pruned,
        "overlap_tests": stats.overlap_tests,
        "fsyncs": stack.wal.fsyncs,
        "wal_bytes": stack.wal.metrics.counter("wal_bytes_written").value,
        "checkpoints": stack.checkpoint.checkpoints_written,
    }


def _layer_summary(
    tracer: Tracer,
    stack: Stack,
    ticks: int,
    before: dict,
    live: list[tuple[int, int]],
    out_dir: Path,
) -> dict:
    """Per-layer metrics of a traced round (see README.md)."""
    after = _counters(stack)
    d = {k: after[k] - before[k] for k in after}
    own = self_times(tracer.start, tracer.end, tracer.parent)
    tick_code = tracer.names.index("tick")
    service = [0] * ticks
    total_ns = 0
    for i, t in enumerate(tracer.span_tick):
        if tracer.span_name[i] == tick_code:
            service[t] = tracer.end[i] - tracer.start[i]
        else:
            total_ns += own[i]
    layer_ns = {
        layer: per_tick_sums(tracer, own, ticks, names)
        for layer, names in LAYERS.items()
    }
    cut = percentile(service, 99.0)
    tail = [k for k, s in enumerate(service) if s >= cut]

    def ms_per_tick(*layers: str) -> float:
        return sum(sum(layer_ns[layer]) for layer in layers) / ticks / 1e6

    def tail_ms(layer: str) -> float:
        return sum(layer_ns[layer][k] for k in tail) / len(tail) / 1e6

    def spans_of(name: str) -> list[int]:
        code = tracer.names.index(name) if name in tracer.names else -1
        return [i for i, c in enumerate(tracer.span_name) if c == code]

    sweeps = spans_of("ag2.local_plane_sweep_cached")
    writes = spans_of("checkpoint.checkpoint")
    snaps = spans_of("persist.snapshot")
    n_writes = max(len(writes), 1)
    arrivals = max(d["arrivals"], 1)
    cells = sum(c for c, _ in live)
    vertices = sum(v for _, v in live)
    trace_path = out_dir / "trace.jsonl"
    tracer.write_jsonl(trace_path)
    path = stack.checkpoint.path
    return {
        "trace_file": str(trace_path),
        "spans": len(tracer.start),
        "metrics": {
            "guard.ms_per_tick": ms_per_tick("guard"),
            "guard.reordered_frac": d["reordered"] / max(d["offered"], 1),
            "guard.rejected_frac": d["rejected"] / max(d["offered"], 1),
            "queue.ms_per_tick": ms_per_tick("queue"),
            "queue.shed_frac": d["queue_lost"] / max(d["queue_offered"], 1),
            "engine.self_ms_per_tick": ms_per_tick("engine"),
            "wal.append_ms_per_tick": ms_per_tick("wal.append"),
            "wal.sync_ms_per_tick": ms_per_tick("wal.sync"),
            "wal.fsyncs_per_tick": d["fsyncs"] / ticks,
            "wal.bytes_per_arrival": d["wal_bytes"] / arrivals,
            "update.self_ms_per_tick": ms_per_tick("update"),
            "prune.cell_frac": d["cells_pruned"] / max(cells, 1),
            "prune.vertex_frac": d["vertices_pruned"] / max(vertices, 1),
            "window.ms_per_tick": ms_per_tick("window"),
            "route.ms_per_tick": ms_per_tick("route"),
            "route.cells_per_arrival": tracer.counts["grid.cell_keys"]
            / arrivals,
            "graph.connect_ms_per_tick": ms_per_tick("graph.connect"),
            "graph.overlap_tests_per_arrival": d["overlap_tests"] / arrivals,
            "graph.expire_ms_per_tick": ms_per_tick("graph.expire"),
            "sweep.ms_per_tick": ms_per_tick("sweep"),
            "sweep.calls_per_tick": len(sweeps) / ticks,
            "sweep.items_per_call": tracer.counts[
                "ag2.local_plane_sweep_cached"
            ] / max(len(sweeps), 1),
            "sweep.tail_ms": tail_ms("sweep"),
            "checkpoint.ms_per_write": sum(
                tracer.end[i] - tracer.start[i] for i in writes
            ) / n_writes / 1e6,
            "checkpoint.snapshot_ms_per_write": sum(
                tracer.end[i] - tracer.start[i] for i in snaps
            ) / n_writes / 1e6,
            "checkpoint.bytes": float(
                path.stat().st_size if path.exists() else 0
            ),
            "checkpoint.writes": float(d["checkpoints"]),
            "gc.ms_per_tick": ms_per_tick("gc"),
            "gc.tail_ms": tail_ms("gc"),
            "state.cells": float(stack.monitor.cell_count),
            "state.vertices": float(stack.monitor.vertex_count),
            "trace.coverage_frac": total_ns / sum(service),
        },
    }


def run_round(
    wl: Workload,
    seed: int,
    ticks: int,
    workdir: Path,
    traced: bool = False,
    paced: bool = False,
    setup_only: bool = False,
) -> dict:
    """Set up, turn the window over once, then run ``ticks`` timed ticks.

    ``traced`` records spans around every layer; ``paced`` sleeps until
    each tick's due time on the wall clock (the real-clock diagnostic);
    ``setup_only`` stops after the timed set-up.
    """
    # installed before the stack exists: the checkpoint manager keeps
    # its own reference to os.fsync
    with FsyncClock() as fsyncs:
        return _round(wl, seed, ticks, workdir, fsyncs, traced, paced, setup_only)


def _round(wl, seed, ticks, workdir, fsyncs, traced, paced, setup_only) -> dict:
    probe = SpeedProbe()
    source = RecordSource(wl.dataset, seed, wl.ooo_frac, wl.max_lateness)
    primed = source.take(wl.window)
    setup_probe_ns = [probe.measure() for _ in range(SETUP_PROBES)]
    start = time.thread_time()
    stack = Stack(wl, workdir)
    stack.prime(primed)
    setup = {
        "setup_s": time.thread_time() - start,
        "setup_probe_ns": setup_probe_ns,
    }
    if setup_only:
        stack.close()
        return setup
    del primed
    for _ in range(wl.turnover_ticks):
        stack.tick(source.take(wl.batch))
    gc.collect()

    tracer = Tracer() if traced else None
    if tracer is not None:
        stack.wal.metrics = Metrics("wal")
        before = _counters(stack)
        live: list[tuple[int, int]] = []
        _install_tracer(tracer, stack)
    service_ns = [0] * ticks
    probe_ns = [0] * ticks
    done_ns = [0] * ticks
    late_ns = [0] * ticks
    answers: list = [None] * ticks
    failed: list[int] = []
    delta_ns = round(wl.delta_s * 1e9)
    clock = time.perf_counter_ns
    cpu_clock = time.thread_time_ns
    base = clock() + delta_ns
    try:
        for k in range(ticks):
            records = source.take(wl.batch)
            probe_ns[k] = probe.measure()
            if paced:
                ahead = base + k * delta_ns - clock()
                if ahead > 0:
                    time.sleep(ahead / 1e9)
                late_ns[k] = clock() - base - k * delta_ns
            if tracer is not None:
                tracer.tick = k
                span = tracer.begin("tick")
            io0 = fsyncs.off_cpu_ns
            c0 = cpu_clock()
            try:
                answers[k], bad = stack.tick(records)
            except Exception as exc:  # noqa: BLE001 - a failed tick is data
                print(f"tick {k} failed: {exc!r}", file=sys.stderr)
                bad = True
            t1 = clock()
            service_ns[k] = cpu_clock() - c0 + fsyncs.off_cpu_ns - io0
            if tracer is not None:
                tracer.finish(span)
                live.append(
                    (stack.monitor.cell_count, stack.monitor.vertex_count)
                )
            done_ns[k] = t1 - base
            if bad:
                failed.append(k)
    finally:
        if tracer is not None:
            tracer.restore()
    guard, queue = stack.guard, stack.queue
    if not (
        queue.ledger_closed
        and guard.offered
        == guard.admitted + guard.rejected + guard.reorder.pending
    ):
        failed.append(ticks - 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = dict(
        setup,
        service_ns=service_ns,
        probe_ns=probe_ns,
        answers=answers,
        failed=sorted(set(failed)),
        peak_rss_kb=peak_kb - probe.rss_kb,
    )
    if paced:
        result["done_ns"] = done_ns
        result["late_ns"] = late_ns
    if tracer is not None:
        result["layers"] = _layer_summary(
            tracer, stack, ticks, before, live, workdir.parent
        )
    stack.close()
    return result


def _covered_weight(objects, x: float, y: float) -> float:
    """Total weight of the objects whose dual rectangle holds ``(x, y)``."""
    return sum(
        o.weight
        for o in objects
        if Rect.from_center(o.x, o.y, RECT_SIZE, RECT_SIZE).contains_point(x, y)
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def verify(wl: Workload, seed: int, ticks: int, answers: list) -> dict:
    """Untimed oracle replay of the same seeded ticks.

    Replays the guard and queue exactly as the rounds do, into the
    plane-sweep ``NaiveMonitor``.  Every :data:`COVER_EVERY`-th tick
    checks that the reported centre is covered by exactly the reported
    weight in the live window; :data:`ORACLE_CHECKS` evenly spaced ticks
    also check that weight against the oracle's full sweep.  Also
    derives, per tick, how many ticks later its last arrival reached
    the monitor (``holds``), which the latency replay adds.
    """
    source = RecordSource(wl.dataset, seed, wl.ooo_frac, wl.max_lateness)
    guard, queue = make_guard(wl), make_queue(wl)
    naive = NaiveMonitor(RECT_SIZE, RECT_SIZE, CountWindow(wl.window))
    primed = source.take(wl.window)
    for i in range(0, len(primed), PRIME_CHUNK):
        naive.ingest(guard.filter(primed[i:i + PRIME_CHUNK]))
    for _ in range(wl.turnover_ticks):
        batch, _ = admit(guard, queue, source.take(wl.batch))
        naive.ingest(batch)
    oracle_every = max(ticks // ORACLE_CHECKS, 1)
    delivered: dict[int, int] = {}
    applied = [ticks] * ticks
    checks = {"cover": 0, "oracle": 0}
    mismatches: list[int] = []
    for k in range(ticks):
        records = source.take(wl.batch)
        for record in records:
            delivered[record["oid"]] = k
        batch, _ = admit(guard, queue, records)
        for obj in batch:
            tick = delivered.pop(obj.oid, None)
            if tick is not None:  # None: delivered before the timed ticks
                applied[tick] = k
        oracle = k % oracle_every == 0
        if not batch or not (oracle or k % COVER_EVERY == 0):
            naive.ingest(batch)
            continue
        if oracle:
            expected = naive.update(batch).best_weight
            checks["oracle"] += 1
        else:
            naive.ingest(batch)
        checks["cover"] += 1
        answer = answers[k]
        if answer is None:
            ok = len(naive.window) == 0
        else:
            weight, cx, cy = answer
            covered = _covered_weight(naive.window.contents, cx, cy)
            ok = _close(covered, weight) and (
                not oracle or _close(weight, expected)
            )
        if not ok:
            mismatches.append(k)
    holds = [a - k for k, a in enumerate(applied)]
    return {"checks": checks, "mismatches": mismatches, "holds": holds}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run_round(
        WORKLOADS[spec["workload"]],
        int(spec["seed"]),
        int(spec["ticks"]),
        Path(spec["workdir"]),
        traced=bool(spec.get("traced")),
        paced=bool(spec.get("paced")),
        setup_only=bool(spec.get("setup_only")),
    )
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
