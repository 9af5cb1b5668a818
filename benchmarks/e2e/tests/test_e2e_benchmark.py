"""Tests of the end-to-end benchmark's own arithmetic, tracing and inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import replay  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, RecordSource  # noqa: E402

from repro.core.objects import SpatialObject  # noqa: E402
from repro.resilience import IngestGuard  # noqa: E402


# -- FIFO replay ---------------------------------------------------------------


def test_fifo_replay_matches_hand_worked_stall_backlog():
    # a 50 ms stall at tick 1 with ticks due every 20 ms: the backlog
    # (30, 20, 10 ms) drains by 10 ms per tick behind it
    service = [10.0, 50.0, 10.0, 10.0, 10.0, 10.0]
    assert replay.fifo_waits(service, 20.0) == [0, 0, 30, 20, 10, 0]
    assert replay.latencies(service, 20.0, [0] * 6) == [
        10, 50, 40, 30, 20, 10
    ]


def test_reorder_hold_adds_the_later_ticks_completion():
    service = [10.0, 50.0, 10.0, 10.0, 10.0, 10.0]
    # tick 3's last arrival is applied in tick 4; tick 5's after the end
    holds = [0, 0, 0, 1, 0, 1]
    assert replay.latencies(service, 20.0, holds) == [10, 50, 40, 40, 20]


def test_failed_tick_is_infinite_latency_for_it_and_its_backlog():
    service = [10.0, math.inf, 10.0]
    assert replay.latencies(service, 20.0, [0, 0, 0]) == [
        10, math.inf, math.inf
    ]


# -- sustainable rate ----------------------------------------------------------


def _schedule(n=1200, base=4e-3, stall=60e-3, every=250):
    return [stall if k % every == every - 1 else base for k in range(n)]


def _sustainable(service, holds, rate, limit):
    delta = 10 / rate
    mean = sum(service) / len(service)
    p99 = replay.percentile(replay.latencies(service, delta, holds), 99)
    return mean < delta and p99 <= limit


@pytest.mark.parametrize("limit", [0.065, 0.1])
def test_sustainable_rate_is_the_boundary_of_sustainable_rates(limit):
    # 0.065 s binds on the stall backlog, 0.1 s only on saturation
    service, holds = _schedule(), [0] * 1200
    rate = replay.sustainable_rate(service, holds, batch=10, limit=limit)
    assert 0 < rate < 10 / (sum(service) / len(service))
    assert _sustainable(service, holds, rate, limit)
    assert not _sustainable(service, holds, rate * 1.001, limit)


def test_sustainable_rate_is_monotone_in_service_and_limit():
    holds = [0] * 1200
    rates = [
        replay.sustainable_rate(_schedule(base=b), holds, 10, limit=0.1)
        for b in (3e-3, 4e-3, 5e-3, 6e-3)
    ]
    assert rates == sorted(rates, reverse=True)
    limits = [0.07, 0.1, 0.2, 0.4]
    by_limit = [
        replay.sustainable_rate(_schedule(), holds, 10, limit=lim)
        for lim in limits
    ]
    assert by_limit == sorted(by_limit)


def test_sustainable_rate_is_zero_when_a_tick_failed():
    service = _schedule()
    service[5] = math.inf
    assert replay.sustainable_rate(service, [0] * 1200, 10, 0.1) == 0.0


# -- host-speed rescaling ------------------------------------------------------


def test_speed_factors_follow_a_step_and_ignore_single_outliers():
    probe = [100.0] * 60 + [200.0] * 60
    probe[10] = 10_000.0  # one preempted probe
    factors = replay.speed_factors(probe, reference=100.0, half=5)
    assert factors[10] == 1.0
    assert factors[:50] == [1.0] * 50
    assert factors[70:] == [0.5] * 50


# -- per-tick minima and percentiles -------------------------------------------


def test_per_tick_minima_takes_each_ticks_fastest_round():
    assert replay.per_tick_minima([[3, 1, 4], [2, 5, 1], [9, 9, 9]]) == [
        2, 1, 1
    ]
    with pytest.raises(ValueError):
        replay.per_tick_minima([[1, 2], [1]])


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert replay.percentile(values, 99) == 990
    assert replay.percentile(values[:20], 50) == 10
    with pytest.raises(ValueError, match="n=999"):
        replay.percentile(values[:999], 99)
    with pytest.raises(ValueError):
        replay.percentile(values[:19], 50)
    # the flaw this replaces: a "p95" of 12 samples is their maximum
    with pytest.raises(ValueError):
        replay.percentile(values[:12], 95)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > b [20,30]; root > c [50,70]
    start, end, parent = [0, 10, 20, 50], [100, 40, 30, 70], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [50, 20, 10, 20]


def test_tracer_nests_wrapped_calls_and_restores_them():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    layer = Layer()
    tracer = Tracer()
    tracer.patch(Layer, "inner", "inner", count=lambda args, r: args[1])
    tracer.patch(layer, "outer", "outer")
    tracer.tick = 0
    root = tracer.begin("tick")
    assert layer.outer(3) == 8
    tracer.finish(root)
    tracer.restore()
    assert "outer" not in vars(layer)
    assert Layer.inner.__name__ == "inner"
    names = [tracer.names[c] for c in tracer.span_name]
    assert names == ["tick", "outer", "inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert tracer.counts["inner"] == 3
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(own) == tracer.end[0] - tracer.start[0]


# -- records -------------------------------------------------------------------


def _records(seed, ticks=60, batch=20):
    wl = WORKLOADS["trickle"]
    source = RecordSource(wl.dataset, seed, wl.ooo_frac, wl.max_lateness)
    return [source.take(batch) for _ in range(ticks)]


def test_records_depend_on_the_seed_only():
    first = _records(7)
    for _ in range(1234):  # advance the process-wide oid counter
        SpatialObject(0.0, 0.0)
    assert _records(7) == first
    assert _records(8) != first


def test_displacement_stays_within_the_lateness_bound():
    wl = WORKLOADS["trickle"]
    delivered = [r for tick in _records(3, ticks=500) for r in tick]
    assert sorted(r["oid"] for r in delivered) == list(range(len(delivered)))
    newest = -1.0
    late = 0
    for record in delivered:
        newest = max(newest, record["timestamp"])
        assert newest - record["timestamp"] < wl.max_lateness
        late += record["timestamp"] < newest
    assert 0.05 < late / len(delivered) < 0.15
    guard = IngestGuard(max_lateness=wl.max_lateness)
    guard.filter(delivered)
    assert guard.rejected == 0
    assert guard.late_reordered == late
