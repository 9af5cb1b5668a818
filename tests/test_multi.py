"""Tests for serving several continuous queries over one stream (paper
§8): ``StreamEngine`` pushes every batch to each of its monitors."""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.engine import StreamEngine
from repro.errors import InvalidParameterError
from repro.window import CountWindow


def engine_with(**monitors) -> StreamEngine:
    return StreamEngine(monitors, [], batch_size=8)


class TestServing:
    def test_update_requires_queries(self):
        with pytest.raises(InvalidParameterError):
            StreamEngine({}, [], 8)

    def test_all_queries_see_every_batch(self):
        e = engine_with(
            exact=AG2Monitor(10, 10, CountWindow(40)),
            naive=NaiveMonitor(10, 10, CountWindow(40)),
        )
        for i in range(6):
            results = e.process(make_objects(8, seed=i, domain=60.0))
            assert results["exact"].best_weight == pytest.approx(
                results["naive"].best_weight
            )
        assert e.batches == 6

    def test_different_rect_sizes_coexist(self):
        e = engine_with(
            fine=AG2Monitor(4, 4, CountWindow(30)),
            coarse=AG2Monitor(40, 40, CountWindow(30)),
        )
        results = e.process(make_objects(20, seed=4, domain=50.0))
        # a larger rectangle can never cover less weight at the optimum
        assert results["coarse"].best_weight >= results["fine"].best_weight

    def test_mixed_query_types(self):
        e = engine_with(
            top1=AG2Monitor(10, 10, CountWindow(30)),
            top3=TopKAG2Monitor(10, 10, CountWindow(30), k=3),
        )
        results = e.process(make_objects(15, seed=6, domain=50.0))
        assert results["top3"].best_weight == pytest.approx(
            results["top1"].best_weight
        )
        assert len(results["top3"].regions) <= 3

    def test_results_without_update(self):
        """Between batches each monitor's latest answer is its
        ``result``; reading it runs no update."""
        e = engine_with(a=AG2Monitor(10, 10, CountWindow(10)))
        e.process(make_objects(5, seed=1))
        assert e.monitors["a"].result.window_size == 5
        assert e.batches == 1
        assert len(e.timings["a"]) == 1
