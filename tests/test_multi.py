"""Tests for serving multiple continuous queries over one stream."""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.engine import MultiQueryGroup
from repro.errors import InvalidParameterError
from repro.window import CountWindow


def group_with(*names_and_monitors):
    group = MultiQueryGroup()
    for name, monitor in names_and_monitors:
        group.add(name, monitor)
    return group


class TestRegistry:
    def test_add_and_names(self):
        group = group_with(("a", AG2Monitor(5, 5, CountWindow(10))))
        assert "a" in group
        assert group.names == ("a",)
        assert len(group) == 1

    def test_duplicate_name_rejected(self):
        group = group_with(("a", AG2Monitor(5, 5, CountWindow(10))))
        with pytest.raises(InvalidParameterError):
            group.add("a", AG2Monitor(5, 5, CountWindow(10)))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            MultiQueryGroup().add("", AG2Monitor(5, 5, CountWindow(10)))

    def test_remove(self):
        monitor = AG2Monitor(5, 5, CountWindow(10))
        group = group_with(("a", monitor))
        assert group.remove("a") is monitor
        assert "a" not in group
        with pytest.raises(InvalidParameterError):
            group.remove("a")

    def test_monitor_lookup(self):
        monitor = AG2Monitor(5, 5, CountWindow(10))
        group = group_with(("a", monitor))
        assert group.monitor("a") is monitor
        with pytest.raises(InvalidParameterError):
            group.monitor("b")


class TestServing:
    def test_update_requires_queries(self):
        with pytest.raises(InvalidParameterError):
            MultiQueryGroup().update(make_objects(1))

    def test_all_queries_see_every_batch(self):
        group = group_with(
            ("exact", AG2Monitor(10, 10, CountWindow(40))),
            ("naive", NaiveMonitor(10, 10, CountWindow(40))),
        )
        for i in range(6):
            results = group.update(make_objects(8, seed=i, domain=60.0))
            assert results["exact"].best_weight == pytest.approx(
                results["naive"].best_weight
            )

    def test_different_rect_sizes_coexist(self):
        group = group_with(
            ("fine", AG2Monitor(4, 4, CountWindow(30))),
            ("coarse", AG2Monitor(40, 40, CountWindow(30))),
        )
        results = group.update(make_objects(20, seed=4, domain=50.0))
        # a larger rectangle can never cover less weight at the optimum
        assert results["coarse"].best_weight >= results["fine"].best_weight

    def test_mixed_query_types(self):
        group = group_with(
            ("top1", AG2Monitor(10, 10, CountWindow(30))),
            ("top3", TopKAG2Monitor(10, 10, CountWindow(30), k=3)),
        )
        results = group.update(make_objects(15, seed=6, domain=50.0))
        assert results["top3"].best_weight == pytest.approx(
            results["top1"].best_weight
        )
        assert len(results["top3"].regions) <= 3

    def test_results_without_update(self):
        group = group_with(("a", AG2Monitor(10, 10, CountWindow(10))))
        group.update(make_objects(5, seed=1))
        latest = group.results()
        assert latest["a"].window_size == 5


class TestBackfill:
    def test_backfilled_query_answers_over_history(self):
        group = group_with(("first", AG2Monitor(10, 10, CountWindow(50))))
        history = make_objects(30, seed=3, domain=60.0)
        group.update(history)
        group.add_backfilled(
            "second", AG2Monitor(10, 10, CountWindow(50)), source="first"
        )
        fresh = make_objects(5, seed=9, domain=60.0)
        results = group.update(fresh)
        assert results["second"].best_weight == pytest.approx(
            results["first"].best_weight
        )

    def test_backfill_unknown_source(self):
        group = MultiQueryGroup()
        with pytest.raises(InvalidParameterError):
            group.add_backfilled(
                "x", AG2Monitor(5, 5, CountWindow(5)), source="nope"
            )
