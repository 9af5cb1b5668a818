"""Tests for approximate monitoring (§6.1): the Theorem 1 guarantee."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_objects
from repro.core.ag2 import AG2Monitor
from repro.core.approx import practical_error
from repro.core.naive import NaiveMonitor
from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError
from repro.window import CountWindow


class TestPracticalError:
    def test_zero_when_equal(self):
        assert practical_error(10.0, 10.0) == 0.0

    def test_fraction(self):
        assert practical_error(8.0, 10.0) == pytest.approx(0.2)

    def test_empty_window_is_zero(self):
        assert practical_error(0.0, 0.0) == 0.0

    def test_float_noise_clamped(self):
        assert practical_error(10.0 + 1e-12, 10.0) == 0.0


class TestApproxMonitor:
    """The approximate monitor is ``AG2Monitor(..., epsilon=ε)``."""

    def test_epsilon_required_positive(self):
        # ε = 0 is the exact monitor; ε = 1 would promise nothing
        assert AG2Monitor(10, 10, CountWindow(5), epsilon=0.0).epsilon == 0.0
        with pytest.raises(InvalidParameterError):
            AG2Monitor(10, 10, CountWindow(5), epsilon=1.0)

    @pytest.mark.parametrize(
        "epsilon", [1.5, -0.1, float("inf"), float("-inf"), float("nan")]
    )
    def test_out_of_range_epsilon_rejected(self, epsilon):
        """Regression: out-of-range and non-finite tolerances must fail
        fast at construction — a nan epsilon would silently disable the
        (1-ε) floor the monitor advertises."""
        with pytest.raises(InvalidParameterError):
            AG2Monitor(10, 10, CountWindow(5), epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1.0, 1.5, -0.1, float("nan")])
    def test_base_monitor_rejects_vacuous_epsilon(self, epsilon):
        with pytest.raises(InvalidParameterError):
            AG2Monitor(10, 10, CountWindow(5), epsilon=epsilon)

    def test_result_carries_quality_contract(self):
        approx = AG2Monitor(10, 10, CountWindow(30), epsilon=0.25)
        exact = AG2Monitor(10, 10, CountWindow(30), epsilon=0.0)
        batch = make_objects(12, seed=3, domain=60.0)
        a = approx.update(batch)
        assert a.mode == "approx"
        assert a.guarantee == pytest.approx(0.75)
        b = exact.update(batch)
        assert b.mode == "exact"
        assert b.guarantee == 1.0

    def test_epsilon_zero_on_base_is_exact(self):
        exact = AG2Monitor(10, 10, CountWindow(30), epsilon=0.0)
        naive = NaiveMonitor(10, 10, CountWindow(30))
        for i in range(8):
            batch = make_objects(8, seed=i, domain=60.0)
            a = exact.update(batch)
            b = naive.update(batch)
            assert a.best_weight == pytest.approx(b.best_weight)

    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5, 0.9])
    def test_error_bound_holds_on_stream(self, epsilon):
        approx = AG2Monitor(10, 10, CountWindow(40), epsilon=epsilon)
        naive = NaiveMonitor(10, 10, CountWindow(40))
        for i in range(15):
            batch = make_objects(8, seed=50 + i, domain=60.0)
            a = approx.update(batch)
            b = naive.update(batch)
            if b.best_weight > 0:
                assert a.best_weight >= (1 - epsilon) * b.best_weight - 1e-9
            approx.check_invariants()

    def test_never_exceeds_exact(self):
        """The approximate answer is a real space: never above s*."""
        approx = AG2Monitor(10, 10, CountWindow(30), epsilon=0.4)
        naive = NaiveMonitor(10, 10, CountWindow(30))
        for i in range(10):
            batch = make_objects(6, seed=80 + i, domain=50.0)
            a = approx.update(batch)
            b = naive.update(batch)
            assert a.best_weight <= b.best_weight + 1e-9

    def test_bound_survives_star_expiry(self):
        approx = AG2Monitor(10, 10, CountWindow(4), epsilon=0.3)
        naive = NaiveMonitor(10, 10, CountWindow(4))
        streams = [
            [SpatialObject(x=5, y=5, weight=9), SpatialObject(x=6, y=6, weight=9)],
            [SpatialObject(x=80, y=80, weight=2), SpatialObject(x=81, y=81, weight=2)],
            [SpatialObject(x=40, y=40, weight=3), SpatialObject(x=41, y=41, weight=3)],
            [SpatialObject(x=10, y=80, weight=1)],
        ]
        for batch in streams:
            a = approx.update(batch)
            b = naive.update(batch)
            if b.best_weight > 0:
                assert a.best_weight >= 0.7 * b.best_weight - 1e-9

    def test_prunes_at_least_as_much_as_exact(self):
        exact = AG2Monitor(5, 5, CountWindow(150), epsilon=0.0)
        approx = AG2Monitor(5, 5, CountWindow(150), epsilon=0.5)
        for i in range(8):
            batch = make_objects(20, seed=500 + i, domain=100.0)
            exact.update(batch)
            approx.update(batch)
        assert approx.stats.local_sweeps <= exact.stats.local_sweeps


coord = st.integers(min_value=0, max_value=40).map(float)


@settings(max_examples=40, deadline=None)
@given(
    objs=st.lists(
        st.builds(
            SpatialObject,
            x=coord,
            y=coord,
            weight=st.sampled_from([0.5, 1.0, 3.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    epsilon=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
    capacity=st.integers(min_value=2, max_value=20),
)
def test_error_bound_property(objs, epsilon, capacity):
    """Hypothesis: the Theorem 1 bound holds for arbitrary streams,
    window sizes and tolerances."""
    approx = AG2Monitor(8, 8, CountWindow(capacity), epsilon=epsilon)
    naive = NaiveMonitor(8, 8, CountWindow(capacity))
    for pos in range(0, len(objs), 5):
        batch = objs[pos : pos + 5]
        a = approx.update(batch)
        b = naive.update(batch)
        assert a.best_weight >= (1 - epsilon) * b.best_weight - 1e-9
        assert a.best_weight <= b.best_weight + 1e-9
