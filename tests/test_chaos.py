"""FaultInjectingSource: deterministic, conserved fault injection.

The soak campaigns (``tests/test_soak.py``) drive this source through
the composed stack; here it is pinned on its own: same seed, same
faults, and every upstream record dropped, duplicated, corrupted,
delayed or passed through clean.
"""

from __future__ import annotations

import pytest

from conftest import make_objects
from repro.errors import InvalidParameterError
from repro.resilience import FaultInjectingSource
from repro.streams import ReplayStream


class TestFaultInjectingSource:
    def test_no_faults_is_identity(self):
        objects = make_objects(50, seed=1, domain=60.0)
        chaos = FaultInjectingSource(ReplayStream(objects), seed=9)
        assert list(chaos) == objects
        assert chaos.injected == 0

    def test_deterministic_for_seed(self):
        objects = make_objects(300, seed=2, domain=60.0)
        make = lambda: FaultInjectingSource(  # noqa: E731
            ReplayStream(objects), seed=4,
            p_drop=0.1, p_duplicate=0.1, p_corrupt=0.1, p_delay=0.1,
        )
        a, b = make(), make()
        # repr-compare: corrupt payloads may contain NaN, which breaks
        # value equality but not textual identity
        assert list(map(repr, a)) == list(map(repr, b))
        assert (a.drops, a.duplicates, a.corrupted, a.delayed) == (
            b.drops, b.duplicates, b.corrupted, b.delayed
        )
        assert a.injected > 0

    def test_emission_conservation(self):
        objects = make_objects(400, seed=3, domain=60.0)
        chaos = FaultInjectingSource(
            ReplayStream(objects), seed=5,
            p_drop=0.05, p_duplicate=0.05, p_corrupt=0.05, p_delay=0.1,
        )
        emitted = list(chaos)
        # every record is dropped, duplicated, corrupted, delayed or clean;
        # delayed ones still come out (possibly at the end-of-stream flush)
        assert len(emitted) == len(objects) - chaos.drops + chaos.duplicates
        assert chaos.emitted == len(emitted)

    def test_delay_bounded_by_max_delay_positions(self):
        objects = make_objects(200, seed=4, domain=60.0)
        chaos = FaultInjectingSource(
            ReplayStream(objects), seed=6, p_delay=0.2, max_delay=4
        )
        stamps = [o.timestamp for o in chaos]
        # displacement is bounded: timestamp t may trail at most the
        # next max_delay upstream records
        max_lag = max(
            (max(stamps[:i + 1]) - t for i, t in enumerate(stamps)), default=0
        )
        assert 0 < max_lag <= 4 + 1
        assert chaos.delayed > 0

    def test_probabilities_validated(self):
        src = ReplayStream([])
        with pytest.raises(InvalidParameterError):
            FaultInjectingSource(src, p_drop=1.2)
        with pytest.raises(InvalidParameterError):
            FaultInjectingSource(src, p_drop=0.6, p_delay=0.6)
        with pytest.raises(InvalidParameterError):
            FaultInjectingSource(src, max_delay=0)
