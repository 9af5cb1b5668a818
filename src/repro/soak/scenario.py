"""Declarative soak scenarios: phased fault campaigns as plain data.

A :class:`Scenario` is a seeded, fully deterministic schedule: global
stack configuration (dataset, window, rates, checkpoint cadence,
degradation-ladder shape) plus an ordered tuple of :class:`Phase`
entries.  Each phase binds a load shape (the
:class:`~repro.soak.load.LoadGenerator` parameters), a fault mix
(the :class:`~repro.resilience.chaos.FaultInjectingSource`
probabilities), clock-skew bursts, an optional mid-phase crash (with
optional checkpoint or WAL corruption the recovery must survive), an
optional ENOSPC fault, and whether exact re-convergence is asserted at
phase end.

The committed suite lives in :data:`SCENARIOS`; ``maxrs-stream soak
--list`` renders it.  Scenarios are cheap values — tests freely build
custom ones with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import InvalidParameterError
from repro.soak.injectors import CORRUPTION_MODES, WAL_CORRUPTION_MODES

__all__ = [
    "Phase",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "list_scenarios",
]


@dataclass(frozen=True)
class Phase:
    """One stage of a soak campaign.

    Args:
        name: Unique label within the scenario (used in reports).
        kind: Informational classification (``clean`` / ``dirty`` /
            ``late_burst`` / ``overload`` / ``crash`` / ``recovery``)
            — reports group by it; the mechanics are
            entirely determined by the other fields.
        ticks: Arrival ticks in this phase.
        rate_factor: Multiplier on the scenario's base rate.
        pattern / burst_factor / period / burst_ticks / jitter: Load
            shape, as in :class:`~repro.soak.load.LoadGenerator`.
            ``period``/``burst_ticks`` default to the phase length
            (a flat phase when ``burst_factor`` is 1).
        p_drop / p_duplicate / p_corrupt / p_delay / max_delay: Fault
            mix, as in :class:`~repro.resilience.chaos.FaultInjectingSource`.
        skew_every / skew_burst / skew_amount: Clock-skew bursts —
            every ``skew_every`` records, ``skew_burst`` consecutive
            timestamps regress by ``skew_amount`` (0 disables).
        crash_at: Tick (within this phase) at which the compute tier is
            torn down and recovered from the latest checkpoint before
            the tick's arrivals are processed.
        corrupt: Damage the latest checkpoint file (``torn`` /
            ``bitflip``) right before that recovery — the fallback path
            must skip to the previous rotation.
        wal_corrupt: WAL damage modes (``torn_tail`` /
            ``partial_append`` / ``bitflip``, see
            :func:`~repro.soak.injectors.corrupt_wal`) applied to the
            log between the crash and the recovery — replay must
            truncate / skip around them and still re-converge exactly
            (needs a ``crash_at``).
        enospc_at: Tick at which a one-shot ``ENOSPC`` fault is armed
            on the WAL append path; the engine's inline recovery
            (checkpoint, compact, retry) must absorb it without losing
            a batch.
        verify_convergence: Assert exact re-convergence (window contents
            and answer against the exact companion) at phase end.
    """

    name: str
    kind: str = "clean"
    ticks: int = 10
    rate_factor: float = 1.0
    pattern: str = "square"
    burst_factor: float = 1.0
    period: int | None = None
    burst_ticks: int | None = None
    jitter: float = 0.1
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_corrupt: float = 0.0
    p_delay: float = 0.0
    max_delay: int = 3
    skew_every: int = 0
    skew_burst: int = 1
    skew_amount: float = 0.0
    crash_at: int | None = None
    corrupt: str | None = None
    wal_corrupt: Tuple[str, ...] = ()
    enospc_at: int | None = None
    verify_convergence: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("phase name must be non-empty")
        if self.ticks <= 0:
            raise InvalidParameterError(
                f"phase {self.name!r}: ticks must be positive, got "
                f"{self.ticks}"
            )
        if self.rate_factor <= 0:
            raise InvalidParameterError(
                f"phase {self.name!r}: rate_factor must be positive"
            )
        for label, p in (
            ("p_drop", self.p_drop),
            ("p_duplicate", self.p_duplicate),
            ("p_corrupt", self.p_corrupt),
            ("p_delay", self.p_delay),
        ):
            if not 0.0 <= p < 1.0:
                raise InvalidParameterError(
                    f"phase {self.name!r}: {label} must be in [0, 1), got {p}"
                )
        if self.skew_every < 0 or (self.skew_every and self.skew_amount <= 0):
            raise InvalidParameterError(
                f"phase {self.name!r}: skew needs skew_every > 0 and "
                "skew_amount > 0"
            )
        if self.crash_at is not None and not 0 <= self.crash_at < self.ticks:
            raise InvalidParameterError(
                f"phase {self.name!r}: crash_at {self.crash_at} outside "
                f"[0, {self.ticks})"
            )
        if self.corrupt is not None:
            if self.crash_at is None:
                raise InvalidParameterError(
                    f"phase {self.name!r}: corrupt={self.corrupt!r} needs "
                    "a crash_at to recover from"
                )
            if self.corrupt not in CORRUPTION_MODES:
                raise InvalidParameterError(
                    f"phase {self.name!r}: unknown corruption mode "
                    f"{self.corrupt!r}; choose from "
                    f"{', '.join(CORRUPTION_MODES)}"
                )
        if self.wal_corrupt:
            if self.crash_at is None:
                raise InvalidParameterError(
                    f"phase {self.name!r}: wal_corrupt needs a crash_at "
                    "to recover from"
                )
            for mode in self.wal_corrupt:
                if mode not in WAL_CORRUPTION_MODES:
                    raise InvalidParameterError(
                        f"phase {self.name!r}: unknown WAL corruption "
                        f"mode {mode!r}; choose from "
                        f"{', '.join(WAL_CORRUPTION_MODES)}"
                    )
        if self.enospc_at is not None and not 0 <= self.enospc_at < self.ticks:
            raise InvalidParameterError(
                f"phase {self.name!r}: enospc_at {self.enospc_at} outside "
                f"[0, {self.ticks})"
            )

    @property
    def has_faults(self) -> bool:
        return (
            self.p_drop > 0
            or self.p_duplicate > 0
            or self.p_corrupt > 0
            or self.p_delay > 0
        )


@dataclass(frozen=True)
class Scenario:
    """A complete soak campaign.

    Global knobs configure the composed stack once; the phases then
    drive it.  Every campaign journals admitted batches to a
    write-ahead log and reads a non-replayable source, so a crash
    recovers from checkpoint + WAL tail alone.

    ``unit_ms`` / ``budget_factor`` parameterise the latency the
    deadline controller steers on, with budget
    ``unit_ms × rate × budget_factor``.  A number makes the latency
    *modeled* (``cost = unit_ms × batch × rung_discount``), so ladder
    trajectories — and therefore entire soak reports — are
    bit-identical across runs and hosts.  ``None`` means "measure it":
    the budget is ``budget_factor`` × the p75 of timed exact updates on
    a calm prefix of the campaign run through its own stack, the ladder
    steers on wall-clock time, and a p95 update latency over the budget
    is a campaign violation.
    """

    name: str
    description: str
    phases: Tuple[Phase, ...]
    seed: int = 7
    dataset: str = "synthetic"
    domain: float = 80_000.0
    window: int = 500
    rate: int = 40
    side: float = 1000.0
    max_lateness: float = 8.0
    epsilons: Tuple[float, ...] = (0.2, 0.4)
    probe_every: int = 25
    checkpoint_every: int = 10
    checkpoint_keep: int = 2
    stride: int = 5
    capacity_factor: int = 6
    max_batch_factor: int = 6
    shed_policy: str = "shed_oldest"
    unit_ms: float | None = 0.05
    budget_factor: float = 3.0
    wal_fsync: str = "always"
    wal_segment_records: int = 64

    def __post_init__(self) -> None:
        if not self.phases:
            raise InvalidParameterError(
                f"scenario {self.name!r} needs at least one phase"
            )
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise InvalidParameterError(
                f"scenario {self.name!r}: phase names must be unique"
            )
        if self.window <= 0 or self.rate <= 0:
            raise InvalidParameterError(
                f"scenario {self.name!r}: window and rate must be positive"
            )
        if self.stride < 0:
            raise InvalidParameterError(
                f"scenario {self.name!r}: stride must be >= 0"
            )
        if self.wal_segment_records <= 0:
            raise InvalidParameterError(
                f"scenario {self.name!r}: wal_segment_records must be "
                "positive"
            )

    @property
    def capacity(self) -> int:
        return self.capacity_factor * self.rate

    @property
    def max_batch(self) -> int:
        return self.max_batch_factor * self.rate

    @property
    def total_ticks(self) -> int:
        return sum(p.ticks for p in self.phases)


def _smoke() -> Scenario:
    return Scenario(
        name="smoke",
        description=(
            "Short clean → dirty → late-burst campaign with an exact "
            "re-convergence check at the end; the CI canary."
        ),
        window=400,
        rate=40,
        checkpoint_every=10,
        phases=(
            Phase(name="warm", kind="clean", ticks=15),
            Phase(
                name="dirty",
                kind="dirty",
                ticks=20,
                p_drop=0.02,
                p_duplicate=0.02,
                p_corrupt=0.03,
                p_delay=0.05,
            ),
            Phase(
                name="late_burst",
                kind="late_burst",
                ticks=10,
                p_delay=0.10,
                skew_every=50,
                skew_burst=3,
                skew_amount=20.0,
            ),
            Phase(
                name="settle",
                kind="recovery",
                ticks=15,
                verify_convergence=True,
            ),
        ),
    )


def _dirty_overload() -> Scenario:
    return Scenario(
        name="dirty_overload",
        description=(
            "Dirty data, then an 8x overload spike that forces the "
            "degradation ladder and the shed ledger, then a calm tail "
            "that must recover to exact."
        ),
        window=600,
        rate=40,
        checkpoint_every=12,
        stride=4,
        phases=(
            Phase(name="warm", kind="clean", ticks=10),
            Phase(
                name="dirty",
                kind="dirty",
                ticks=15,
                p_drop=0.02,
                p_duplicate=0.03,
                p_corrupt=0.03,
                p_delay=0.06,
            ),
            Phase(
                name="spike",
                kind="overload",
                ticks=12,
                burst_factor=8.0,
                p_corrupt=0.02,
            ),
            Phase(
                name="calm",
                kind="recovery",
                ticks=35,
                verify_convergence=True,
            ),
        ),
    )


def _crash_recovery() -> Scenario:
    return Scenario(
        name="crash_recovery",
        description=(
            "Three crash-restart cycles: a plain teardown, a bit-flipped "
            "checkpoint (checksum must catch it and fall back), and a "
            "torn checkpoint — each recovery must re-converge exactly."
        ),
        window=500,
        rate=40,
        checkpoint_every=8,
        checkpoint_keep=2,
        # drains smaller than capacity: a burst leaves a cross-tick
        # backlog, so the mid-burst crash has in-flight objects to spill
        max_batch_factor=3,
        phases=(
            Phase(name="warm", kind="clean", ticks=12),
            Phase(
                name="dirty",
                kind="dirty",
                ticks=12,
                p_duplicate=0.02,
                p_corrupt=0.03,
                p_delay=0.05,
            ),
            Phase(
                name="crash_plain",
                kind="crash",
                ticks=10,
                crash_at=0,
                verify_convergence=True,
            ),
            Phase(
                name="dirty_again",
                kind="dirty",
                ticks=10,
                p_corrupt=0.02,
                p_delay=0.04,
            ),
            Phase(
                name="crash_bitflip",
                kind="crash",
                ticks=10,
                crash_at=0,
                corrupt="bitflip",
                verify_convergence=True,
            ),
            Phase(
                name="crash_torn",
                kind="crash",
                ticks=18,
                burst_factor=8.0,
                period=18,
                burst_ticks=4,
                crash_at=2,  # mid-burst: the queue has a backlog to spill
                corrupt="torn",
                verify_convergence=True,
            ),
        ),
    )


def _wal_recovery() -> Scenario:
    return Scenario(
        name="wal_recovery",
        description=(
            "Crash recovery through a damaged log: a mid-burst crash "
            "tears the WAL tail and bit-flips an old record, a kill "
            "lands mid-append, an ENOSPC burst hits the append path — "
            "and every recovery must still re-converge exactly from "
            "checkpoint + WAL tail with zero source reads."
        ),
        window=500,
        rate=40,
        checkpoint_every=8,
        checkpoint_keep=2,
        # drains smaller than capacity: a burst leaves a cross-tick
        # backlog, so the mid-burst crash has in-flight objects to spill
        max_batch_factor=3,
        wal_fsync="always",
        wal_segment_records=16,
        phases=(
            Phase(name="warm", kind="clean", ticks=12),
            Phase(
                name="dirty",
                kind="dirty",
                ticks=12,
                p_duplicate=0.02,
                p_corrupt=0.03,
                p_delay=0.05,
            ),
            Phase(
                name="crash_torn_flip",
                kind="crash",
                ticks=18,
                burst_factor=8.0,
                period=18,
                burst_ticks=4,
                crash_at=2,  # mid-burst: the queue has a backlog to spill
                wal_corrupt=("torn_tail", "bitflip"),
                verify_convergence=True,
            ),
            Phase(
                name="crash_killed_mid_append",
                kind="crash",
                ticks=10,
                # burst from tick 0 so the crash at tick 2 finds a
                # backlog in flight: the spill record survives (only a
                # half-written frame follows it) and must be restored
                burst_factor=6.0,
                period=10,
                burst_ticks=3,
                crash_at=2,
                wal_corrupt=("partial_append",),
                verify_convergence=True,
            ),
            Phase(
                name="enospc",
                kind="dirty",
                ticks=10,
                enospc_at=3,
            ),
            Phase(
                name="settle",
                kind="recovery",
                ticks=10,
                verify_convergence=True,
            ),
        ),
    )


def _overload_wall() -> Scenario:
    return Scenario(
        name="overload_wall",
        description=(
            "Two 10x square-wave flash crowds against a budget "
            "calibrated on this host: the ladder steers on wall-clock "
            "update latency, must hold p95 within the budget, and must "
            "walk back to exact once the bursts pass."
        ),
        seed=11,
        domain=140_000.0,
        window=800,
        rate=30,
        stride=5,
        # unsupervised rungs: periodic invariant probes would put
        # recovery work, not serving work, into the p95
        probe_every=0,
        capacity_factor=20,
        max_batch_factor=8,
        unit_ms=None,
        phases=(
            Phase(
                name="square_wave",
                kind="overload",
                ticks=80,
                burst_factor=10.0,
                period=40,
                burst_ticks=8,
                verify_convergence=True,
            ),
        ),
    )


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "smoke": _smoke,
    "dirty_overload": _dirty_overload,
    "crash_recovery": _crash_recovery,
    "wal_recovery": _wal_recovery,
    "overload_wall": _overload_wall,
}


def list_scenarios() -> list[Scenario]:
    """The committed suite, registration order."""
    return [factory() for factory in SCENARIOS.values()]


def get_scenario(name: str) -> Scenario:
    factory = SCENARIOS.get(name)
    if factory is None:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(SCENARIOS)}"
        )
    return factory()
