"""End-to-end soak subsystem: phased fault campaigns with recovery."""

from repro.soak.harness import SoakReport, run_soak
from repro.soak.injectors import (
    CORRUPTION_MODES,
    WAL_CORRUPTION_MODES,
    ClockSkewSource,
    NonReplayableSource,
    corrupt_checkpoint,
    corrupt_wal,
)
from repro.soak.invariants import InvariantMonitor, exact_weight_over
from repro.soak.load import LoadGenerator
from repro.soak.scenario import (
    SCENARIOS,
    Phase,
    Scenario,
    get_scenario,
    list_scenarios,
)

__all__ = [
    "CORRUPTION_MODES",
    "WAL_CORRUPTION_MODES",
    "ClockSkewSource",
    "InvariantMonitor",
    "LoadGenerator",
    "NonReplayableSource",
    "Phase",
    "SCENARIOS",
    "Scenario",
    "SoakReport",
    "corrupt_checkpoint",
    "corrupt_wal",
    "exact_weight_over",
    "get_scenario",
    "list_scenarios",
    "run_soak",
]
