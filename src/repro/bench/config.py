"""Experiment configurations mirroring the paper's Table 4.

The paper's parameter grid (window ``n``, generation rate ``m``,
rectangle side ``l``, error rate ``ε``, result size ``k``) is kept
structurally identical; window sizes are scaled down by
:data:`SCALE_FACTOR` because this is pure Python rather than the
authors' C++ (DESIGN.md §3).  The domain side is chosen so the default
configuration has the same expected rectangle-overlap degree as the
paper's default (``n·(2l)²/D²`` equal on both sides), which is the
quantity the algorithms' work actually depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidParameterError

__all__ = [
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "SCALE_FACTOR",
    "FIG7_WINDOWS",
    "FIG8_RATES",
    "FIG9_SIDES",
    "FIG10_EPSILONS",
    "FIG11_KS",
    "PAPER_DATASETS",
]

#: paper window sizes divided by ours (500K default → 10K default)
SCALE_FACTOR = 50

#: Figure 7 sweep — the paper's 100K..1000K windows, scaled
FIG7_WINDOWS = (2_000, 5_000, 10_000, 15_000, 20_000)

#: Figure 8 sweep — generation rates, exactly the paper's values
FIG8_RATES = (50, 100, 200, 500, 1000)

#: Figure 9 sweep — rectangle side lengths, exactly the paper's values
FIG9_SIDES = (100.0, 500.0, 1000.0, 1500.0, 2000.0)

#: Figure 10 sweep — error-tolerance values, exactly the paper's values
FIG10_EPSILONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Figure 11 sweep — k values (paper: 1..50 step 5; trimmed grid)
FIG11_KS = (1, 10, 20, 30, 40, 50)

#: evaluation datasets, in the paper's presentation order
PAPER_DATASETS = ("synthetic", "tdrive_like", "geolife_like", "roma_like")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One benchmark configuration (defaults = paper defaults, scaled)."""

    dataset: str = "synthetic"
    window_size: int = 10_000
    batch_size: int = 100
    rect_side: float = 1000.0
    domain: float = 140_000.0
    seed: int = 42
    batches: int = 5
    epsilon: float = 0.0
    k: int = 1
    cell_size: float | None = None
    #: measurement rounds; each batch keeps its fastest round (see
    #: :func:`repro.bench.bench.measure`)
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise InvalidParameterError("window_size must be positive")
        if self.batch_size <= 0:
            raise InvalidParameterError("batch_size must be positive")
        if self.rect_side <= 0:
            raise InvalidParameterError("rect_side must be positive")
        if self.batches <= 0:
            raise InvalidParameterError("batches must be positive")
        if self.repeats <= 0:
            raise InvalidParameterError("repeats must be positive")

    def with_(self, **changes: object) -> "ExperimentConfig":
        """A modified copy — convenience for sweep construction."""
        return replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_CONFIG = ExperimentConfig()
