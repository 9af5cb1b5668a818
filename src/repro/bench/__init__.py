"""Benchmark harness: configurations, runners and table formatting."""

from repro.bench.config import (
    DEFAULT_CONFIG,
    FIG7_WINDOWS,
    FIG8_RATES,
    FIG9_SIDES,
    FIG10_EPSILONS,
    FIG11_KS,
    PAPER_DATASETS,
    SCALE_FACTOR,
    ExperimentConfig,
)
from repro.bench.bench import (
    BENCH_DATASETS,
    BENCH_MONITORS,
    bench_rows,
    measure,
    run_bench,
)
from repro.bench.profile import ProfileReport, run_profile
from repro.bench.runners import (
    ALGORITHMS,
    build_monitor,
    run_ablation,
    run_approx_sweep,
    run_config,
    run_monitors,
    run_sweep,
    run_topk_sweep,
)
from repro.bench.tables import format_rows, format_table, series_from_rows

__all__ = [
    "ALGORITHMS",
    "BENCH_DATASETS",
    "BENCH_MONITORS",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "FIG7_WINDOWS",
    "FIG8_RATES",
    "FIG9_SIDES",
    "FIG10_EPSILONS",
    "FIG11_KS",
    "PAPER_DATASETS",
    "ProfileReport",
    "SCALE_FACTOR",
    "bench_rows",
    "build_monitor",
    "format_rows",
    "measure",
    "run_bench",
    "format_table",
    "run_ablation",
    "run_approx_sweep",
    "run_config",
    "run_monitors",
    "run_profile",
    "run_sweep",
    "run_topk_sweep",
    "series_from_rows",
]
