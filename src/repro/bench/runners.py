"""Experiment runners: regenerate each table/figure's data series.

Each function mirrors one artefact of the paper's §7 and returns plain
data (lists of dict rows) that the table formatter, the CLI and
``benchmarks/run_experiments.py`` consume.  All of them time through
:func:`repro.bench.bench.measure`: fill the window and turn it over
once untimed, then time ``cfg.batches`` arrival batches of
``cfg.batch_size`` objects, reporting each batch's fastest of
``cfg.repeats`` rounds.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.bench.bench import mean_ms, measure
from repro.bench.config import ExperimentConfig
from repro.core.ag2 import AG2Monitor
from repro.core.approx import practical_error
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.topk import TopKAG2Monitor
from repro.core.upperbound import make_tightener
from repro.errors import InvalidParameterError
from repro.window import CountWindow

__all__ = [
    "build_monitor",
    "run_monitors",
    "run_config",
    "run_sweep",
    "run_approx_sweep",
    "run_topk_sweep",
    "run_ablation",
]

ALGORITHMS = ("naive", "g2", "ag2")


def build_monitor(
    algorithm: str,
    cfg: ExperimentConfig,
    tighten_mode: str = "off",
) -> MaxRSMonitor:
    """Instantiate one of the paper's algorithms for a configuration."""
    window = CountWindow(cfg.window_size)
    side = cfg.rect_side
    if algorithm == "naive":
        return NaiveMonitor(side, side, window, k=cfg.k)
    if algorithm == "g2":
        return G2Monitor(side, side, window, cell_size=cfg.cell_size)
    if algorithm == "ag2":
        if cfg.k > 1:
            return TopKAG2Monitor(
                side,
                side,
                window,
                k=cfg.k,
                cell_size=cfg.cell_size,
            )
        return AG2Monitor(
            side,
            side,
            window,
            cell_size=cfg.cell_size,
            epsilon=cfg.epsilon,
            tighten=make_tightener(tighten_mode),
        )
    raise InvalidParameterError(
        f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
    )


def run_monitors(
    cfg: ExperimentConfig, build: Callable[[], Dict[str, MaxRSMonitor]]
) -> Dict[str, float]:
    """Mean update time (ms) per monitor ``build`` returns, from the
    per-batch minima of :func:`~repro.bench.bench.measure`."""
    times, _, _ = measure(cfg, build)
    return {name: mean_ms(sample) for name, sample in times.items()}


def run_config(
    cfg: ExperimentConfig,
    algorithms: Sequence[str],
    tighten_mode: str = "off",
) -> Dict[str, float]:
    """Mean update time (ms) per algorithm for one configuration."""
    return run_monitors(
        cfg,
        lambda: {
            name: build_monitor(name, cfg, tighten_mode=tighten_mode)
            for name in algorithms
        },
    )


def run_sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[object],
    algorithms: Sequence[str] = ALGORITHMS,
) -> list[dict[str, object]]:
    """Vary one parameter (Figures 7–9): one row per value with the
    mean update time of every algorithm."""
    rows: list[dict[str, object]] = []
    for value in values:
        cfg = base.with_(**{parameter: value})
        times = run_config(cfg, algorithms)
        row: dict[str, object] = {parameter: value}
        row.update(times)
        rows.append(row)
    return rows


def run_approx_sweep(
    base: ExperimentConfig, epsilons: Sequence[float]
) -> list[dict[str, object]]:
    """Figure 10: per ε, the approximate monitor's mean update time and
    its practical error against an exact companion.  Every ε and the
    companion are timed in one measurement, so each error compares
    answers to the same batches."""
    cfg = base.with_(epsilon=0.0)
    labels = {eps: f"eps={eps}" for eps in epsilons}
    times, answers, _ = measure(
        cfg,
        lambda: {
            "exact": build_monitor("ag2", cfg),
            **{
                label: build_monitor("ag2", cfg.with_(epsilon=eps))
                for eps, label in labels.items()
            },
        },
    )
    exact = [result.best_weight for result in answers["exact"]]
    rows: list[dict[str, object]] = []
    for eps, label in labels.items():
        errors = [
            practical_error(result.best_weight, best)
            for result, best in zip(answers[label], exact)
        ]
        rows.append(
            {
                "epsilon": eps,
                "ag2_ms": mean_ms(times[label]),
                "exact_ms": mean_ms(times["exact"]),
                "mean_error": sum(errors) / len(errors),
                "max_error": max(errors),
            }
        )
    return rows


def run_topk_sweep(
    base: ExperimentConfig, ks: Sequence[int]
) -> list[dict[str, object]]:
    """Figure 11: per k, mean update time of naive vs aG2 top-k."""
    rows: list[dict[str, object]] = []
    for k in ks:
        cfg = base.with_(k=k)
        times = run_config(cfg, ("naive", "ag2"))
        rows.append({"k": k, "naive": times["naive"], "ag2": times["ag2"]})
    return rows


def run_ablation(
    base: ExperimentConfig,
    datasets: Sequence[str],
    modes: Sequence[str] = ("off", "conditional", "always"),
) -> list[dict[str, object]]:
    """Table 5: Algorithm 2 vs Algorithm 5 (conditional / always), mean
    update time per dataset.  ``off`` is plain Algorithm 2."""
    rows: list[dict[str, object]] = [{"mode": mode} for mode in modes]
    for dataset in datasets:
        cfg = base.with_(dataset=dataset)
        times = run_monitors(
            cfg,
            lambda: {
                mode: build_monitor("ag2", cfg, tighten_mode=mode)
                for mode in modes
            },
        )
        for row in rows:
            row[dataset] = times[row["mode"]]
    return rows
