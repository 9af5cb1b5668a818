"""Experiment runners: regenerate each table/figure's data series.

Each function mirrors one artefact of the paper's §7 and returns plain
data (lists of dict rows) that the table formatter and the pytest
benchmarks consume.  All runners follow the measurement protocol of the
paper: prime the window to capacity untimed, then time ``cfg.batches``
arrival batches of ``cfg.batch_size`` objects.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.config import ExperimentConfig
from repro.core.ag2 import AG2Monitor
from repro.core.approx import practical_error
from repro.core.g2 import G2Monitor
from repro.core.monitor import MaxRSMonitor
from repro.core.naive import NaiveMonitor
from repro.core.quadtree import QuadtreeAG2Monitor
from repro.core.topk import TopKAG2Monitor
from repro.core.upperbound import make_tightener
from repro.datasets import make_stream
from repro.engine import StreamEngine
from repro.errors import InvalidParameterError
from repro.window import CountWindow

__all__ = [
    "build_monitor",
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
        # index-free baseline: the index selection does not apply
        return NaiveMonitor(side, side, window, k=cfg.k)
    if algorithm == "g2":
        if cfg.index == "quadtree":
            raise InvalidParameterError(
                "the quadtree index backs ag2 only; g2 is grid-only"
            )
        return G2Monitor(side, side, window, cell_size=cfg.cell_size)
    if algorithm == "ag2":
        if cfg.index == "quadtree":
            if cfg.k > 1:
                raise InvalidParameterError(
                    "the quadtree index does not support top-k (k > 1)"
                )
            return QuadtreeAG2Monitor(
                side,
                side,
                window,
                tile_size=cfg.cell_size,
                epsilon=cfg.epsilon,
                tighten=make_tightener(tighten_mode),
            )
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


def run_config(
    cfg: ExperimentConfig,
    algorithms: Sequence[str],
    tighten_mode: str = "off",
) -> Dict[str, float]:
    """Mean update time (ms) per algorithm for one configuration."""
    monitors = {
        name: build_monitor(name, cfg, tighten_mode=tighten_mode)
        for name in algorithms
    }
    stream = make_stream(cfg.dataset, domain=cfg.domain, seed=cfg.seed)
    engine = StreamEngine(monitors, stream, batch_size=cfg.batch_size)
    engine.prime(cfg.window_size)
    report = engine.run(cfg.batches)
    return {name: report.mean_ms(name) for name in monitors}


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
    its practical error measured against an exact companion fed the
    same batches."""
    rows: list[dict[str, object]] = []
    for eps in epsilons:
        cfg = base.with_(epsilon=eps)
        monitors = {
            "approx": build_monitor("ag2", cfg),
            "exact": build_monitor("ag2", cfg.with_(epsilon=0.0)),
        }
        stream = make_stream(cfg.dataset, domain=cfg.domain, seed=cfg.seed)
        engine = StreamEngine(monitors, stream, batch_size=cfg.batch_size)
        engine.prime(cfg.window_size)
        report = engine.run(cfg.batches, track_weights=True)
        errors = [
            practical_error(a, e)
            for a, e in zip(
                report.weight_history["approx"],
                report.weight_history["exact"],
            )
        ]
        rows.append(
            {
                "epsilon": eps,
                "ag2_ms": report.mean_ms("approx"),
                "exact_ms": report.mean_ms("exact"),
                "mean_error": sum(errors) / len(errors) if errors else 0.0,
                "max_error": max(errors, default=0.0),
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
    rows: list[dict[str, object]] = []
    for mode in modes:
        row: dict[str, object] = {"mode": mode}
        for dataset in datasets:
            cfg = base.with_(dataset=dataset)
            times = run_config(cfg, ("ag2",), tighten_mode=mode)
            row[dataset] = times["ag2"]
        rows.append(row)
    return rows
