#!/usr/bin/env python3
"""Full experiment harness: regenerate every table and figure (§7).

Runs the complete scaled parameter grids of DESIGN.md §4 over all four
workloads and prints the rows/series the paper reports — Table 5 and
Figures 7, 8, 9, 10, 11 — plus the four design ablations of DESIGN.md
§4 (cell size, visit order, approximation strategy, grid vs R-tree).
Every entry times through the one measurement loop,
``repro.bench.measure``: one pass over the seeded stream fills the
window, turns it over once untimed and supplies the timed batches;
each batch is timed on every monitor of the entry before the next, with
the collector paused, and keeps its fastest of ``repeats`` rounds.
Output is valid Markdown; redirect it into EXPERIMENTS.md's
measurement section::

    python benchmarks/run_experiments.py               # full grids (slow)
    python benchmarks/run_experiments.py --quick       # reduced grids
    python benchmarks/run_experiments.py --only fig7 fig10

The paper ran C++; the comparisons that matter are the *shapes*: who
wins, by what factor, and how each curve bends (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import (
    FIG7_WINDOWS,
    FIG8_RATES,
    FIG9_SIDES,
    FIG10_EPSILONS,
    FIG11_KS,
    PAPER_DATASETS,
    ExperimentConfig,
    build_monitor,
    format_rows,
    run_ablation,
    run_approx_sweep,
    run_monitors,
    run_sweep,
    run_topk_sweep,
)
from repro.core.ag2 import AG2Monitor
from repro.core.rtree_monitor import RTreeMonitor
from repro.core.sampling import SamplingMonitor
from repro.window import CountWindow

FULL = ExperimentConfig(
    window_size=10_000, batch_size=100, rect_side=1000.0,
    domain=140_000.0, batches=10, seed=42, repeats=2,
)
QUICK = FULL.with_(window_size=2_000, batches=2, repeats=1)

# per-experiment dataset lists: the heavy skewed workloads get smaller
# windows in full mode so G2 and naive top-k stay tractable
HEAVY = {"geolife_like", "roma_like"}


def _cfg(base: ExperimentConfig, dataset: str) -> ExperimentConfig:
    cfg = base.with_(dataset=dataset)
    if dataset in HEAVY and cfg.window_size > 3_000:
        cfg = cfg.with_(window_size=3_000)
    return cfg


def emit(title: str, body: str) -> None:
    print(f"\n### {title}\n")
    print("```")
    print(body)
    print("```")
    sys.stdout.flush()


def fig7(base: ExperimentConfig, quick: bool) -> None:
    windows = (1_000, 2_000, 4_000) if quick else FIG7_WINDOWS
    # the heavy skewed workloads sweep a proportionally smaller grid so
    # G2 stays tractable (same 1:2.5:5:7.5:10 structure)
    heavy_windows = tuple(max(500, w // 4) for w in windows)
    for dataset in PAPER_DATASETS:
        cfg = _cfg(base, dataset)
        values = heavy_windows if dataset in HEAVY else windows
        rows = run_sweep(cfg, "window_size", values)
        emit(f"Figure 7 — impact of n [{dataset}] (mean ms)", format_rows(rows))


def fig8(base: ExperimentConfig, quick: bool) -> None:
    rates = (50, 200, 1000) if quick else FIG8_RATES
    for dataset in PAPER_DATASETS:
        rows = run_sweep(_cfg(base, dataset), "batch_size", rates)
        emit(f"Figure 8 — impact of m [{dataset}] (mean ms)", format_rows(rows))


def fig9(base: ExperimentConfig, quick: bool) -> None:
    sides = (100.0, 1000.0, 2000.0) if quick else FIG9_SIDES
    for dataset in PAPER_DATASETS:
        cfg = _cfg(base, dataset)
        if dataset in HEAVY:
            cfg = cfg.with_(window_size=min(cfg.window_size, 2_000))
        rows = run_sweep(cfg, "rect_side", sides)
        emit(f"Figure 9 — impact of l [{dataset}] (mean ms)", format_rows(rows))


def fig10(base: ExperimentConfig, quick: bool) -> None:
    epsilons = (0.0, 0.1, 0.3, 0.5) if quick else FIG10_EPSILONS
    for dataset in PAPER_DATASETS:
        cfg = _cfg(base, dataset)
        rows = run_approx_sweep(cfg, epsilons)
        emit(
            f"Figure 10 — impact of ε [{dataset}] (aG2 mean ms + practical error)",
            format_rows(rows),
        )


def fig11(base: ExperimentConfig, quick: bool) -> None:
    ks = (1, 10, 25, 50) if quick else FIG11_KS
    for dataset in PAPER_DATASETS:
        cfg = _cfg(base, dataset)
        rows = run_topk_sweep(cfg, ks)
        emit(f"Figure 11 — impact of k [{dataset}] (mean ms)", format_rows(rows))


def table5(base: ExperimentConfig, quick: bool) -> None:
    cfg = base.with_(window_size=min(base.window_size, 3_000))
    rows = run_ablation(cfg, PAPER_DATASETS)
    emit(
        "Table 5 — Algorithm 5 ablation (aG2 mean ms per dataset)",
        format_rows(rows),
    )


def ablation_cells(base: ExperimentConfig, quick: bool) -> None:
    """Grid resolution, which the paper fixes without prescribing it:
    too fine multiplies vertex copies, too coarse destroys pruning
    locality.  The default cell is twice the query side."""
    cfg = _cfg(base, "roma_like")
    factors = (1.0, 2.0, 4.0, 8.0)
    times = run_monitors(
        cfg,
        lambda: {
            f"{f:g}x": build_monitor(
                "ag2", cfg.with_(cell_size=f * cfg.rect_side)
            )
            for f in factors
        },
    )
    rows = [{"cell_size": label, "ag2": ms} for label, ms in times.items()]
    emit("Ablation — grid cell size [roma_like] (aG2 mean ms)", format_rows(rows))


def ablation_order(base: ExperimentConfig, quick: bool) -> None:
    """Candidate cells in decreasing ``c.w``, so the first Rule-1
    failure prunes the rest, vs the paper's literal any-order loop."""
    cfg = _cfg(base, "roma_like")
    side, n = cfg.rect_side, cfg.window_size
    times = run_monitors(
        cfg,
        lambda: {
            order: AG2Monitor(side, side, CountWindow(n), visit_order=order)
            for order in ("bound", "arbitrary")
        },
    )
    rows = [{"visit_order": label, "ag2": ms} for label, ms in times.items()]
    emit("Ablation — cell visit order [roma_like] (aG2 mean ms)", format_rows(rows))


def ablation_approx(base: ExperimentConfig, quick: bool) -> None:
    """ε = 0.2 head to head: incremental approximate aG2 vs repeated
    one-time sampled computation (the [25] pattern §7.4 argues
    against)."""
    cfg = _cfg(base, "roma_like").with_(epsilon=0.2)
    side, n = cfg.rect_side, cfg.window_size
    times = run_monitors(
        cfg,
        lambda: {
            "approx_ag2": build_monitor("ag2", cfg),
            "sampling": SamplingMonitor(
                side, side, CountWindow(n), epsilon=0.2, seed=cfg.seed
            ),
        },
    )
    rows = [{"strategy": label, "mean_ms": ms} for label, ms in times.items()]
    emit(
        "Ablation — approximation strategy, ε = 0.2 [roma_like] (mean ms)",
        format_rows(rows),
    )


def ablation_rtree(base: ExperimentConfig, quick: bool) -> None:
    """§4.1's "grid beats complex structures under churn": the same
    incremental graph monitor over the grid (G2) and over a dynamic
    R-tree (insert + condense-delete per object), per churn rate m."""
    cfg = base.with_(window_size=min(base.window_size, 4_000))
    rows = []
    for rate in (50, 200, 1000):
        c = cfg.with_(batch_size=rate)
        times = run_monitors(
            c,
            lambda: {
                "grid": build_monitor("g2", c),
                "rtree": RTreeMonitor(
                    c.rect_side, c.rect_side, CountWindow(c.window_size)
                ),
            },
        )
        rows.append({"batch_size": rate, **times})
    emit("Ablation — grid vs R-tree [synthetic] (mean ms)", format_rows(rows))


EXPERIMENTS = {
    "table5": table5,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "ablation_cells": ablation_cells,
    "ablation_order": ablation_order,
    "ablation_approx": ablation_approx,
    "ablation_rtree": ablation_rtree,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced grids")
    parser.add_argument(
        "--only", nargs="*", choices=sorted(EXPERIMENTS), default=None,
        help="run a subset of experiments",
    )
    args = parser.parse_args(argv)
    base = QUICK if args.quick else FULL
    chosen = args.only or list(EXPERIMENTS)
    print(f"## Measured results ({'quick' if args.quick else 'full'} grids)")
    started = time.time()
    for name in chosen:
        t0 = time.time()
        EXPERIMENTS[name](base, args.quick)
        print(f"\n_{name} completed in {time.time() - t0:.0f}s_")
    print(f"\n_total {time.time() - started:.0f}s_")
    return 0


if __name__ == "__main__":
    sys.exit(main())
