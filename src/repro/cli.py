"""Command-line experiment runner: ``maxrs-stream``.

Subcommands mirror the paper's evaluation artefacts::

    maxrs-stream monitor --dataset geolife_like --window 5000 --batches 20
    maxrs-stream sweep --parameter window_size --values 2000,5000,10000
    maxrs-stream approx --epsilons 0,0.1,0.2
    maxrs-stream topk --ks 1,10,25
    maxrs-stream ablation
    maxrs-stream profile --window 2000 --batches 10 --json metrics.json
    maxrs-stream bench --profile paper --seed 42 --out bench.json
    maxrs-stream soak --scenario crash_recovery --wal-dir run.wal
    maxrs-stream wal inspect --dir run.wal

Every subcommand prints a plain-text table; ``--dataset`` accepts the
four built-in workload names (see ``repro.datasets``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench import (
    DEFAULT_CONFIG,
    PAPER_DATASETS,
    ExperimentConfig,
    format_rows,
    run_ablation,
    run_approx_sweep,
    run_config,
    run_profile,
    run_sweep,
    run_topk_sweep,
)
from repro.datasets import available_datasets
from repro.obs import write_metrics_csv, write_metrics_json

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default=DEFAULT_CONFIG.dataset,
        choices=available_datasets(),
        help="workload to stream (default: %(default)s)",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_CONFIG.window_size,
        help="sliding-window size n (default: %(default)s)",
    )
    parser.add_argument(
        "--rate", type=int, default=DEFAULT_CONFIG.batch_size,
        help="generation rate m per batch (default: %(default)s)",
    )
    parser.add_argument(
        "--side", type=float, default=DEFAULT_CONFIG.rect_side,
        help="query rectangle side length l (default: %(default)s)",
    )
    parser.add_argument(
        "--domain", type=float, default=DEFAULT_CONFIG.domain,
        help="monitoring-space side length (default: %(default)s)",
    )
    parser.add_argument(
        "--batches", type=int, default=DEFAULT_CONFIG.batches,
        help="timed batches to run (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_CONFIG.seed,
        help="stream seed (default: %(default)s)",
    )


def _config(args: argparse.Namespace, **extra: object) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset,
        window_size=args.window,
        batch_size=args.rate,
        rect_side=args.side,
        domain=args.domain,
        batches=args.batches,
        seed=args.seed,
    ).with_(**extra)


def _parse_list(text: str, cast: type) -> list:
    return [cast(token) for token in text.split(",") if token.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxrs-stream",
        description="Continuous MaxRS monitoring experiments "
        "(Amagata & Hara, EDBT 2016 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_monitor = sub.add_parser(
        "monitor", help="compare naive/G2/aG2 on one configuration"
    )
    _add_common(p_monitor)
    p_monitor.add_argument(
        "--algorithms", default="naive,g2,ag2",
        help="comma-separated subset of naive,g2,ag2",
    )

    p_sweep = sub.add_parser(
        "sweep", help="vary one parameter (Figures 7-9)"
    )
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--parameter", required=True,
        choices=("window_size", "batch_size", "rect_side"),
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )

    p_approx = sub.add_parser(
        "approx", help="approximate monitoring sweep (Figure 10)"
    )
    _add_common(p_approx)
    p_approx.add_argument(
        "--epsilons", default="0,0.1,0.2,0.3,0.4,0.5",
        help="comma-separated error tolerances",
    )

    p_topk = sub.add_parser("topk", help="top-k sweep (Figure 11)")
    _add_common(p_topk)
    p_topk.add_argument(
        "--ks", default="1,10,20,30,40,50", help="comma-separated k values"
    )

    p_ablation = sub.add_parser(
        "ablation", help="Algorithm 5 upper-bound ablation (Table 5)"
    )
    _add_common(p_ablation)
    p_ablation.add_argument(
        "--datasets", default=",".join(PAPER_DATASETS),
        help="comma-separated dataset names",
    )

    p_profile = sub.add_parser(
        "profile",
        help="time a workload as the bench does and print per-monitor "
        "operation counters (cells visited, prunings, sweeps, ...)",
    )
    _add_common(p_profile)
    p_profile.add_argument(
        "--algorithms", default="naive,g2,ag2",
        help="comma-separated subset of naive,g2,ag2",
    )
    p_profile.add_argument(
        "--per-batch", action="store_true",
        help="also print the per-batch counter-delta table",
    )
    p_profile.add_argument(
        "--rates", action="store_true",
        help="also print per-batch derived rates (prune fraction, "
        "sweeps/arrival, overlap tests/arrival)",
    )
    p_profile.add_argument(
        "--json", metavar="PATH",
        help="write the full metrics document (timings, counters, "
        "per-batch deltas) as JSON",
    )
    p_profile.add_argument(
        "--csv", metavar="PATH",
        help="write flat (monitor, kind, metric, value) rows as CSV",
    )

    p_soak = sub.add_parser(
        "soak",
        help="end-to-end soak: drive the fully composed stack (ingest "
        "guard, backpressure queue, degradation ladder, write-ahead "
        "log, checkpoints) through a phased "
        "fault campaign with crash recovery from checkpoint + WAL "
        "tail; exits non-zero on any cross-layer invariant breach",
    )
    p_soak.add_argument(
        "--scenario", default="smoke",
        help="committed scenario to run (default: %(default)s); "
        "see --list",
    )
    p_soak.add_argument(
        "--list", action="store_true",
        help="list the committed scenarios and exit",
    )
    p_soak.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    p_soak.add_argument(
        "--checkpoint-dir", metavar="PATH", default=None,
        help="directory for checkpoint files (default: a temporary "
        "directory, removed afterwards)",
    )
    p_soak.add_argument(
        "--no-verify-checksum", action="store_true",
        help="disable CRC32 checkpoint verification during recovery "
        "(silent corruption then restores bad state, which the "
        "re-convergence invariant catches)",
    )
    p_soak.add_argument(
        "--wal-dir", metavar="PATH", default=None,
        help="directory for write-ahead-log segments (default: "
        "<scenario>.wal beside the checkpoints)",
    )
    p_soak.add_argument(
        "--json", metavar="PATH", help="write the soak report as JSON"
    )

    p_wal = sub.add_parser(
        "wal",
        help="write-ahead-log tooling: 'inspect' walks every segment "
        "of a log directory, verifies frame CRCs, and exits non-zero "
        "if any record is damaged or any tail is torn",
    )
    p_wal.add_argument("action", choices=("inspect",))
    p_wal.add_argument(
        "--dir", required=True, metavar="PATH",
        help="WAL directory (holds wal-*.seg files)",
    )
    p_wal.add_argument(
        "--json", metavar="PATH",
        help="write the full inspection report (per-record detail) as "
        "JSON",
    )

    p_bench = sub.add_parser(
        "bench",
        help="fixed-seed benchmark suite: every monitor x uniform/gaussian, "
        "plus naive and aG2 on skewed workloads (static/drifting "
        "hotspot, power-law cities); writes the JSON "
        "document the CI bench gate compares against the committed "
        "BENCH_PR36.json",
    )
    p_bench.add_argument(
        "--seed", type=int, default=42,
        help="stream seed (default: %(default)s)",
    )
    p_bench.add_argument(
        "--profile", default="both",
        choices=("full", "quick", "paper", "both"),
        help="suite sizing: full, quick (the CI smoke and the committed "
        "baseline), paper (the paper's default n = 10000, naive/G2/aG2 "
        "rows), or both full and quick (default: %(default)s)",
    )
    p_bench.add_argument(
        "--out", metavar="PATH", help="write the bench document as JSON"
    )

    p_dataset = sub.add_parser(
        "dataset", help="dump a workload sample to CSV (x,y,weight,timestamp)"
    )
    _add_common(p_dataset)
    p_dataset.add_argument(
        "--count", type=int, default=10_000, help="objects to emit"
    )
    p_dataset.add_argument(
        "--output", required=True, help="CSV file to write"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "monitor":
        cfg = _config(args)
        algorithms = _parse_list(args.algorithms, str)
        times = run_config(cfg, algorithms)
        rows = [{"algorithm": name, "mean_ms": ms} for name, ms in times.items()]
        print(format_rows(rows, title=f"dataset={cfg.dataset}"))
    elif args.command == "sweep":
        cfg = _config(args)
        cast = float if args.parameter == "rect_side" else int
        values = _parse_list(args.values, cast)
        rows = run_sweep(cfg, args.parameter, values)
        print(format_rows(rows, title=f"{args.parameter} sweep [{cfg.dataset}]"))
    elif args.command == "approx":
        cfg = _config(args)
        rows = run_approx_sweep(cfg, _parse_list(args.epsilons, float))
        print(format_rows(rows, title=f"epsilon sweep [{cfg.dataset}]"))
    elif args.command == "topk":
        cfg = _config(args)
        rows = run_topk_sweep(cfg, _parse_list(args.ks, int))
        print(format_rows(rows, title=f"k sweep [{cfg.dataset}]"))
    elif args.command == "ablation":
        cfg = _config(args)
        rows = run_ablation(cfg, _parse_list(args.datasets, str))
        print(format_rows(rows, title="Algorithm 5 ablation (mean ms)"))
    elif args.command == "profile":
        cfg = _config(args)
        profile = run_profile(cfg, _parse_list(args.algorithms, str))
        title = (
            f"profile [{cfg.dataset}] window={cfg.window_size} "
            f"rate={cfg.batch_size} batches={profile.batches} "
            f"seed={cfg.seed}"
        )
        print(format_rows(profile.summary_rows(), title=title))
        if args.per_batch:
            print()
            print(
                format_rows(
                    profile.per_batch_rows(), title="per-batch deltas"
                )
            )
        if args.rates:
            print()
            print(
                format_rows(
                    profile.rate_rows(), title="per-batch derived rates"
                )
            )
        if args.json:
            write_metrics_json(args.json, profile.to_dict())
            print(f"wrote metrics JSON to {args.json}")
        if args.csv:
            write_metrics_csv(args.csv, profile.csv_rows())
            print(f"wrote metrics CSV to {args.csv}")
    elif args.command == "soak":
        from repro.soak import get_scenario, list_scenarios, run_soak

        if args.list:
            rows = [
                {
                    "scenario": scn.name,
                    "phases": len(scn.phases),
                    "ticks": scn.total_ticks,
                    "description": scn.description,
                }
                for scn in list_scenarios()
            ]
            print(format_rows(rows, title="committed soak scenarios"))
            return 0
        scenario = get_scenario(args.scenario)
        soak_report = run_soak(
            scenario,
            seed=args.seed,
            verify_checksum=not args.no_verify_checksum,
            checkpoint_dir=args.checkpoint_dir,
            wal_dir=args.wal_dir,
        )
        title = (
            f"soak [{scenario.name}] seed={soak_report.seed} "
            f"phases={len(scenario.phases)} ticks={soak_report.ticks}"
        )
        print(format_rows(soak_report.rows(), title=title))
        if args.json:
            write_metrics_json(args.json, soak_report.to_dict())
            print(f"wrote soak report JSON to {args.json}")
        if not soak_report.ok:
            for line in soak_report.failures():
                print(f"FAIL: {line}")
            return 1
        print(
            "OK: campaign survived; conservation closed, watermarks "
            "monotone, guarantees held, recoveries re-converged exactly"
        )
    elif args.command == "wal":
        from repro.durability import inspect_wal

        doc = inspect_wal(args.dir)
        rows = [
            {"quantity": "directory", "value": doc["directory"]},
            {"quantity": "segments", "value": doc["segments"]},
            {"quantity": "records", "value": doc["records"]},
            {"quantity": "damaged records", "value": doc["damaged_records"]},
            {"quantity": "torn segments", "value": doc["torn_segments"]},
            {"quantity": "clean", "value": doc["clean"]},
        ]
        print(format_rows(rows, title=f"wal inspect [{args.dir}]"))
        if args.json:
            write_metrics_json(args.json, doc)
            print(f"wrote inspection report JSON to {args.json}")
        if not doc["clean"]:
            print(
                f"FAIL: log is damaged ({doc['damaged_records']} bad "
                f"records, {doc['torn_segments']} torn segments)"
            )
            return 1
        print("OK: every record verified, no torn tails")
    elif args.command == "bench":
        from repro.bench.bench import bench_rows, run_bench

        names = (
            ("full", "quick") if args.profile == "both" else (args.profile,)
        )
        doc = run_bench(seed=args.seed, profiles=names)
        print(
            format_rows(
                bench_rows(doc),
                title=f"bench seed={args.seed} cpus={doc['cpu_count']}",
            )
        )
        if args.out:
            write_metrics_json(args.out, doc)
            print(f"wrote bench JSON to {args.out}")
    elif args.command == "dataset":
        from repro.datasets import make_stream
        from repro.streams import write_csv

        stream = make_stream(args.dataset, domain=args.domain, seed=args.seed)
        objects = stream.take(args.count)
        write_csv(args.output, objects)
        print(f"wrote {len(objects)} objects to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
