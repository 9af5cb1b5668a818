"""End-to-end benchmark of the composed stack: guard → queue → WAL → aG2
→ checkpoint.

    python3 benchmarks/e2e/run.py --workload uniform --seed 42 --seconds 12

Runs each workload's rounds one at a time, each in a fresh process,
replays the same seeded ticks through the plane-sweep oracle, prints
every metric with its unit and sample count, and ends with one JSON
line.  Exits 1 when any answer is wrong.  ``--trace 1`` adds a traced
round and reports the per-layer metrics instead; ``--real-clock`` adds
a wall-clock-paced round as a cross-check of the latency replay.  See
README.md for the metrics, workloads and protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

# the package under test is run from source, never from an installed copy
if not (SRC / "repro").is_dir():
    sys.exit(f"error: no package source at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

import replay  # noqa: E402
import stack  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: rounds per workload; per-tick minima are taken across them
ROUNDS = 2
#: speed-probe time that defines the reference host speed: CPU times are
#: rescaled to what they would be while the probe takes this long (its
#: typical time on the 2-vCPU VM the benchmark was calibrated on)
PROBE_REFERENCE_NS = 500_000.0
#: cold set-ups measured per workload: one per round plus set-up-only
#: processes, so the median has enough samples
SETUPS = 3
#: the latency percentiles need ten samples beyond p99
MIN_TICKS = 1000
#: a round that takes longer than this is killed and reported as failed
ROUND_TIMEOUT_S = 150

#: end-to-end metrics BENCHMARK.json gates, with their units
E2E_UNITS = {
    "setup_s": "s",
    "throughput_aps": "arrivals/s",
    "service_p50_ms": "ms",
    "service_p99_ms": "ms",
    "latency_p50_ms": "ms",
    "sustainable_aps": "arrivals/s",
    "peak_rss_mb": "MiB",
}
#: reported beside them but not gated: it swings by more than the
#: largest allowed bound between runs on a shared host (README.md)
DIAGNOSTIC_UNITS = {"latency_p99_ms": "ms"}


class RoundFailed(RuntimeError):
    """A round process crashed or timed out."""


def _child(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "stack.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out: {spec}") from exc
    if proc.returncode != 0:
        raise RoundFailed(
            f"round exited {proc.returncode}: {spec}\n{proc.stderr}"
        )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _run(spec: dict, workdir_parent: Path) -> dict:
    """One child round with a fresh WAL/checkpoint directory."""
    workdir = Path(tempfile.mkdtemp(prefix="round-", dir=workdir_parent))
    try:
        return _child(dict(spec, workdir=str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _pct(values, q):
    """Percentile or None when the sample is too small to support it."""
    try:
        return replay.percentile(values, q)
    except ValueError:
        return None


class Report:
    """Collects one workload's rounds and turns them into metrics."""

    def __init__(self, wl, seed: int, ticks: int, out: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.ticks = ticks
        self.out = out / wl.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.rounds: list[dict] = []
        self.setups: list[float] = []
        self.errors: list[str] = []
        self.traced: dict | None = None
        self.paced: dict | None = None

    def spec(self, **extra) -> dict:
        return dict(
            workload=self.wl.name, seed=self.seed, ticks=self.ticks, **extra
        )

    def run(self, **extra) -> dict | None:
        try:
            return _run(self.spec(**extra), self.out)
        except RoundFailed as exc:
            self.errors.append(str(exc))
            return None

    def add_round(self) -> None:
        result = self.run()
        if result is not None:
            self.rounds.append(result)
            self.setups.append(_setup_s(result))

    def add_setup(self) -> None:
        result = self.run(setup_only=True)
        if result is not None:
            self.setups.append(_setup_s(result))

    # -- combining -----------------------------------------------------------

    def finish(self) -> dict:
        wl, ticks = self.wl, self.ticks
        failed: set[int] = set()
        mismatched: list[int] = []
        checks = {"cover": 0, "oracle": 0}
        holds = [0] * ticks
        if not self.rounds:
            failed.update(range(ticks))
        else:
            # every round, traced and paced ones too, must give the same
            # answer on every tick
            reference = self.rounds[0]["answers"]
            extra = [r for r in (self.traced, self.paced) if r is not None]
            for r in self.rounds + extra:
                failed.update(r["failed"])
                failed.update(
                    k for k, (a, b) in enumerate(zip(reference, r["answers"]))
                    if a != b
                )
            verdict = stack.verify(wl, self.seed, ticks, reference)
            mismatched = verdict["mismatches"]
            failed.update(mismatched)
            checks = verdict["checks"]
            holds = verdict["holds"]
        inf = math.inf
        service = [inf] * ticks
        if self.rounds:
            minima = replay.per_tick_minima([_service_s(r) for r in self.rounds])
            service = [inf if k in failed else s for k, s in enumerate(minima)]
        lat = replay.latencies(service, wl.delta_s, holds)
        finite = all(math.isfinite(s) for s in service)
        arrivals = ticks * wl.batch
        metrics = {
            "setup_s": statistics.median(self.setups) if self.setups else inf,
            "throughput_aps": arrivals / sum(service) if finite else 0.0,
            "service_p50_ms": _ms(_pct(service, 50)),
            "service_p99_ms": _ms(_pct(service, 99)),
            "latency_p50_ms": _ms(_pct(lat, 50)),
            "sustainable_aps": replay.sustainable_rate(
                service, holds, wl.batch, wl.latency_limit_ms / 1e3
            ),
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] / 1024.0 for r in self.rounds
            ) if self.rounds else inf,
        }
        diagnostics = {"latency_p99_ms": _ms(_pct(lat, 99))}
        samples = {
            "setup_s": len(self.setups),
            "throughput_aps": ticks,
            "service_p50_ms": ticks,
            "service_p99_ms": ticks,
            "latency_p50_ms": len(lat),
            "sustainable_aps": len(lat),
            "peak_rss_mb": len(self.rounds),
            "latency_p99_ms": len(lat),
        }
        summary = {
            "workload": wl.name,
            "seed": self.seed,
            "ticks": ticks,
            "rounds": len(self.rounds),
            "attempted": ticks,
            "failed": len(failed),
            "failed_frac": len(failed) / ticks,
            "checks": checks,
            "mismatches": mismatched,
            "errors": self.errors,
            "metrics": metrics,
            "diagnostics": diagnostics,
            "samples": samples,
        }
        if self.traced is not None:
            summary["layers"] = self._layers(service, lat)
        if self.paced is not None:
            summary["real_clock"] = self._real_clock(holds)
        return summary

    def _layers(self, service: list, lat: list) -> dict:
        layers = self.traced["layers"]
        traced = sum(_service_s(self.traced))
        untraced = statistics.median(sum(_service_s(r)) for r in self.rounds)
        waits = replay.fifo_waits(service, self.wl.delta_s)
        metrics = dict(layers["metrics"])
        metrics["queue.wait_p99_ms"] = _ms(_pct(waits, 99))
        # traced / untraced throughput - 1, on one round each side
        metrics["trace.overhead_frac"] = untraced / traced - 1.0
        return {
            "metrics": metrics,
            "spans": layers["spans"],
            "trace_file": layers["trace_file"],
        }

    def _real_clock(self, holds: list) -> dict:
        done = [t / 1e9 for t in self.paced["done_ns"]]
        delta = self.wl.delta_s
        n = len(done)
        measured = [
            done[k + h] - k * delta
            for k, h in enumerate(holds)
            if k + h < n
        ]
        late = [s / 1e9 for s in self.paced["late_ns"]]
        return {
            "latency_p50_ms": _ms(_pct(measured, 50)),
            "latency_p99_ms": _ms(_pct(measured, 99)),
            "generator_lateness_p99_ms": _ms(_pct(late, 99)),
            "n": len(measured),
        }


def _service_s(result: dict) -> list[float]:
    """A round's service times in seconds at the reference host speed."""
    factors = replay.speed_factors(result["probe_ns"], PROBE_REFERENCE_NS)
    return [s / 1e9 * f for s, f in zip(result["service_ns"], factors)]


def _setup_s(result: dict) -> float:
    """A round's set-up time at the reference host speed."""
    probe = statistics.median(result["setup_probe_ns"])
    return result["setup_s"] * PROBE_REFERENCE_NS / probe


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def _print_summary(summary: dict) -> None:
    name = summary["workload"]
    print(
        f"== {name}: seed {summary['seed']}, {summary['ticks']} ticks x "
        f"{summary['rounds']} rounds, failed {summary['failed']}/"
        f"{summary['attempted']} (failed_frac {summary['failed_frac']:g}), "
        f"oracle checks {summary['checks']['oracle']}, centre checks "
        f"{summary['checks']['cover']}, mismatches {len(summary['mismatches'])}"
    )
    units = {**E2E_UNITS, **DIAGNOSTIC_UNITS}
    values = {**summary["metrics"], **summary["diagnostics"]}
    for metric, value in values.items():
        n = summary["samples"][metric]
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        note = "" if metric in E2E_UNITS else "  (not gated)"
        print(f"   {metric:<22} {shown:>14} {units[metric]:<11} n={n}{note}")
    layers = summary.get("layers")
    if layers:
        print(f"   -- per layer ({layers['spans']} spans, {layers['trace_file']})")
        for metric, value in layers["metrics"].items():
            print(f"   {metric:<34} {_num(value):>14} {LAYER_UNITS[metric]}")
    clock = summary.get("real_clock")
    if clock:
        replayed = (
            summary["metrics"]["latency_p50_ms"],
            summary["diagnostics"]["latency_p99_ms"],
        )
        print(
            f"   -- real clock (n={clock['n']}, wall ms): latency p50 "
            f"{_num(clock['latency_p50_ms'])}, p99 "
            f"{_num(clock['latency_p99_ms'])}, generator lateness p99 "
            f"{_num(clock['generator_lateness_p99_ms'])}; replayed p50 "
            f"{_num(replayed[0])}, p99 {_num(replayed[1])}"
        )
    for error in summary["errors"]:
        print(f"   error: {error}", file=sys.stderr)


def _result_line(summaries: list[dict], traced: bool) -> dict:
    single = len(summaries) == 1
    metrics: dict = {}
    for s in summaries:
        prefix = "" if single else f"{s['workload']}."
        if traced:
            values = s["layers"]["metrics"]
            units = {m: LAYER_UNITS[m] for m in values}
        else:
            values = s["metrics"]
            units = E2E_UNITS
        for name, value in values.items():
            metrics[prefix + name] = {
                "value": value if value is not None else float("nan"),
                "unit": units[name],
            }
    return {
        "correct": all(not s["failed"] and not s["errors"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


LAYER_UNITS = {
    "guard.ms_per_tick": "ms",
    "guard.reordered_frac": "fraction",
    "guard.rejected_frac": "fraction",
    "queue.ms_per_tick": "ms",
    "queue.wait_p99_ms": "ms",
    "queue.shed_frac": "fraction",
    "engine.self_ms_per_tick": "ms",
    "wal.append_ms_per_tick": "ms",
    "wal.sync_ms_per_tick": "ms",
    "wal.fsyncs_per_tick": "count",
    "wal.bytes_per_arrival": "bytes",
    "update.self_ms_per_tick": "ms",
    "prune.cell_frac": "fraction",
    "prune.vertex_frac": "fraction",
    "window.ms_per_tick": "ms",
    "route.ms_per_tick": "ms",
    "route.cells_per_arrival": "count",
    "graph.connect_ms_per_tick": "ms",
    "graph.overlap_tests_per_arrival": "count",
    "graph.expire_ms_per_tick": "ms",
    "sweep.ms_per_tick": "ms",
    "sweep.calls_per_tick": "count",
    "sweep.items_per_call": "count",
    "sweep.tail_ms": "ms",
    "checkpoint.ms_per_write": "ms",
    "checkpoint.snapshot_ms_per_write": "ms",
    "checkpoint.bytes": "bytes",
    "checkpoint.writes": "count",
    "gc.ms_per_tick": "ms",
    "gc.tail_ms": "ms",
    "state.cells": "count",
    "state.vertices": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="run one workload (default: all, round-robin)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=12.0,
        help="least open-loop schedule a round replays; ticks = max(1000, "
        "seconds / tick period)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced round and report per-layer metrics",
    )
    parser.add_argument(
        "--real-clock",
        action="store_true",
        help="add a wall-clock-paced round per workload (diagnostic)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=HERE / "out",
        help="where summary.json, trace files and round work directories go",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    reports = []
    for name in names:
        wl = WORKLOADS[name]
        ticks = max(MIN_TICKS, math.ceil(args.seconds / wl.delta_s))
        reports.append(Report(wl, args.seed, ticks, args.out))
    # a traced run reports per-layer metrics only, so one untraced round
    # is enough to compare against; round-robin spreads the host's drift
    for _ in range(1 if args.trace else ROUNDS):
        for report in reports:
            report.add_round()
    for report in reports:
        for _ in range(SETUPS - len(report.setups)):
            report.add_setup()
        if args.trace:
            report.traced = report.run(traced=True)
            if report.traced is None:
                report.errors.append("traced round failed")
        if args.real_clock:
            report.paced = report.run(paced=True)
    summaries = [report.finish() for report in reports]
    for summary in summaries:
        _print_summary(summary)
    with open(args.out / "summary.json", "w") as fh:
        json.dump(summaries, fh, indent=1)
    line = _result_line(summaries, traced=bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
