#!/usr/bin/env python3
"""CI perf-regression gates.

Two modes:

**Profile mode** (original) — over a ``maxrs-stream profile`` JSON,
asserts the pruning behaviour the paper's §7 evaluation is built on —
the properties a refactor is most likely to degrade silently:

1. aG2 visits strictly fewer cells than G2 (branch-and-bound skips
   work the basic monitor must do);
2. aG2 records a nonzero number of branch-and-bound cell prunings;
3. aG2's mean update time is reported and positive (the workload ran).

Usage::

    maxrs-stream profile --window 2000 --batches 10 --seed 7 --json m.json
    python scripts/perf_gate.py m.json

**Bench mode** — compares a fresh ``maxrs-stream bench`` document
against the committed baseline (``BENCH_PR36.json``) on
``speedup_vs_naive``, per (monitor, dataset) row.  The speedup is a
ratio *within* one run on one machine, so absolute host speed cancels
out; what remains is the algorithmic advantage over the naive
recompute, which is exactly what a kernel regression erodes.  The gate
fails when any indexed monitor's speedup falls more than
``--tolerance`` (default 15%) below the baseline row; each monitor
label names exactly one index, so the failure names the offending
index too.  Both documents must name the same ``sweep_kernel``
(``compiled`` or ``python``; documents older than bench schema 6 ran
the Python tree): the compiled kernel speeds naive up far more than
the indexed monitors, so speedups across kernels are not comparable.
Both must also carry the same bench ``schema``: a schema change marks a
change in what is measured (schema 8: the window turnover and timed
batches come from one pass over the stream), so speedups across
schemas are not comparable either.

Usage::

    maxrs-stream bench --seed 42 --profile quick --out fresh.json
    python scripts/perf_gate.py --bench fresh.json --baseline BENCH_PR36.json

Exits 0 when every check passes, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: monitors whose speedup_vs_naive is gated (naive is the denominator)
GATED_MONITORS = ("g2", "ag2", "rtree", "topk")


def check(metrics_path: str) -> list[str]:
    """Profile mode: return failure messages (empty = gate passes)."""
    with open(metrics_path, encoding="utf-8") as fh:
        doc = json.load(fh)

    failures: list[str] = []
    monitors = doc.get("metrics", {})
    for required in ("g2", "ag2"):
        if required not in monitors:
            failures.append(f"profile JSON has no metrics for {required!r}")
    if failures:
        return failures

    g2 = monitors["g2"]["counters"]
    ag2 = monitors["ag2"]["counters"]

    g2_visited = g2.get("cells_visited", 0.0)
    ag2_visited = ag2.get("cells_visited", 0.0)
    if not g2_visited > 0:
        failures.append(
            "g2 visited no cells — workload did not run? "
            f"(measured cells_visited={g2_visited:.0f}, threshold > 0)"
        )
    if not ag2_visited < g2_visited:
        ratio = ag2_visited / g2_visited if g2_visited else float("inf")
        failures.append(
            "branch-and-bound regression: aG2 visited "
            f"{ag2_visited:.0f} cells, G2 visited {g2_visited:.0f} "
            f"(measured aG2/G2 ratio={ratio:.3f}, threshold < 1.000)"
        )

    prunings = ag2.get("cells_pruned", 0.0)
    if not prunings > 0:
        failures.append(
            "pruning regression: aG2 recorded zero cell prunings "
            f"(measured cells_pruned={prunings:.0f}, threshold > 0)"
        )

    timings = doc.get("timings", {})
    ag2_mean = timings.get("ag2", {}).get("mean_ms", 0.0)
    if not ag2_mean > 0:
        failures.append(
            "no aG2 timing recorded — workload did not run? "
            f"(measured mean_ms={ag2_mean:.3f}, threshold > 0)"
        )

    return failures


def _row_index(doc: dict) -> dict:
    """(profile, monitor, dataset) -> row for one document."""
    index: dict = {}
    for profile_name, profile_doc in doc.get("profiles", {}).items():
        for row in profile_doc.get("rows", []):
            index[(profile_name, row["monitor"], row["dataset"])] = row
    return index


def check_bench(
    bench_path: str, baseline_path: str, tolerance: float
) -> list[str]:
    """Bench mode: return failure messages (empty = gate passes)."""
    with open(bench_path, encoding="utf-8") as fh:
        current = json.load(fh)
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)

    schemas = [doc.get("schema") for doc in (current, baseline)]
    if schemas[0] != schemas[1]:
        return [
            f"bench schema mismatch: this run is schema {schemas[0]}, "
            f"the baseline schema {schemas[1]}; the schemas measure "
            "differently, so their speedups are not comparable "
            "(regenerate the baseline)"
        ]

    kernels = [doc.get("sweep_kernel", "python") for doc in (current, baseline)]
    if kernels[0] != kernels[1]:
        return [
            f"sweep kernel mismatch: this run used the {kernels[0]} "
            f"kernel, the baseline the {kernels[1]} kernel; "
            "speedup_vs_naive is only comparable within one kernel "
            "(rebuild the kernel or regenerate the baseline)"
        ]

    failures: list[str] = []
    base_rows = _row_index(baseline)
    cur_rows = _row_index(current)
    compared = 0
    for key, base_row in sorted(base_rows.items()):
        profile_name, monitor, dataset = key
        if monitor not in GATED_MONITORS:
            continue
        cur_row = cur_rows.get(key)
        if cur_row is None:
            # the current run may cover a subset of profiles (the CI
            # smoke job runs only `quick`); a missing profile is fine,
            # a missing monitor row within a covered profile is not
            if any(k[0] == profile_name for k in cur_rows):
                failures.append(
                    f"bench row missing: {monitor} on {dataset} "
                    f"({profile_name} profile)"
                )
            continue
        compared += 1
        base_speedup = base_row["speedup_vs_naive"]
        cur_speedup = cur_row["speedup_vs_naive"]
        floor = base_speedup * (1.0 - tolerance)
        if cur_speedup < floor:
            failures.append(
                f"kernel throughput regression: {monitor} on {dataset} "
                f"({profile_name}) speedup_vs_naive {cur_speedup:.2f}x "
                f"below floor {floor:.2f}x "
                f"(baseline {base_speedup:.2f}x, tolerance {tolerance:.0%})"
            )
    if compared == 0:
        failures.append(
            "bench gate compared zero rows — profile names disagree "
            "between the baseline and the current document?"
        )
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_gate.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "metrics", nargs="?", help="profile-mode metrics JSON"
    )
    parser.add_argument(
        "--bench", metavar="PATH", help="bench-mode: fresh bench JSON"
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="bench-mode: committed baseline JSON (e.g. BENCH_PR36.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed relative speedup drop before failing "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv[1:])

    if args.bench or args.baseline:
        if not (args.bench and args.baseline):
            print(
                "PERF GATE FAIL: bench mode needs both --bench and "
                "--baseline",
                file=sys.stderr,
            )
            return 2
        try:
            failures = check_bench(args.bench, args.baseline, args.tolerance)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(
                f"PERF GATE FAIL: cannot compare bench documents: {exc!r}",
                file=sys.stderr,
            )
            return 1
        label = "bench gate: speedup-vs-naive within tolerance of baseline"
    else:
        if not args.metrics:
            parser.print_usage(sys.stderr)
            return 2
        try:
            failures = check(args.metrics)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"PERF GATE FAIL: cannot read {args.metrics}: {exc}",
                file=sys.stderr,
            )
            return 1
        label = "perf gate: aG2 pruning behaviour verified"

    if failures:
        for message in failures:
            print(f"PERF GATE FAIL: {message}", file=sys.stderr)
        return 1
    print(label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
