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
against the committed baseline (``BENCH_PR9.json``) on
``speedup_vs_naive``, per (monitor, dataset) row.  The speedup is a
ratio *within* one run on one machine, so absolute host speed cancels
out; what remains is the algorithmic advantage over the naive
recompute, which is exactly what a kernel regression erodes.  The gate
fails when any indexed monitor's speedup falls more than
``--tolerance`` (default 15%) below the baseline row.  The multi-query
``scaling`` ratio is gated the same way, but only when both the
baseline and the current host have at least two CPUs — on one core the
honest ratio is below 1 and carries no signal.  When both aG2 spatial
indexes appear on a dataset in both documents, the *adaptive-index
advantage* — quadtree-aG2 speedup over uniform-grid-aG2 speedup — is
additionally gated against the baseline's advantage at twice the
tolerance (the advantage is a ratio of two independently gated ratios).

Usage::

    maxrs-stream bench --seed 42 --profile quick --out fresh.json
    python scripts/perf_gate.py --bench fresh.json --baseline BENCH_PR9.json

Exits 0 when every check passes, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: monitors whose speedup_vs_naive is gated (naive is the denominator)
GATED_MONITORS = ("g2", "ag2", "ag2_quadtree", "rtree", "topk")

#: datasets where the adaptive-index advantage (quadtree aG2 speedup
#: over uniform-grid aG2 speedup, within one run) is gated against the
#: baseline's advantage — the skewed rows exist for this comparison
ADVANTAGE_DATASETS = ("gaussian", "gauss_static", "gauss_drift", "powerlaw")


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

    if doc.get("source_exhausted"):
        failures.append(
            "stream exhausted mid-run: "
            f"{doc.get('batches')} of {doc.get('requested_batches')} batches"
        )
    return failures


def _row_index(doc: dict) -> dict:
    """(profile, monitor, dataset) -> row for one document."""
    index: dict = {}
    for profile_name, profile_doc in doc.get("profiles", {}).items():
        for row in profile_doc.get("rows", []):
            index[(profile_name, row["monitor"], row["dataset"])] = row
    return index


def _spatial_index_of(doc: dict, row: dict) -> str:
    """The spatial index that produced a row (for diagnostics)."""
    if doc.get("schema", 1) >= 3:
        return row.get("index", "none")
    return row.get("backend", "none")


def check_bench(
    bench_path: str, baseline_path: str, tolerance: float
) -> list[str]:
    """Bench mode: return failure messages (empty = gate passes)."""
    with open(bench_path, encoding="utf-8") as fh:
        current = json.load(fh)
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)

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
            spatial = _spatial_index_of(current, cur_row)
            failures.append(
                f"kernel throughput regression: {monitor} "
                f"[{spatial} index] on {dataset} "
                f"({profile_name}) speedup_vs_naive {cur_speedup:.2f}x "
                f"below floor {floor:.2f}x "
                f"(baseline {base_speedup:.2f}x, tolerance {tolerance:.0%})"
            )
    if compared == 0:
        failures.append(
            "bench gate compared zero rows — profile names disagree "
            "between the baseline and the current document?"
        )

    # adaptive-index advantage: quadtree-aG2 speedup over grid-aG2
    # speedup, within one run, compared to the baseline's advantage.
    # The advantage is a ratio of two independently gated ratios, so
    # its tolerance composes both rows' allowances (2x the per-row
    # tolerance) — otherwise +tol on one row and -tol on the other
    # would flake a check that carries no new regression signal.
    for profile_name in current.get("profiles", {}):
        for dataset in ADVANTAGE_DATASETS:
            values = []
            for rows in (base_rows, cur_rows):
                grid = rows.get((profile_name, "ag2", dataset))
                quad = rows.get((profile_name, "ag2_quadtree", dataset))
                if grid is None or quad is None:
                    values = []
                    break
                grid_speedup = grid["speedup_vs_naive"]
                quad_speedup = quad["speedup_vs_naive"]
                if not grid_speedup or not quad_speedup:
                    values = []
                    break
                values.append(quad_speedup / grid_speedup)
            if not values:
                continue
            base_adv, cur_adv = values
            floor = base_adv * (1.0 - 2.0 * tolerance)
            if cur_adv < floor:
                failures.append(
                    "adaptive-index advantage regression: "
                    f"ag2_quadtree/ag2 on {dataset} ({profile_name}) "
                    f"advantage {cur_adv:.2f}x below floor {floor:.2f}x "
                    f"(baseline {base_adv:.2f}x, tolerance "
                    f"{2.0 * tolerance:.0%})"
                )

    # multi-query scaling: only meaningful with real parallel hardware
    base_cpus = baseline.get("cpu_count", 1)
    cur_cpus = current.get("cpu_count", 1)
    if base_cpus >= 2 and cur_cpus >= 2:
        for profile_name, profile_doc in current.get("profiles", {}).items():
            mq = profile_doc.get("multi_query")
            base_profile = baseline.get("profiles", {}).get(profile_name, {})
            base_mq = base_profile.get("multi_query")
            if not mq or not base_mq:
                continue
            floor = base_mq["scaling"] * (1.0 - tolerance)
            if mq["scaling"] < floor:
                failures.append(
                    f"multi-query scaling regression ({profile_name}): "
                    f"{mq['scaling']:.2f}x below floor {floor:.2f}x "
                    f"(baseline {base_mq['scaling']:.2f}x on "
                    f"{base_cpus} cpus)"
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
        help="bench-mode: committed baseline JSON (e.g. BENCH_PR9.json)",
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
