#!/usr/bin/env python3
"""Run every committed soak scenario and write one JSON report each.

CI's ``soak-smoke`` and ``durability-smoke`` jobs run the committed
scenarios one by one; this script runs the same suite in one command —
registration order, reports dropped into an output directory, first
failure's verdicts printed, non-zero exit if any campaign breaches an
invariant.

Usage::

    PYTHONPATH=src python scripts/run_soak_suite.py --out soak-reports/
    PYTHONPATH=src python scripts/run_soak_suite.py --seed 1234
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.soak import list_scenarios, run_soak


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("soak-reports"),
        help="directory for per-scenario JSON reports",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every scenario's committed seed",
    )
    parser.add_argument(
        "--no-verify-checksum",
        action="store_true",
        help="disable checkpoint checksum verification (the "
        "crash_recovery campaign is expected to fail without it)",
    )
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    failed: list[str] = []
    for scenario in list_scenarios():
        report = run_soak(
            scenario,
            seed=args.seed,
            verify_checksum=not args.no_verify_checksum,
        )
        target = args.out / f"soak-{scenario.name}.json"
        target.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        verdict = "ok" if report.ok else "FAILED"
        print(f"{scenario.name:<16} {verdict:<7} -> {target}")
        if not report.ok:
            failed.append(scenario.name)
            for line in report.failures():
                print(f"  FAIL: {line}")
    if failed:
        print(f"{len(failed)} campaign(s) breached invariants: "
              f"{', '.join(failed)}")
        return 1
    print("all campaigns passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
