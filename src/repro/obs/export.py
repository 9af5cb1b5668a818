"""Export helpers: metrics documents → JSON files / CSV rows.

``maxrs-stream profile`` and the other CLI commands write their
artefacts through these, so tests can assert the shapes without argv
plumbing.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Mapping, Sequence

__all__ = ["write_metrics_json", "write_metrics_csv"]


def write_metrics_json(
    target: str | IO[str], payload: Mapping[str, object]
) -> None:
    """Write any JSON-able metrics payload, sorted and indented."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(payload, target, indent=2, sort_keys=True)
        target.write("\n")


def write_metrics_csv(
    target: str | IO[str],
    rows: Sequence[Mapping[str, object]],
    fieldnames: Sequence[str] = ("monitor", "kind", "metric", "value"),
) -> None:
    """Write flat rows (one per monitor, kind, metric, value) as CSV."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, rows, fieldnames)
    else:
        _write_csv(target, rows, fieldnames)


def _write_csv(
    fh: IO[str],
    rows: Sequence[Mapping[str, object]],
    fieldnames: Sequence[str],
) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
    writer.writeheader()
    writer.writerows(rows)
