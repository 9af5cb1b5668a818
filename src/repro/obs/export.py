"""Export helpers: metric snapshots → JSON documents / CSV rows.

The CI perf gate and offline analysis both consume the same artefacts:
``snapshots_to_dict`` is the JSON shape, ``snapshot_rows`` the flat
relational shape.  Keeping them here (not in the CLI) lets tests assert
the round-trip without argv plumbing.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Mapping, Sequence

from repro.obs.metrics import MetricsSnapshot

__all__ = [
    "snapshots_to_dict",
    "snapshots_from_dict",
    "snapshot_rows",
    "write_metrics_json",
    "write_metrics_csv",
]


def snapshots_to_dict(
    snapshots: Mapping[str, MetricsSnapshot],
) -> dict[str, dict[str, object]]:
    """JSON-able mapping ``monitor name → snapshot dict``."""
    return {name: snap.to_dict() for name, snap in snapshots.items()}


def snapshots_from_dict(
    data: Mapping[str, Mapping[str, object]],
) -> dict[str, MetricsSnapshot]:
    """Inverse of :func:`snapshots_to_dict`."""
    return {
        name: MetricsSnapshot.from_dict(snap) for name, snap in data.items()
    }


def snapshot_rows(
    snapshots: Mapping[str, MetricsSnapshot],
) -> list[dict[str, object]]:
    """Flat relational rows: one per (monitor, instrument, value).

    Histogram summaries expand to one row per summary statistic
    (``update_ms.count``, ``update_ms.mean``, ...), so the CSV needs no
    nested encoding.
    """
    rows: list[dict[str, object]] = []
    for monitor, snap in snapshots.items():
        for name, value in snap.counters.items():
            rows.append(
                {"monitor": monitor, "kind": "counter",
                 "metric": name, "value": value}
            )
        for name, summary in snap.histograms.items():
            for stat, value in summary.items():
                rows.append(
                    {"monitor": monitor, "kind": "histogram",
                     "metric": f"{name}.{stat}", "value": value}
                )
    return rows


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
    snapshots: Mapping[str, MetricsSnapshot],
    fieldnames: Sequence[str] = ("monitor", "kind", "metric", "value"),
) -> None:
    """Write :func:`snapshot_rows` as CSV."""
    rows = snapshot_rows(snapshots)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, rows, fieldnames)
    else:
        _write_csv(target, rows, fieldnames)


def _write_csv(
    fh: IO[str],
    rows: list[dict[str, object]],
    fieldnames: Sequence[str],
) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
    writer.writeheader()
    writer.writerows(rows)
