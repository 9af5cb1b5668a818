#!/usr/bin/env python3
"""Operations dashboard: several continuous queries, change alerts,
and crash recovery — the serving-layer features around the core paper.

One city-wide GPS stream feeds three continuous MaxRS queries at once
(the paper's §8 future-work scenario):

* ``district``  — where should a 5km mobile service hub go?
* ``block``     — which 500m block is hottest right now?
* ``top3``      — the three busiest distinct blocks (top-k).

One :class:`StreamEngine` fans every batch out to the three monitors.
A :class:`ResultRecorder` turns the block query into an alert feed
(only report when the hotspot actually moves), and the block query is
checkpointed to disk and the engine rebuilt from the checkpoint —
simulating a process restart without losing the window.

Run:  python examples/multi_query_dashboard.py
"""

import tempfile
from pathlib import Path

from repro import AG2Monitor, CountWindow, TopKAG2Monitor
from repro.engine import ResultRecorder, StreamEngine
from repro.resilience import CheckpointManager
from repro.streams import Hotspot, HotspotMixtureStream, batches

CITY = 30_000.0
BATCH = 100

STREAM = HotspotMixtureStream(
    hotspots=[
        Hotspot(cx=0.3, cy=0.3, sigma=0.03, share=1.0),
        Hotspot(cx=0.7, cy=0.6, sigma=0.04, share=0.8),
    ],
    background_share=0.4,
    domain=CITY,
    weight_max=10.0,
    seed=17,
)


def main() -> None:
    monitors = {
        "district": AG2Monitor(5000.0, 5000.0, CountWindow(2000)),
        "block": AG2Monitor(500.0, 500.0, CountWindow(2000)),
        "top3": TopKAG2Monitor(500.0, 500.0, CountWindow(2000), k=3),
    }
    engine = StreamEngine(monitors, [], BATCH)

    alerts = ResultRecorder(move_threshold=1000.0, weight_threshold=0.5)
    def announce(change) -> None:
        if change.previous is None:
            print(f"  ALERT tick {change.tick}: first hot block detected")
        elif change.moved_distance > alerts.move_threshold:
            print(
                f"  ALERT tick {change.tick}: hot block moved "
                f"{change.moved_distance:,.0f} m"
            )
        else:
            print(
                f"  ALERT tick {change.tick}: hot block intensity changed "
                f"{change.weight_ratio:+.0%}"
            )

    alerts.on_change(announce)

    for tick, batch in enumerate(batches(STREAM, BATCH)):
        results = engine.process(batch)
        alerts.record(results["block"])
        if tick % 10 == 0:
            district = results["district"].best
            blocks = results["top3"].regions
            print(
                f"tick {tick:>3}: district hub weight={district.weight:,.0f} "
                + "| top blocks: "
                + ", ".join(f"{r.weight:,.0f}" for r in blocks)
            )
        if tick == 20:
            # simulate a restart: checkpoint the block query, drop the
            # engine, rebuild it with the block query read back from disk
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "block.ckpt.json"
                CheckpointManager(monitors["block"], path).checkpoint()
                monitors["block"], _ = CheckpointManager.load(path)
            engine = StreamEngine(monitors, [], BATCH)
            print("  (block query checkpointed and the engine rebuilt from it)")
        if tick >= 40:
            break

    print(
        f"\nblock hotspot stability: {alerts.stability():.0%} of updates "
        f"left the answer in place ({alerts.change_count} changes)"
    )


if __name__ == "__main__":
    main()
