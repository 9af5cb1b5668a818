"""Workload profiles standing in for the paper's evaluation datasets.

Each profile instantiates a generator whose *spatial skew* reproduces
the corresponding corpus' behaviour in the paper's figures (DESIGN.md
§3): uniform Synthetic is the easiest workload, the Geolife stand-in —
a few very tight campus-like hotspots — is by far the hardest, with the
taxi-fleet T-Drive and Roma stand-ins in between (Roma more centrally
concentrated than T-Drive).  Weights are uniform ``[0, 1000]`` as in
§7.1.
"""

from __future__ import annotations

import random

from repro.streams.mixture import (
    DriftingHotspotStream,
    Hotspot,
    HotspotMixtureStream,
)
from repro.streams.source import StreamSource
from repro.streams.synthetic import UniformStream
from repro.streams.trajectory import TrajectoryFleetStream

__all__ = [
    "DATASET_NAMES",
    "make_synthetic",
    "make_tdrive_like",
    "make_geolife_like",
    "make_roma_like",
    "make_hotspot_static",
    "make_hotspot_drift",
    "make_powerlaw_cities",
]

DATASET_NAMES = (
    "synthetic",
    "tdrive_like",
    "geolife_like",
    "roma_like",
    "hotspot_static",
    "hotspot_drift",
    "powerlaw_cities",
)


def make_synthetic(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Uniform i.i.d. objects — the paper's Synthetic dataset."""
    return UniformStream(domain=domain, weight_max=weight_max, seed=seed)


def make_tdrive_like(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Beijing-taxi stand-in: a vehicle fleet roaming a 3×3 grid of
    moderate attractors (arterial intersections), mild skew."""
    centres = [0.2, 0.5, 0.8]
    hotspots = [
        Hotspot(cx=cx, cy=cy, sigma=0.05, share=1.0)
        for cx in centres
        for cy in centres
    ]
    return TrajectoryFleetStream(
        vehicles=250,
        hotspots=hotspots,
        hotspot_bias=0.6,
        speed=0.012,
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )


def make_geolife_like(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Geolife stand-in: extreme campus-style concentration — a couple
    of very tight hotspots hold most of the stream.  The paper's
    hardest dataset; almost every rectangle in a hotspot overlaps."""
    hotspots = [
        Hotspot(cx=0.42, cy=0.58, sigma=0.025, share=0.45),
        Hotspot(cx=0.46, cy=0.55, sigma=0.030, share=0.30),
        Hotspot(cx=0.70, cy=0.30, sigma=0.040, share=0.15),
    ]
    return HotspotMixtureStream(
        hotspots=hotspots,
        background_share=0.10,
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )


def make_roma_like(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Rome-taxi stand-in: one dominant historic-centre cluster with a
    ring of secondary destinations; strong but not Geolife-extreme."""
    ring = [
        (0.35, 0.50),
        (0.50, 0.70),
        (0.65, 0.50),
        (0.50, 0.30),
        (0.62, 0.66),
        (0.38, 0.34),
    ]
    hotspots = [Hotspot(cx=0.5, cy=0.5, sigma=0.045, share=0.50)] + [
        Hotspot(cx=cx, cy=cy, sigma=0.030, share=0.06) for cx, cy in ring
    ]
    return HotspotMixtureStream(
        hotspots=hotspots,
        background_share=0.14,
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )


def make_hotspot_static(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Single stationary Gaussian hotspot holding ~90% of the stream.

    The purest skew stress: a uniform grid funnels nearly everything
    into a handful of cells, whose overlap graphs and local sweeps then
    dominate every aG2 update.
    """
    return HotspotMixtureStream(
        hotspots=[Hotspot(cx=0.5, cy=0.5, sigma=0.02, share=0.9)],
        background_share=0.10,
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )


def make_hotspot_drift(
    domain: float, seed: int = 0, weight_max: float = 1000.0
) -> StreamSource:
    """Two tight hotspots orbiting the domain centre.

    The dense cells move with the mass, so aG2's expensive cells change
    over time instead of staying put as on :func:`make_hotspot_static`.
    """
    return DriftingHotspotStream(
        hotspots=[
            Hotspot(cx=0.35, cy=0.50, sigma=0.02, share=0.5),
            Hotspot(cx=0.65, cy=0.50, sigma=0.02, share=0.4),
        ],
        drift_radius=0.18,
        period=6_000,
        background_share=0.10,
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )


def make_powerlaw_cities(
    domain: float,
    seed: int = 0,
    weight_max: float = 1000.0,
    cities: int = 12,
    alpha: float = 1.2,
) -> StreamSource:
    """Zipf-distributed city system: many hotspots, power-law shares.

    City ``i`` (1-based by rank) receives share ``i**-alpha`` — a few
    dominant metros plus a long tail of small towns, the classic urban
    population law.  Positions are seeded-random, so different seeds
    give different maps but the same skew profile.  Unlike the
    single-hotspot workloads this one mixes densities at once: a few
    crowded grid cells in the metros, sparse ones in the tail.
    """
    placer = random.Random(seed ^ 0x5EED)
    hotspots = [
        Hotspot(
            cx=placer.uniform(0.1, 0.9),
            cy=placer.uniform(0.1, 0.9),
            # bigger cities sprawl a little wider
            sigma=0.015 + 0.02 * (rank + 1) ** -0.5,
            share=(rank + 1) ** -alpha,
        )
        for rank in range(cities)
    ]
    return HotspotMixtureStream(
        hotspots=hotspots,
        background_share=0.05 * sum(h.share for h in hotspots),
        domain=domain,
        weight_max=weight_max,
        seed=seed,
    )
