"""Gaussian-mixture hotspot workloads.

The paper's real GPS corpora (T-Drive, Geolife, Roma) are heavily
skewed: most objects cluster around hotspots (campuses, city centres,
arterial roads).  The property the evaluation exercises is exactly that
skew — it controls how many dual rectangles overlap, hence how much
work ``Local-Plane-Sweep`` does and how well the aG2 bounds prune.
:class:`HotspotMixtureStream` reproduces configurable skew with a
mixture of Gaussian clusters over a uniform background; the dataset
registry instantiates it with per-dataset profiles (DESIGN.md §3).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.objects import SpatialObject
from repro.errors import InvalidParameterError
from repro.streams.source import StreamSource

__all__ = ["Hotspot", "HotspotMixtureStream", "DriftingHotspotStream"]


@dataclass(frozen=True, slots=True)
class Hotspot:
    """One Gaussian cluster: centre (as a fraction of the domain),
    standard deviation (fraction of the domain) and mixture share."""

    cx: float
    cy: float
    sigma: float
    share: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise InvalidParameterError(
                f"hotspot centre must be in [0,1]², got ({self.cx}, {self.cy})"
            )
        if self.sigma <= 0:
            raise InvalidParameterError(
                f"hotspot sigma must be positive, got {self.sigma}"
            )
        if self.share <= 0:
            raise InvalidParameterError(
                f"hotspot share must be positive, got {self.share}"
            )


class HotspotMixtureStream(StreamSource):
    """Stream drawn from Gaussian hotspots plus a uniform background.

    Args:
        hotspots: Cluster definitions; shares are normalised together
            with ``background_share``.
        background_share: Relative share of uniform background objects.
        domain: Side length of the square monitoring space; samples are
            clamped into the domain (mass beyond 3-4σ is negligible and
            clamping mimics a city boundary).
        weight_max: Weights uniform in ``[0, weight_max]`` (0 → unit).
        seed: Private RNG seed.
        dt: Timestamp increment between objects.
    """

    def __init__(
        self,
        hotspots: Sequence[Hotspot],
        background_share: float = 0.1,
        domain: float = 1_000_000.0,
        weight_max: float = 1000.0,
        seed: int = 0,
        dt: float = 1.0,
    ) -> None:
        if not hotspots:
            raise InvalidParameterError("at least one hotspot is required")
        if background_share < 0:
            raise InvalidParameterError(
                f"background share must be >= 0, got {background_share}"
            )
        if domain <= 0:
            raise InvalidParameterError(f"domain must be positive, got {domain}")
        self.hotspots = tuple(hotspots)
        self.background_share = float(background_share)
        self.domain = float(domain)
        self.weight_max = float(weight_max)
        self.seed = seed
        self.dt = dt

    def __iter__(self) -> Iterator[SpatialObject]:
        rng = random.Random(self.seed)
        domain = self.domain
        wmax = self.weight_max
        total = self.background_share + sum(h.share for h in self.hotspots)
        # cumulative shares for roulette selection
        cumulative: list[tuple[float, Hotspot | None]] = []
        acc = 0.0
        for h in self.hotspots:
            acc += h.share / total
            cumulative.append((acc, h))
        cumulative.append((1.0, None))  # background
        t = 0.0
        while True:
            u = rng.random()
            chosen: Hotspot | None = None
            for bound, candidate in cumulative:
                if u <= bound:
                    chosen = candidate
                    break
            if chosen is None:
                x = rng.uniform(0.0, domain)
                y = rng.uniform(0.0, domain)
            else:
                x = rng.gauss(chosen.cx * domain, chosen.sigma * domain)
                y = rng.gauss(chosen.cy * domain, chosen.sigma * domain)
                x = min(max(x, 0.0), domain)
                y = min(max(y, 0.0), domain)
            weight = rng.uniform(0.0, wmax) if wmax > 0 else 1.0
            yield SpatialObject(x=x, y=y, weight=weight, timestamp=t)
            t += self.dt


class DriftingHotspotStream(StreamSource):
    """Hotspots whose centres orbit their base positions over time.

    The mass concentration does not sit still, so the dense grid cells
    that dominate an aG2 update move with it: a cell crowded one
    period is sparse the next.

    Each hotspot's centre traces a circle of radius ``drift_radius``
    (a fraction of the domain) around its base position, completing one
    revolution every ``period`` objects; hotspots are phase-shifted so
    they do not move in lockstep.  Sampling is otherwise identical to
    :class:`HotspotMixtureStream` (roulette hotspot selection, Gaussian
    scatter, clamped to the domain, uniform background).

    Args:
        hotspots: Base cluster definitions (see :class:`Hotspot`).
        drift_radius: Orbit radius as a fraction of the domain.
        period: Objects per full revolution (must be positive).
        background_share: Relative share of uniform background objects.
        domain: Side length of the square monitoring space.
        weight_max: Weights uniform in ``[0, weight_max]`` (0 → unit).
        seed: Private RNG seed.
        dt: Timestamp increment between objects.
    """

    def __init__(
        self,
        hotspots: Sequence[Hotspot],
        drift_radius: float = 0.2,
        period: int = 10_000,
        background_share: float = 0.1,
        domain: float = 1_000_000.0,
        weight_max: float = 1000.0,
        seed: int = 0,
        dt: float = 1.0,
    ) -> None:
        if not hotspots:
            raise InvalidParameterError("at least one hotspot is required")
        if drift_radius < 0:
            raise InvalidParameterError(
                f"drift radius must be >= 0, got {drift_radius}"
            )
        if period <= 0:
            raise InvalidParameterError(
                f"drift period must be positive, got {period}"
            )
        if background_share < 0:
            raise InvalidParameterError(
                f"background share must be >= 0, got {background_share}"
            )
        if domain <= 0:
            raise InvalidParameterError(f"domain must be positive, got {domain}")
        self.hotspots = tuple(hotspots)
        self.drift_radius = float(drift_radius)
        self.period = int(period)
        self.background_share = float(background_share)
        self.domain = float(domain)
        self.weight_max = float(weight_max)
        self.seed = seed
        self.dt = dt

    def __iter__(self) -> Iterator[SpatialObject]:
        rng = random.Random(self.seed)
        domain = self.domain
        wmax = self.weight_max
        radius = self.drift_radius * domain
        omega = 2.0 * math.pi / self.period
        total = self.background_share + sum(h.share for h in self.hotspots)
        cumulative: list[tuple[float, int]] = []
        acc = 0.0
        for idx, h in enumerate(self.hotspots):
            acc += h.share / total
            cumulative.append((acc, idx))
        cumulative.append((1.0, -1))  # background
        # phase-shift hotspots evenly around the circle
        n = len(self.hotspots)
        phases = [2.0 * math.pi * i / n for i in range(n)]
        t = 0.0
        step = 0
        while True:
            u = rng.random()
            chosen = -1
            for bound, idx in cumulative:
                if u <= bound:
                    chosen = idx
                    break
            if chosen < 0:
                x = rng.uniform(0.0, domain)
                y = rng.uniform(0.0, domain)
            else:
                h = self.hotspots[chosen]
                angle = omega * step + phases[chosen]
                cx = h.cx * domain + radius * math.cos(angle)
                cy = h.cy * domain + radius * math.sin(angle)
                x = rng.gauss(cx, h.sigma * domain)
                y = rng.gauss(cy, h.sigma * domain)
                x = min(max(x, 0.0), domain)
                y = min(max(y, 0.0), domain)
            weight = rng.uniform(0.0, wmax) if wmax > 0 else 1.0
            yield SpatialObject(x=x, y=y, weight=weight, timestamp=t)
            t += self.dt
            step += 1
