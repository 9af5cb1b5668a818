"""Sampling-based approximate MaxRS — the comparator of Tao et al. [25].

The paper's §7.4 explains why the randomised-sampling algorithm of
[25] was *not* benchmarked against the aG2 approximate monitor: its
answer differs run to run, it bounds the error only with high
probability (``1 − 1/n``), and repeating a one-time computation per
batch is exactly the non-incremental pattern Figures 7–9 show to be
slow.  We implement the algorithm in its spirit so the comparison can
actually be made: uniform object sampling, an exact plane sweep on the
sample, and Horvitz–Thompson weight scaling.

This is an *estimator*: the returned region is an exact optimum **of
the sample** and the returned weight is an unbiased estimate of that
region's true weight.  Unlike :class:`~repro.core.ag2.AG2Monitor` with
``epsilon``, there is no deterministic floor — tests and the ablation
benchmark demonstrate both the variance and the monitoring cost.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Sequence

from repro.core.geometry import Rect
from repro.core.monitor import MaxRSMonitor
from repro.core.objects import WeightedRect, dual_rect
from repro.core.planesweep import _sweep_flat, plane_sweep_max
from repro.core.spaces import MaxRSResult, Region
from repro.errors import InvalidParameterError
from repro.window.base import SlidingWindow, WindowUpdate

__all__ = ["sample_maxrs", "suggested_sample_size", "SamplingMonitor"]


def suggested_sample_size(n: int, epsilon: float) -> int:
    """Sample size in the spirit of [25]: ``O(log n / ε²)``, clamped
    to ``[1, n]``.  With this size the relative error of the density
    estimate concentrates below ε with probability ``1 − 1/n`` for the
    regimes the paper considers (dense optima)."""
    if n <= 0:
        return 0
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(
            f"epsilon must be in (0, 1), got {epsilon}"
        )
    size = math.ceil(4.0 * math.log(max(n, 2)) / (epsilon * epsilon))
    return max(1, min(n, size))


def sample_maxrs(
    rects: Sequence[WeightedRect],
    sample_size: int,
    rng: random.Random,
) -> Region | None:
    """One-shot sampled MaxRS.

    Draws ``sample_size`` rectangles without replacement, solves the
    sample exactly, and scales the weight by ``n / sample_size``
    (Horvitz–Thompson).  Returns ``None`` on an empty input.
    """
    n = len(rects)
    if n == 0:
        return None
    if sample_size <= 0:
        raise InvalidParameterError(
            f"sample size must be positive, got {sample_size}"
        )
    if sample_size >= n:
        return plane_sweep_max(rects)
    sample = rng.sample(list(rects), sample_size)
    region = plane_sweep_max(sample)
    if region is None:
        return None
    scale = n / sample_size
    return Region(rect=region.rect, weight=region.weight * scale)


class SamplingMonitor(MaxRSMonitor):
    """Monitoring by repeated one-time sampled computation.

    This is the pattern the paper argues against: every batch triggers
    a fresh sample and a fresh sweep, so there is no incrementality and
    no run-to-run stability.  Exists as the [25] comparator for the
    approximation ablation benchmark.

    Args:
        epsilon: Target error used to derive the sample size.
        seed: Private RNG seed (answers still vary batch to batch
            because each batch draws a fresh sample).
    """

    def __init__(
        self,
        rect_width: float,
        rect_height: float,
        window: SlidingWindow,
        epsilon: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__(rect_width, rect_height, window)
        if not (0.0 < epsilon < 1.0):
            raise InvalidParameterError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        self.epsilon = epsilon
        self._rng = random.Random(seed)

    def _on_delta(self, delta: WindowUpdate) -> None:
        # rectangles are built for the sample only, at answer time; an
        # arrival whose dual rectangle has a bound that is not finite
        # still fails here, as the dual transform would
        hw = self.rect_width / 2.0
        hh = self.rect_height / 2.0
        for obj in delta.arrived:
            x = obj.x
            y = obj.y
            if not (
                math.isfinite(x - hw) and math.isfinite(x + hw)
                and math.isfinite(y - hh) and math.isfinite(y + hh)
            ):
                dual_rect(obj, self.rect_width, self.rect_height)

    def _compute_result(self, tick: int) -> MaxRSResult:
        # sampling gives no deterministic weight floor (only the
        # probabilistic 1-1/n bound), so the contract says guarantee 0
        objs = self.window.contents
        n = len(objs)
        if not n:
            return MaxRSResult(
                tick=tick, window_size=0, mode="sampling", guarantee=0.0
            )
        self.stats.full_sweeps += 1
        # sample_maxrs over the window, drawing the same sample, but
        # building only the sampled rectangles, as flat sweep items
        size = suggested_sample_size(n, self.epsilon)
        chosen = objs if size >= n else self._rng.sample(objs, size)
        hw = self.rect_width / 2.0
        hh = self.rect_height / 2.0
        cell = _sweep_flat(array("d", [
            v for o in chosen
            for v in (o.x - hw, o.y - hh, o.x + hw, o.y + hh, o.weight)
        ]))
        region = None
        if cell is not None:
            w, x1, y1, x2, y2 = cell
            region = Region(
                rect=Rect(x1, y1, x2, y2),
                weight=w if size >= n else w * (n / size),
            )
        return MaxRSResult.single(
            region,
            tick=tick,
            window_size=n,
            mode="sampling",
            guarantee=0.0,
        )
