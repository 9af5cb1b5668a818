"""Algorithm 5 — upper-bound tightening (paper §5.3, Table 5 ablation).

Before paying for a ``Local-Plane-Sweep`` on a vertex whose Equation-(3)
bound exceeds the pruning threshold, Algorithm 5 tries to *derive a
smaller but still valid* bound from the geometry of the neighbours
added since the last exact computation (``R(ri)``, the vertex's
neighbours past its sweep watermark, ``Vertex.fresh``):

* a new neighbour overlapping the current exact space ``si`` must be
  charged in full (it can extend the known-best space),
* a new neighbour that misses ``si`` can only matter through a space
  built around itself, which is bounded by ``ri.w + r.w`` plus the
  neighbours it overlaps — often far less than charging ``r.w``
  blindly.

The derived ``τ`` is a valid upper bound on the true ``si`` (each step
bounds both the spaces that involve the new neighbour and those that do
not), so plugging it into the branch-and-bound never harms correctness.
The paper's §5.3 analysis — and our Table 5 reproduction — shows it
costs O(|R(ri)|·|N(ri)|), which does not pay for itself; it is shipped
for the ablation and disabled by default.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.graph import Vertex
from repro.errors import InvalidParameterError

__all__ = ["tighten_upper_bound", "conditional_tightener", "make_tightener"]


def tighten_upper_bound(v: Vertex, threshold: float) -> float:
    """Algorithm 5: a tightened upper bound on the vertex's true ``si``.

    Processes ``R(ri) = v.fresh`` incrementally;
    returns early (with the bound computed so far) as soon as the bound
    exceeds ``threshold``, because the caller will have to sweep anyway.
    """
    graph = v.graph
    i = v.index
    mark = graph.marks[i]
    seqs = graph.seqs
    hits = graph.neighbor_indices(i)
    if not hits or seqs[hits[-1]] <= mark:  # R(ri) is empty
        return v.upper
    tau = v.space.weight
    if tau > threshold:
        return v.upper
    si_rect = v.space.rect
    anchor = v.wr
    # N(ri) is built once, so R(ri) holds the very same objects
    all_neighbors = [graph.wr(j) for j in hits]
    fresh = [r for j, r in zip(hits, all_neighbors) if seqs[j] > mark]
    for r in fresh:
        if r.rect.overlaps(si_rect):
            # r can extend the known-best space: charge it in full
            tau += r.weight
            if tau > threshold:
                return tau
        else:
            # r only matters via a space around r itself, bounded by
            # the anchor, r, and the neighbours r overlaps
            rho = r.weight + anchor.weight
            for other in all_neighbors:
                if other is r:
                    continue
                if r.rect.overlaps(other.rect):
                    rho += other.weight
            if tau < rho:
                tau = min(tau + r.weight, rho)
                if tau > threshold:
                    return tau
    return tau


def conditional_tightener(v: Vertex, threshold: float) -> float:
    """Algorithm 5 gated by the paper's cost condition.

    Tightening costs O(|R(ri)|·|N(ri)|) while the sweep it hopes to
    avoid costs ~2·|N(ri)|·log₂|N(ri)| operations; run it only when the
    former is smaller (i.e. ``|R(ri)| < 2·log₂|N(ri)|``).
    """
    degree = len(v.neighbors)
    fresh_count = len(v.fresh)
    if degree < 2 or fresh_count >= 2.0 * math.log2(degree):
        return v.upper
    return tighten_upper_bound(v, threshold)


def make_tightener(
    mode: str,
) -> Callable[[Vertex, float], float] | None:
    """Factory used by benchmarks: ``"off"`` → None, ``"always"`` →
    Algorithm 5, ``"conditional"`` → Algorithm 5 with the cost gate."""
    if mode == "off":
        return None
    if mode == "always":
        return tighten_upper_bound
    if mode == "conditional":
        return conditional_tightener
    raise InvalidParameterError(
        f"unknown tightener mode {mode!r}; expected off/always/conditional"
    )
