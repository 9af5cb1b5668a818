"""Max-cover segment tree — the substrate of the plane-sweep algorithm,
kept as the Python reference of the compiled kernel's tree
(``repro/core/_sweep.c``: ``tree_add``, ``range_max``).

The plane sweep of Nandy & Bhattacharya [18] (the paper's
``Plane-Sweep``) maintains, while a horizontal line moves bottom-to-top,
the total weight covering each elementary x-interval.  This module
provides the required structure: a segment tree over ``n`` elementary
slots supporting

* ``add(lo, hi, delta)`` — add ``delta`` to every slot in ``[lo, hi]``,
* ``max_value`` / ``argmax`` — the best slot overall in O(1),
* ``range_max(lo, hi)`` — the best slot within a slot range,

all in O(log n).  Argmax ties resolve to the leftmost slot, which keeps
results deterministic across runs.

It was the hottest data structure of the pure-Python sweep — every
``Local-Plane-Sweep`` paid one ``add`` per rectangle edge — so the
implementation is tuned for CPython:

* **iterative, not recursive**: ``add`` locates the canonical nodes of
  the range with three descent loops (to the split node, then down each
  border), recording the partially-covered spine, and recomputes the
  spine bottom-up afterwards; ``range_max`` descends with an explicit
  stack.  No Python call frames per tree level.
* **shape-stable**: the node intervals are the classic recursive
  ``mid = (a + b) // 2`` splits.  Keeping this exact shape (rather than
  a padded power-of-two layout) keeps every floating-point sum
  associated the same way as the reference recursive implementation, so
  answers are bit-for-bit reproducible across versions.
* **reusable backing arrays**: :meth:`reset` re-initialises the tree
  for a new sweep without reallocating the three backing lists.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError

__all__ = ["MaxCoverSegmentTree"]

_NEG_INF = float("-inf")


class MaxCoverSegmentTree:
    """Segment tree over ``size`` slots with range-add and max/argmax.

    For every node ``_mx`` is the subtree max relative to the adds of
    its strict ancestors, ``_arg`` the leftmost slot attaining it, and
    ``_add`` the node's own pending range-add (never pushed down).
    """

    __slots__ = ("size", "_mx", "_arg", "_add")

    def __init__(self, size: int) -> None:
        self._mx: list[float] = []
        self._arg: list[int] = []
        self._add: list[float] = []
        self.reset(size)

    # -- construction ---------------------------------------------------

    def reset(self, size: int) -> None:
        """Re-initialise to ``size`` all-zero slots, reusing the backing
        arrays whenever the required capacity does not grow."""
        if size <= 0:
            raise InvalidParameterError(
                f"segment tree needs at least one slot, got {size}"
            )
        cap = 4 * size
        if cap > len(self._mx):
            self._mx = [0.0] * cap
            self._arg = [0] * cap
            self._add = [0.0] * cap
        else:
            self._mx[:cap] = [0.0] * cap
            self._add[:cap] = [0.0] * cap
        self.size = size
        # set argmax of every subtree to its leftmost slot (the interval
        # start); iterative DFS over the mid-split shape
        arg = self._arg
        stack = [(1, 0, size - 1)]
        pop = stack.pop
        push = stack.append
        while stack:
            nd, a, b = pop()
            arg[nd] = a
            if a != b:
                mid = (a + b) >> 1
                child = nd + nd
                push((child, a, mid))
                push((child + 1, mid + 1, b))

    # -- mutation ---------------------------------------------------------

    def add(self, lo: int, hi: int, delta: float) -> None:
        """Add ``delta`` to every slot in the inclusive range ``[lo, hi]``."""
        if lo < 0 or hi >= self.size or lo > hi:
            raise InvalidParameterError(
                f"slot range [{lo}, {hi}] out of bounds for size {self.size}"
            )
        mx = self._mx
        arg = self._arg
        adds = self._add
        # partially-covered nodes, in descent order; recomputed in
        # reverse (bottom-up) once every canonical node has its delta
        path: list[int] = []
        append = path.append
        node, a, b = 1, 0, self.size - 1
        # descend to the split node (range within one child), applying
        # the delta if a node becomes fully covered on the way
        while True:
            if lo <= a and b <= hi:
                mx[node] += delta
                adds[node] += delta
                break
            append(node)
            mid = (a + b) >> 1
            if hi <= mid:
                node += node
                b = mid
            elif lo > mid:
                node += node + 1
                a = mid + 1
            else:
                # split: walk the left border of [lo, mid] …
                n2 = node + node
                a2, b2 = a, mid
                while lo > a2:
                    append(n2)
                    m = (a2 + b2) >> 1
                    n2 += n2
                    if lo > m:
                        n2 += 1
                        a2 = m + 1
                    else:
                        # right child [m+1, b2] fully covered
                        rc = n2 + 1
                        mx[rc] += delta
                        adds[rc] += delta
                        b2 = m
                mx[n2] += delta
                adds[n2] += delta
                # … and the right border of [mid+1, hi]
                n3 = node + node + 1
                a3, b3 = mid + 1, b
                while hi < b3:
                    append(n3)
                    m = (a3 + b3) >> 1
                    n3 += n3
                    if hi <= m:
                        b3 = m
                    else:
                        # left child [a3, m] fully covered
                        mx[n3] += delta
                        adds[n3] += delta
                        n3 += 1
                        a3 = m + 1
                mx[n3] += delta
                adds[n3] += delta
                break
        # pull the max/arg up along the spine (children of a spine node
        # are final by the time it is recomputed)
        for node in reversed(path):
            child = node + node
            lmax = mx[child]
            rmax = mx[child + 1]
            lz = adds[node]
            if lmax >= rmax:  # leftmost tie-break
                mx[node] = lmax + lz
                arg[node] = arg[child]
            else:
                mx[node] = rmax + lz
                arg[node] = arg[child + 1]

    # -- queries ----------------------------------------------------------

    @property
    def max_value(self) -> float:
        """The maximum slot value over the whole tree."""
        return self._mx[1]

    @property
    def argmax(self) -> int:
        """The leftmost slot attaining :attr:`max_value`."""
        return self._arg[1]

    def peek(self) -> tuple[float, int]:
        """``(max_value, argmax)`` in one call — hot-loop convenience."""
        return self._mx[1], self._arg[1]

    def range_max(self, lo: int, hi: int) -> tuple[float, int]:
        """``(value, slot)`` of the best slot within ``[lo, hi]``."""
        if lo < 0 or hi >= self.size or lo > hi:
            raise InvalidParameterError(
                f"slot range [{lo}, {hi}] out of bounds for size {self.size}"
            )
        mx = self._mx
        arg = self._arg
        adds = self._add
        best = _NEG_INF
        best_arg = lo
        # explicit-stack descent, visiting segments left-to-right so the
        # strict `>` keeps the leftmost slot on ties
        stack = [(1, 0, self.size - 1, 0.0)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, a, b, acc = pop()
            if lo <= a and b <= hi:
                value = mx[node] + acc
                if value > best:
                    best = value
                    best_arg = arg[node]
                continue
            acc += adds[node]
            mid = (a + b) >> 1
            child = node + node
            # push right first so the left segment is processed first
            if hi > mid:
                push((child + 1, mid + 1, b, acc))
            if lo <= mid:
                push((child, a, mid, acc))
        return best, best_arg

    # -- debugging helpers -------------------------------------------------

    def to_list(self) -> list[float]:
        """Materialise all slot values (O(n log n); tests only)."""
        return [self.range_max(i, i)[0] for i in range(self.size)]
