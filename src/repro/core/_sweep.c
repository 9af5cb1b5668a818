/*
 * Compiled max-cover plane sweep (see repro/core/planesweep.py).
 *
 * A port of three pieces of Python: planesweep._prepare (slot
 * coordinates and the (y, kind, seq)-ordered event list),
 * MaxCoverSegmentTree.add (the iterative mid-split range add) and the
 * max-only group loop of planesweep._sweep_python.  The tree add and the
 * group loop are line for line; the two sorts reach Python's order with
 * one stable index sort.  It returns the same answer as the Python tree
 * bit for bit:
 *
 *   - x coordinates are de-duplicated after a stable sort (ties broken
 *     by input index), so among equal values such as -0.0 and 0.0 the
 *     first one in input order names the slot, as in Python;
 *   - events are ordered by (y, kind, seq), removals first at equal y;
 *   - the tree has the same mid = (a + b) >> 1 node shape, so every sum
 *     is associated the same way, and the same `lmax >= rmax` leftmost
 *     tie-break;
 *   - it is built with -O2 -ffp-contract=off and no fast-math, so each
 *     IEEE double add rounds exactly as CPython's float add does.
 *
 * Input: n items of 5 doubles each, (x1, y1, x2, y2, weight).  Output:
 * (weight, x1, y1, x2, y2) of a maximum-weight arrangement cell.
 * Returns 1 when found, 0 when no item has positive area, -1 when out
 * of memory.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* tree depth <= 64, and add() records at most three chains of nodes */
#define MAX_PATH (3 * 64)

/*
 * Stable sort of the indices 0..m-1 by key[index]: ties keep their
 * input order, as Python's list.sort does.  Insertion-sorted runs of
 * RUN, then bottom-up merges between the two buffers; returns the one
 * holding the result.
 */
#define RUN 16

static long *stable_sort(long *ord, long *tmp, const double *key, long m)
{
    for (long i = 0; i < m; i++)
        ord[i] = i;
    for (long lo = 0; lo < m; lo += RUN) {
        long hi = lo + RUN < m ? lo + RUN : m;
        for (long i = lo + 1; i < hi; i++) {
            long v = ord[i];
            long j = i;
            while (j > lo && key[v] < key[ord[j - 1]]) {
                ord[j] = ord[j - 1];
                j--;
            }
            ord[j] = v;
        }
    }
    for (long width = RUN; width < m; width += width) {
        for (long lo = 0; lo < m; lo += 2 * width) {
            long mid = lo + width < m ? lo + width : m;
            long hi = mid + width < m ? mid + width : m;
            long i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = key[ord[j]] < key[ord[i]] ? ord[j++] : ord[i++];
            while (i < mid)
                tmp[k++] = ord[i++];
            while (j < hi)
                tmp[k++] = ord[j++];
        }
        long *swap = ord;
        ord = tmp;
        tmp = swap;
    }
    return ord;
}

typedef struct {
    long size;
    double *mx;
    double *add;
    long *arg;
} tree;

/* arg of every subtree = its leftmost slot (MaxCoverSegmentTree.reset) */
static void init_arg(long *arg, long node, long a, long b)
{
    while (1) {
        arg[node] = a;
        if (a == b)
            return;
        long mid = (a + b) >> 1;
        init_arg(arg, node + node, a, mid);
        node = node + node + 1;
        a = mid + 1;
    }
}

/* MaxCoverSegmentTree.add; path holds the partially covered spine,
 * recomputed bottom-up once every canonical node has its delta */
static void tree_add(tree *t, long lo, long hi, double delta)
{
    long path[MAX_PATH];
    double *mx = t->mx;
    double *adds = t->add;
    long *arg = t->arg;
    long np = 0;
    long node = 1, a = 0, b = t->size - 1;
    while (1) {
        if (lo <= a && b <= hi) {
            mx[node] += delta;
            adds[node] += delta;
            break;
        }
        path[np++] = node;
        long mid = (a + b) >> 1;
        if (hi <= mid) {
            node += node;
            b = mid;
        } else if (lo > mid) {
            node += node + 1;
            a = mid + 1;
        } else {
            long n2 = node + node;
            long a2 = a, b2 = mid;
            while (lo > a2) {
                path[np++] = n2;
                long m = (a2 + b2) >> 1;
                n2 += n2;
                if (lo > m) {
                    n2 += 1;
                    a2 = m + 1;
                } else {
                    long rc = n2 + 1;
                    mx[rc] += delta;
                    adds[rc] += delta;
                    b2 = m;
                }
            }
            mx[n2] += delta;
            adds[n2] += delta;
            long n3 = node + node + 1;
            long a3 = mid + 1, b3 = b;
            while (hi < b3) {
                path[np++] = n3;
                long m = (a3 + b3) >> 1;
                n3 += n3;
                if (hi <= m) {
                    b3 = m;
                } else {
                    mx[n3] += delta;
                    adds[n3] += delta;
                    n3 += 1;
                    a3 = m + 1;
                }
            }
            mx[n3] += delta;
            adds[n3] += delta;
            break;
        }
    }
    while (np > 0) {
        node = path[--np];
        long child = node + node;
        double lmax = mx[child];
        double rmax = mx[child + 1];
        double lz = adds[node];
        if (lmax >= rmax) {
            mx[node] = lmax + lz;
            arg[node] = arg[child];
        } else {
            mx[node] = rmax + lz;
            arg[node] = arg[child + 1];
        }
    }
}

int maxrs_sweep(const double *items, long n, double *out)
{
    long m = 2 * n;
    long cap = 4 * (m > 2 ? m - 1 : 1); /* tree nodes for up to m - 1 slots */
    /* one block: sort keys, x slots, tree values, then the index arrays */
    double *key = malloc((size_t)(2 * m + 2 * cap) * sizeof(double)
                         + (size_t)(3 * m + n + cap) * sizeof(long));
    if (key == NULL)
        return -1;
    double *xs = key + m;
    double *mx = xs + m;
    double *adds = mx + cap;
    long *ord = (long *)(adds + cap);
    long *tmp = ord + m;
    long *slot_of = tmp + m;
    long *live = slot_of + m;
    long *arg = live + n;

    /* _prepare: live items and their x coordinates, in input order */
    long nlive = 0;
    for (long i = 0; i < n; i++) {
        const double *r = items + 5 * i;
        if (r[0] == r[2] || r[1] == r[3])
            continue; /* degenerate: empty interior */
        key[2 * nlive] = r[0];
        key[2 * nlive + 1] = r[2];
        live[nlive++] = i;
    }
    if (nlive == 0) {
        free(key);
        return 0;
    }
    long *sorted = stable_sort(ord, tmp, key, 2 * nlive);
    long nxs = 0;
    double prev = key[sorted[0]];
    xs[nxs++] = prev;
    for (long p = 0; p < 2 * nlive; p++) {
        double x = key[sorted[p]];
        if (x != prev) {
            prev = x;
            xs[nxs++] = x;
        }
        slot_of[sorted[p]] = nxs - 1;
    }
    /* events: removal of live item k at k, its insertion at nlive + k,
     * so a stable sort by y orders them by (y, kind, seq) */
    for (long k = 0; k < nlive; k++) {
        const double *r = items + 5 * live[k];
        key[k] = r[3];
        key[nlive + k] = r[1];
    }
    long ne = 2 * nlive;
    long *events = stable_sort(ord, tmp, key, ne);

    /* MaxCoverSegmentTree(max(1, len(xs) - 1)) */
    tree t = {nxs > 1 ? nxs - 1 : 1, mx, adds, arg};
    memset(mx, 0, (size_t)(4 * t.size) * sizeof *mx);
    memset(adds, 0, (size_t)(4 * t.size) * sizeof *adds);
    init_arg(arg, 1, 0, t.size - 1);

    /* the max-only group loop */
    int found = 0;
    double best_w = -HUGE_VAL, best_y = 0.0, best_y_next = 0.0;
    long best_slot = 0;
    long i = 0;
    while (i < ne) {
        double y = key[events[i]];
        int inserted = 0;
        while (i < ne && key[events[i]] == y) {
            long e = events[i];
            long k = e < nlive ? e : e - nlive;
            long lo = slot_of[2 * k];
            long hi = slot_of[2 * k + 1] - 1;
            double w = items[5 * live[k] + 4];
            if (e >= nlive) {
                tree_add(&t, lo, hi, w);
                inserted = 1;
            } else {
                tree_add(&t, lo, hi, -w);
            }
            i++;
        }
        if (inserted && i < ne) {
            double value = mx[1];
            if (value > best_w) {
                found = 1;
                best_w = value;
                best_slot = arg[1];
                best_y = y;
                best_y_next = key[events[i]];
            }
        }
    }
    if (found) {
        out[0] = best_w;
        out[1] = xs[best_slot];
        out[2] = best_y;
        out[3] = xs[best_slot + 1];
        out[4] = best_y_next;
    }
    free(key);
    return found;
}
