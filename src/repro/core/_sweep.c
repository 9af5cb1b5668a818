/*
 * Compiled max-cover plane sweep and the aG2 cell-buffer scans (see
 * repro/core/planesweep.py and repro/core/graph.py).
 *
 * maxrs_sweep is a port of three pieces of Python: planesweep._prepare
 * (slot coordinates and the (y, kind, seq)-ordered event list),
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
 *
 * maxrs_connect, maxrs_insert, maxrs_local, maxrs_max and maxrs_above
 * work on one graph cell's arrival-ordered buffer of the same 5-double
 * items and on its bounds; they port the Python of
 * planesweep._scan_python, _insert_python, _local_python, _max_flat and
 * _above_flat.  Their comparisons are
 * exact, the bound adds run in index order and clipping is a min/max,
 * so they too match the Python bit for bit.
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

/* Rect.overlaps: both rectangles have positive area and their
 * interiors meet (shared edges and corners do not count) */
static int overlaps(const double *a, const double *b)
{
    return a[0] != a[2] && a[1] != a[3] && b[0] != b[2] && b[1] != b[3]
           && b[0] < a[2] && a[0] < b[2] && b[1] < a[3] && a[1] < b[3];
}

/*
 * Every item j in [lo, hi), in index order, whose rectangle overlaps
 * item q's: when upper is not NULL, upper[j] += weight of q and
 * dirty[j] = 1 (CellGraph.connect, Equation 3); when hits is not NULL,
 * hits[k] = j for the k-th such item.  Returns the number of items.
 */
long maxrs_connect(const double *items, long q, long lo, long hi,
                   double *upper, signed char *dirty, long *hits)
{
    const double *a = items + 5 * q;
    double w = a[4];
    long k = 0;
    for (long j = lo; j < hi; j++) {
        if (!overlaps(a, items + 5 * j))
            continue;
        if (upper != NULL) {
            upper[j] += w;
            dirty[j] = 1;
        }
        if (hits != NULL)
            hits[k] = j;
        k++;
    }
    return k;
}

/*
 * CellGraph.connect of a whole pending set: m new rectangles, the rows
 * seqs[k] - base of the arrival table, become items n .. n + m - 1 of
 * the cell buffer, each with bound and exact weight = its own weight
 * (upper, exact and dirty are already extended, dirty with zeros).
 * Then, for each new item in arrival order, maxrs_connect adds its
 * weight to every older overlapping item in [head, n + k), so every
 * bound receives its adds in the order one-at-a-time inserts made them.
 * When hits is not NULL the touched indices of all edges are stored
 * there, one after another.  Returns the number of edges made.
 */
long maxrs_insert(const double *table, long base, const long *seqs, long m,
                  double *items, long head, long n, double *upper,
                  double *exact, signed char *dirty, long *hits)
{
    for (long k = 0; k < m; k++) {
        const double *r = table + 5 * (seqs[k] - base);
        memcpy(items + 5 * (n + k), r, 5 * sizeof(double));
        upper[n + k] = r[4];
        exact[n + k] = r[4];
    }
    long edges = 0;
    for (long k = 0; k < m; k++)
        edges += maxrs_connect(items, n + k, head, n + k, upper, dirty,
                               hits == NULL ? NULL : hits + edges);
    return edges;
}

/*
 * Local-Plane-Sweep of item i over its neighbours N(ri): the items j in
 * (i, n) that overlap it.  Gathers item i, then each neighbour clipped
 * to it, in index order, and sweeps them with maxrs_sweep.  Returns
 * maxrs_sweep's answer, or 0 without sweeping when item i has no
 * neighbour.
 */
int maxrs_local(const double *items, long i, long n, double *out)
{
    const double *a = items + 5 * i;
    double *buf = malloc((size_t)(5 * (n - i)) * sizeof(double));
    if (buf == NULL)
        return -1;
    memcpy(buf, a, 5 * sizeof(double));
    long m = 1;
    for (long j = i + 1; j < n; j++) {
        const double *r = items + 5 * j;
        if (!overlaps(a, r))
            continue;
        double x1 = r[0] > a[0] ? r[0] : a[0];
        double y1 = r[1] > a[1] ? r[1] : a[1];
        double x2 = r[2] < a[2] ? r[2] : a[2];
        double y2 = r[3] < a[3] ? r[3] : a[3];
        if (x1 < x2 && y1 < y2) {
            double *c = buf + 5 * m++;
            c[0] = x1;
            c[1] = y1;
            c[2] = x2;
            c[3] = y2;
            c[4] = r[4];
        }
    }
    int found = m > 1 ? maxrs_sweep(buf, m, out) : 0;
    free(buf);
    return found;
}

/* max() over values[0..n-1]: the first of equal maxima, 0.0 if n == 0 */
double maxrs_max(const double *values, long n)
{
    if (n == 0)
        return 0.0;
    double best = values[0];
    for (long j = 1; j < n; j++)
        if (values[j] > best)
            best = values[j];
    return best;
}

/* the first j in [lo, hi) with relax * values[j] > rho, else hi */
long maxrs_above(const double *values, long lo, long hi, double relax,
                 double rho)
{
    for (long j = lo; j < hi; j++)
        if (relax * values[j] > rho)
            return j;
    return hi;
}
