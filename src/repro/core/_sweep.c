/*
 * Compiled max-cover plane sweep and the aG2 cell-buffer scans (see
 * repro/core/planesweep.py and repro/core/graph.py), built as the
 * CPython extension module _sweep (its wrappers are at the end of this
 * file).  This library is
 * the only implementation of every sweep step; the Python it ports,
 * operation for operation, is kept as the reference in the tests
 * (tests/reference_kernel.py, tests/segment_tree.py), and the
 * differentials hold each entry point to it on float.hex.
 *
 * maxrs_sweep is a port of three pieces of that Python: _prepare (slot
 * coordinates and the (y, kind, seq)-ordered event list; prepare here),
 * MaxCoverSegmentTree.add (the iterative mid-split range add;
 * tree_add) and the max-only group loop of sweep_flat.  The tree add
 * and the group loop are line for line; the two sorts reach Python's
 * order with one stable index sort.  It returns the same answer as the
 * Python tree bit for bit:
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
 * maxrs_topk is the single-sweep top-k of topk_flat on the same prepare
 * and tree_add, with range_max ported from MaxCoverSegmentTree.range_max
 * (left to right, strict >, ancestor adds summed top down).
 *
 * maxrs_connect, maxrs_insert, maxrs_local, maxrs_cell, maxrs_max and
 * maxrs_above work on one graph cell's arrival-ordered buffer of the
 * same 5-double items and on its bounds; they port scan_flat,
 * insert_flat, local_flat, cell_flat, max_flat and above_flat.  Their
 * comparisons are exact, the bound adds run in index order and
 * clipping is a min/max, so they too match the Python bit for bit.
 *
 * maxrs_route, maxrs_map, maxrs_purge, maxrs_pending, maxrs_top,
 * maxrs_top_bound and maxrs_settle are aG2's cell index (see
 * repro/core/cells.py; the reference ports are route, map_rows,
 * purge_rows, _table_take_pending, top, top_bound and settle): the
 * batch route into the arrival table, read from the stream objects'
 * slots, and the flat cell table -- key hash, per-cell bound and
 * bookkeeping, pending links, candidate heap.  A stale cell's bound is
 * re-summed in row order, never lowered by a subtraction, so it too
 * matches the Python bit for bit.
 *
 * maxrs_admit is the ingest guard's batch pass (see
 * repro/resilience/guard.py; the reference port is admit): the stream
 * object of every wire record whose shape and values need no coercion,
 * built in one walk of the batch, which also reports whether the
 * batch is whole and in timestamp order.  maxrs_columns is the durable
 * column form of a run of those objects (see repro/core/objects.py; the
 * reference port is columns): the oid list and the four float columns
 * as little-endian doubles, packed in one walk; maxrs_ints writes the
 * oid list's JSON text (ints).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* the kernel reads every array('q') as long */
_Static_assert(sizeof(long) == sizeof(long long), "long is not 64 bits");

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

/*
 * One sweep's working state: the slot coordinates xs, the live items'
 * slot ranges, the (y, kind, seq)-ordered events and the tree, all in
 * one block (key, then the rest).  key[events[i]] is event i's y.
 */
typedef struct {
    long nlive;
    long ne;
    double *key;
    double *xs;
    long *events;
    long *slot_of;
    long *live;
    long *extra; /* the caller's scratch: `extra` longs asked of prepare */
    tree t;
} sweep;

/*
 * The slot coordinates, the event order and an all-zero tree over the
 * slots for the n items.  Returns 1, or 0 when no item has positive
 * area and -1 when out of memory (nothing is then left allocated).
 */
static int prepare(sweep *s, const double *items, long n, long extra)
{
    long m = 2 * n;
    long cap = 4 * (m > 2 ? m - 1 : 1); /* tree nodes for up to m - 1 slots */
    /* one block: sort keys, x slots, tree values, then the index arrays */
    double *key = malloc((size_t)(2 * m + 2 * cap) * sizeof(double)
                         + (size_t)(3 * m + n + cap + extra) * sizeof(long));
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

    /* live items and their x coordinates, in input order */
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
    s->nlive = nlive;
    s->ne = 2 * nlive;
    s->key = key;
    s->xs = xs;
    s->events = stable_sort(ord, tmp, key, 2 * nlive);
    s->slot_of = slot_of;
    s->live = live;
    s->extra = arg + cap;
    /* an all-zero tree over max(1, len(xs) - 1) slots */
    s->t.size = nxs > 1 ? nxs - 1 : 1;
    s->t.mx = mx;
    s->t.add = adds;
    s->t.arg = arg;
    memset(mx, 0, (size_t)(4 * s->t.size) * sizeof *mx);
    memset(adds, 0, (size_t)(4 * s->t.size) * sizeof *adds);
    init_arg(arg, 1, 0, s->t.size - 1);
    return 1;
}

/* event i as a live item k and its slot range [*lo, *hi]; nonzero for
 * an insertion */
static int event(const sweep *s, long i, long *k, long *lo, long *hi)
{
    long e = s->events[i];
    *k = e < s->nlive ? e : e - s->nlive;
    *lo = s->slot_of[2 * *k];
    *hi = s->slot_of[2 * *k + 1] - 1;
    return e >= s->nlive;
}

/* apply the events from i on that share event i's y; returns the index
 * past them, and sets *inserted when one of them was an insertion */
static long apply_group(sweep *s, const double *items, long i, int *inserted)
{
    double y = s->key[s->events[i]];
    *inserted = 0;
    while (i < s->ne && s->key[s->events[i]] == y) {
        long k, lo, hi;
        int insert = event(s, i, &k, &lo, &hi);
        double w = items[5 * s->live[k] + 4];
        tree_add(&s->t, lo, hi, insert ? w : -w);
        *inserted |= insert;
        i++;
    }
    return i;
}

int maxrs_sweep(const double *items, long n, double *out)
{
    sweep s;
    int ready = prepare(&s, items, n, 0);
    if (ready <= 0)
        return ready;
    /* the max-only group loop */
    int found = 0;
    double best_w = -HUGE_VAL, best_y = 0.0, best_y_next = 0.0;
    long best_slot = 0;
    long i = 0;
    while (i < s.ne) {
        double y = s.key[s.events[i]];
        int inserted;
        i = apply_group(&s, items, i, &inserted);
        if (inserted && i < s.ne) {
            double value = s.t.mx[1];
            if (value > best_w) {
                found = 1;
                best_w = value;
                best_slot = s.t.arg[1];
                best_y = y;
                best_y_next = s.key[s.events[i]];
            }
        }
    }
    if (found) {
        out[0] = best_w;
        out[1] = s.xs[best_slot];
        out[2] = best_y;
        out[3] = s.xs[best_slot + 1];
        out[4] = best_y_next;
    }
    free(s.key);
    return found;
}

/*
 * The best slot in [lo, hi] below node (covering [a, b]), acc being the
 * sum of its strict ancestors' adds, top down: canonical nodes are met
 * left to right and a later one wins only when strictly greater, so
 * ties keep the leftmost slot.
 */
static void range_max(const tree *t, long node, long a, long b, long lo,
                      long hi, double acc, double *best, long *best_arg)
{
    while (1) {
        if (lo <= a && b <= hi) {
            double value = t->mx[node] + acc;
            if (value > *best) {
                *best = value;
                *best_arg = t->arg[node];
            }
            return;
        }
        acc += t->add[node];
        long mid = (a + b) >> 1;
        if (lo <= mid && hi > mid)
            range_max(t, node + node, a, mid, lo, hi, acc, best, best_arg);
        if (hi > mid) {
            node = node + node + 1;
            a = mid + 1;
        } else {
            node = node + node;
            b = mid;
        }
    }
}

/*
 * Single-sweep top-k candidates: after every group of events at one y
 * that inserted an item (but the last group), each inserted item, in
 * event order, offers the best slot within its x-span.  A slot offered
 * twice in one group keeps its first position and the larger value.
 * Writes (weight, x1, y1, x2, y2) of each candidate to out, in order;
 * out has room for n.  Returns their number, -1 when out of memory.
 */
long maxrs_topk(const double *items, long n, double *out)
{
    sweep s;
    int ready = prepare(&s, items, n, 4 * n);
    if (ready <= 0)
        return ready;
    /* per slot (at most 2n - 1): the last group that offered it, and
     * its candidate */
    long *seen = s.extra;
    long *where = seen + 2 * n;
    for (long j = 0; j < s.t.size; j++)
        seen[j] = -1;
    long count = 0;
    long i = 0;
    while (i < s.ne) {
        long group = i;
        double y = s.key[s.events[i]];
        int inserted;
        i = apply_group(&s, items, i, &inserted);
        if (!inserted || i == s.ne)
            continue;
        double y_next = s.key[s.events[i]];
        for (long g = group; g < i; g++) {
            long k, lo, hi;
            if (!event(&s, g, &k, &lo, &hi))
                continue;
            double value = -HUGE_VAL;
            long slot = lo;
            range_max(&s.t, 1, 0, s.t.size - 1, lo, hi, 0.0, &value, &slot);
            double *c;
            if (seen[slot] == group) {
                c = out + 5 * where[slot];
                if (!(value > c[0]))
                    continue;
            } else {
                seen[slot] = group;
                where[slot] = count;
                c = out + 5 * count++;
            }
            c[0] = value;
            c[1] = s.xs[slot];
            c[2] = y;
            c[3] = s.xs[slot + 1];
            c[4] = y_next;
        }
    }
    free(s.key);
    return count;
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

/*
 * One sweep of a whole cell (aG2's dense-cell path): the items [head,
 * n), each clipped to the cell's extent (cx1, cy1, cx2, cy2), in index
 * order, swept with maxrs_sweep.  out receives its answer (M, x1, y1,
 * x2, y2) and then the cap M+ = M + (8 m + 512) 2^-52 W, where m = n -
 * head and W is the sum of their weights in index order.
 *
 * Returns the anchor -- the oldest item whose rectangle holds the
 * answer's face -- after capping every bound at M+:
 * upper[j] = max(exact[j], min(upper[j], M+)).  Returns -1, leaving
 * the bounds as they are, when nothing of positive area is swept or no
 * item holds the face (possible only when rounding or zero weights
 * pick an uncovered face), and -2 when out of memory.
 *
 * Why M+ bounds every float local sweep s_j of the cell: every
 * rectangle of N(rj) and rj meets the open cell, and boxes that share a
 * point and each meet an open box share a point inside it, so the true
 * s_j is at most the true cell max M*.  Each computed tree value of a
 * sweep of E events over weights >= 0 is within (2E + depth) u W' of
 * its true value (u = 2^-53; an event adds to one node of a root-leaf
 * chain, and a node's recompute carries its children's error, its own
 * add's and one rounding), so s_j <= M* + (4 m + 64) u W' and M* <=
 * M + (4 m + 64) u W'.  The cap takes more than twice their sum, which
 * also covers W itself being a rounded sum and the rounding of M + slack.
 */
long maxrs_cell(const double *items, long head, long n, double cx1,
                double cy1, double cx2, double cy2, double *upper,
                const double *exact, double *out)
{
    long m = n - head;
    double *buf = malloc((size_t)(5 * (m > 0 ? m : 1)) * sizeof(double));
    if (buf == NULL)
        return -2;
    double total = 0.0;
    long k = 0;
    for (long j = head; j < n; j++) {
        const double *r = items + 5 * j;
        total += r[4];
        double x1 = r[0] > cx1 ? r[0] : cx1;
        double y1 = r[1] > cy1 ? r[1] : cy1;
        double x2 = r[2] < cx2 ? r[2] : cx2;
        double y2 = r[3] < cy2 ? r[3] : cy2;
        if (x1 < x2 && y1 < y2) {
            double *c = buf + 5 * k++;
            c[0] = x1;
            c[1] = y1;
            c[2] = x2;
            c[3] = y2;
            c[4] = r[4];
        }
    }
    int found = k > 0 ? maxrs_sweep(buf, k, out) : 0;
    free(buf);
    if (found <= 0)
        return found < 0 ? -2 : -1;
    long anchor = -1;
    for (long j = head; j < n; j++) {
        const double *r = items + 5 * j;
        if (r[0] <= out[1] && out[3] <= r[2] && r[1] <= out[2]
            && out[4] <= r[3]) {
            anchor = j;
            break;
        }
    }
    if (anchor < 0)
        return -1;
    double cap = out[0] + (double)(8 * m + 512) * 0x1p-52 * total;
    out[5] = cap;
    for (long j = head; j < n; j++)
        if (upper[j] > cap)
            upper[j] = cap > exact[j] ? cap : exact[j];
    return anchor;
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

/* ---- the batch route (cells._route_python) ---------------------------- */

/* 2**52: below it every cell index and its neighbours are exact doubles */
#define EXACT_INDEX 4503599627370496.0
/* cover sides and pair totals whose sums and products fit in a long */
#define MAX_AXIS (1L << 30)
#define MAX_PAIRS (1L << 61)

/* grid._axis_cells: the cells i0..i1 whose interior meets (lo, hi);
 * 0 when an index is out of the exact range */
static int axis_cells(double lo, double hi, double origin, double cs,
                      long *out)
{
    double a = floor((lo - origin) / cs);
    double b = floor((hi - origin) / cs);
    if (!(fabs(a) < EXACT_INDEX && fabs(b) < EXACT_INDEX))
        return 0;
    long i0 = (long)a - 1;
    long i1 = (long)b + 1;
    while (origin + (double)(i0 + 1) * cs <= lo)
        i0++;
    while (origin + (double)i1 * cs >= hi)
        i1--;
    out[0] = i0;
    out[1] = i1;
    return 1;
}

/*
 * ArrivalTable.route of one object at (x, y) of weight w: its dual
 * rectangle and weight into r (5 doubles), its cell cover (i0, i1, j0,
 * j1) into c, its pair count added to *pairs.  Returns 0, -1 when a
 * bound is not finite and -2 when a cell index is out of the exact
 * range or the pairs cannot be counted in a long; the caller then
 * routes the batch in Python, which raises or computes with exact
 * integers.
 */
static long route_one(double x, double y, double w, double hw, double hh,
                      double cs, double ox, double oy, double *r, long *c,
                      long *pairs)
{
    double x1 = x - hw, y1 = y - hh;
    double x2 = x + hw, y2 = y + hh;
    if (!(isfinite(x1) && isfinite(y1) && isfinite(x2) && isfinite(y2)))
        return -1;
    r[0] = x1;
    r[1] = y1;
    r[2] = x2;
    r[3] = y2;
    r[4] = w;
    if (x1 == x2 || y1 == y2) { /* degenerate: overlaps no cell */
        c[0] = 0;
        c[1] = -1;
        c[2] = 0;
        c[3] = -1;
        return 0;
    }
    if (!axis_cells(x1, x2, ox, cs, c) || !axis_cells(y1, y2, oy, cs, c + 2))
        return -2;
    long nx = c[1] - c[0] + 1, ny = c[3] - c[2] + 1;
    if (nx > 0 && ny > 0) {
        /* a cover too large to count in 64 bits is left to Python */
        if (nx > MAX_AXIS || ny > MAX_AXIS || *pairs > MAX_PAIRS)
            return -2;
        *pairs += nx * ny;
    }
    return 0;
}

/* ---- the cell table (cells.CellTable) ----------------------------------- */

/* ints per cell in meta, and their offsets */
#define CF 10
enum { C_I, C_J, C_RANK, C_NEWEST, C_HEAD, C_TAIL, C_MARK, C_VISIT, C_HELD,
       C_STALE };
/* the state array */
enum { S_COUNT, S_HWM, S_NFREE, S_RANK, S_HEAP, S_STAMP, S_VSTAMP, S_MASK,
       S_LBASE, S_LEND, S_LLIVE };
/* the link table's dead prefix is compacted away at this size, once it
 * is half the table (graph._COMPACT_MIN, the arrival table's rule) */
#define COMPACT_MIN 32

typedef struct {
    double *cw;     /* c.w per cell */
    long *meta;     /* CF ints per cell */
    long *slots;    /* hash slots: cell id or -1 */
    long *free_ids; /* stack of deleted ids */
    double *hcw;    /* heap entry bound */
    long *hent;     /* heap entry (rank, id) */
    long *state;
    double *vb;     /* c.w at the cell's last visit, per cell */
    long *links;    /* pending (row, cell) pairs: (seq, next link id) */
    double *lw;     /* the weight of each pair's row */
} cells;

/* p: the table's array addresses, in the order of the struct */
static cells unpack(const unsigned long *p)
{
    cells t = {(double *)p[0], (long *)p[1], (long *)p[2], (long *)p[3],
               (double *)p[4], (long *)p[5], (long *)p[6], (double *)p[7],
               (long *)p[8], (double *)p[9]};
    return t;
}

/* link id -> its (seq, next) pair; ids count every link ever made, the
 * arrays start at id state[S_LBASE] */
static long *link_at(const cells *t, long id)
{
    return t->links + 2 * (id - t->state[S_LBASE]);
}

/* the cell's live bound: its bound at the last visit plus the weights
 * of its pending pairs, added in row order (the adds maxrs_map made) */
static double live_bound(const cells *t, long c)
{
    double s = t->vb[c];
    for (long id = t->meta[CF * c + C_HEAD]; id >= 0; id = link_at(t, id)[1])
        s += t->lw[id - t->state[S_LBASE]];
    return s;
}

static unsigned long home(long i, long j, unsigned long mask)
{
    unsigned long h = (unsigned long)i * 0x9E3779B97F4A7C15UL
                      + (unsigned long)j * 0xC2B2AE3D27D4EB4FUL;
    return (h ^ (h >> 32)) & mask;
}

/* the id of cell (i, j), or -1; *slot is its slot or the empty slot
 * that ends its probe chain */
static long find(const cells *t, long i, long j, unsigned long *slot)
{
    unsigned long mask = (unsigned long)t->state[S_MASK];
    unsigned long s = home(i, j, mask);
    while (1) {
        long c = t->slots[s];
        if (c < 0 || (t->meta[CF * c + C_I] == i && t->meta[CF * c + C_J] == j)) {
            *slot = s;
            return c;
        }
        s = (s + 1) & mask;
    }
}

static long create(cells *t, unsigned long slot, long i, long j)
{
    long *st = t->state;
    long c = st[S_NFREE] > 0 ? t->free_ids[--st[S_NFREE]] : st[S_HWM]++;
    long *m = t->meta + CF * c;
    m[C_I] = i;
    m[C_J] = j;
    m[C_RANK] = st[S_RANK]++;
    m[C_NEWEST] = -1;
    m[C_HEAD] = -1;
    m[C_TAIL] = -1;
    m[C_MARK] = 0;
    m[C_VISIT] = -1;
    m[C_HELD] = 0;
    m[C_STALE] = 0;
    t->cw[c] = 0.0;
    t->vb[c] = 0.0;
    t->slots[slot] = c;
    st[S_COUNT]++;
    return c;
}

/* delete cell c: backward-shift its probe chain, free its id */
static void drop(cells *t, long c)
{
    unsigned long mask = (unsigned long)t->state[S_MASK];
    long *m = t->meta + CF * c;
    unsigned long s = home(m[C_I], m[C_J], mask);
    while (t->slots[s] != c)
        s = (s + 1) & mask;
    unsigned long j = s;
    while (1) {
        j = (j + 1) & mask;
        long d = t->slots[j];
        if (d < 0)
            break;
        unsigned long h = home(t->meta[CF * d + C_I], t->meta[CF * d + C_J], mask);
        /* d moves into the hole unless its home lies in (s, j] */
        if (((j - h) & mask) >= ((j - s) & mask)) {
            t->slots[s] = d;
            s = j;
        }
    }
    t->slots[s] = -1;
    m[C_RANK] = -1;
    m[C_HEAD] = -1;
    m[C_TAIL] = -1;
    m[C_HELD] = 0;
    t->free_ids[t->state[S_NFREE]++] = c;
    t->state[S_COUNT]--;
}

/* heap entry a goes before entry b: larger bound, then smaller rank */
static int ahead(const cells *t, long a, long b)
{
    double x = t->hcw[a], y = t->hcw[b];
    return x > y || (x == y && t->hent[2 * a] < t->hent[2 * b]);
}

static void swap_entries(cells *t, long a, long b)
{
    double w = t->hcw[a];
    t->hcw[a] = t->hcw[b];
    t->hcw[b] = w;
    long r = t->hent[2 * a], c = t->hent[2 * a + 1];
    t->hent[2 * a] = t->hent[2 * b];
    t->hent[2 * a + 1] = t->hent[2 * b + 1];
    t->hent[2 * b] = r;
    t->hent[2 * b + 1] = c;
}

static void sift_down(cells *t, long k, long n)
{
    while (1) {
        long l = 2 * k + 1;
        if (l >= n)
            return;
        long b = l + 1 < n && ahead(t, l + 1, l) ? l + 1 : l;
        if (!ahead(t, b, k))
            return;
        swap_entries(t, b, k);
        k = b;
    }
}

static void push(cells *t, long c)
{
    long k = t->state[S_HEAP]++;
    t->hcw[k] = t->cw[c];
    t->hent[2 * k] = t->meta[CF * c + C_RANK];
    t->hent[2 * k + 1] = c;
    while (k > 0) {
        long parent = (k - 1) / 2;
        if (!ahead(t, k, parent))
            return;
        swap_entries(t, k, parent);
        k = parent;
    }
}

static void pop(cells *t)
{
    long n = --t->state[S_HEAP];
    if (n > 0) {
        t->hcw[0] = t->hcw[n];
        t->hent[0] = t->hent[2 * n];
        t->hent[1] = t->hent[2 * n + 1];
        sift_down(t, 0, n);
    }
}

/* entry k names a live cell, at its current bound, not visited yet */
static int live(const cells *t, long k)
{
    long c = t->hent[2 * k + 1];
    const long *m = t->meta + CF * c;
    return m[C_RANK] == t->hent[2 * k] && t->cw[c] == t->hcw[k]
           && m[C_VISIT] != t->state[S_VSTAMP];
}

/*
 * Algorithm 2 lines 1-5 for the rows start .. stop - 1 of the arrival
 * table: find or create every covered cell, rows in order, each row's
 * cells in cover order; add the row's weight to c.w (Equation 5), record
 * the row as the cell's newest and append the (row, cell) pair to the
 * cell's pending list.  Then push one heap entry for each touched cell,
 * in first-touch order, at its final bound.  touched receives the
 * touched ids.  Returns their number.  The caller has reserved room for
 * every new cell, link and entry.
 */
long maxrs_map(const unsigned long *p, const double *rows, const long *cover,
               long base, long start, long stop, long *touched)
{
    cells t = unpack(p);
    long *st = t.state;
    long stamp = ++st[S_STAMP];
    long nt = 0;
    for (long r = start; r < stop; r++) {
        const long *cv = cover + 4 * r;
        double w = rows[5 * r + 4];
        long seq = base + r;
        for (long i = cv[0]; i <= cv[1]; i++) {
            for (long j = cv[2]; j <= cv[3]; j++) {
                unsigned long slot;
                long c = find(&t, i, j, &slot);
                if (c < 0)
                    c = create(&t, slot, i, j);
                long *m = t.meta + CF * c;
                t.cw[c] += w;
                m[C_NEWEST] = seq;
                long id = st[S_LEND]++;
                long *l = link_at(&t, id);
                l[0] = seq;
                l[1] = -1;
                t.lw[id - st[S_LBASE]] = w;
                if (m[C_TAIL] >= 0)
                    link_at(&t, m[C_TAIL])[1] = id;
                else
                    m[C_HEAD] = id;
                m[C_TAIL] = id;
                if (m[C_MARK] != stamp) {
                    m[C_MARK] = stamp;
                    touched[nt++] = c;
                }
            }
        }
    }
    for (long k = 0; k < nt; k++)
        push(&t, touched[k]);
    return nt;
}

/*
 * Expire the rows head .. stop - 1 (seqs up to expired_upto) from the
 * cells they cover, each cell once, in row order: a cell whose newest
 * row expired is empty and deleted; any other unlinks its expired pairs
 * from the front of its pending list and, if there were any, is marked
 * stale (its c.w still counts their weight).  held receives every
 * touched cell that holds a graph (deleted ones included: their rank is
 * then -1), so the caller can expire the graph.  Then the link table's
 * expired prefix is compacted away once it is half the table.  Returns
 * the number of held cells.
 */
long maxrs_purge(const unsigned long *p, const long *cover, long head,
                 long stop, long expired_upto, long *held)
{
    cells t = unpack(p);
    long *st = t.state;
    long stamp = ++st[S_STAMP];
    long n = 0;
    for (long r = head; r < stop; r++) {
        const long *cv = cover + 4 * r;
        for (long i = cv[0]; i <= cv[1]; i++) {
            for (long j = cv[2]; j <= cv[3]; j++) {
                unsigned long slot;
                long c = find(&t, i, j, &slot);
                if (c < 0)
                    continue;
                long *m = t.meta + CF * c;
                if (m[C_MARK] == stamp)
                    continue;
                m[C_MARK] = stamp;
                if (m[C_HELD])
                    held[n++] = c;
                if (m[C_NEWEST] <= expired_upto) {
                    drop(&t, c);
                    continue;
                }
                long id = m[C_HEAD];
                if (id < 0 || link_at(&t, id)[0] > expired_upto)
                    continue;
                while (id >= 0 && link_at(&t, id)[0] <= expired_upto)
                    id = link_at(&t, id)[1];
                m[C_HEAD] = id;
                if (id < 0)
                    m[C_TAIL] = -1;
                m[C_STALE] = 1;
            }
        }
    }
    while (st[S_LLIVE] < st[S_LEND] && link_at(&t, st[S_LLIVE])[0] <= expired_upto)
        st[S_LLIVE]++;
    long dead = st[S_LLIVE] - st[S_LBASE], used = st[S_LEND] - st[S_LBASE];
    if (dead >= COMPACT_MIN && 2 * dead >= used) {
        memmove(t.links, t.links + 2 * dead, (size_t)(used - dead) * 2 * sizeof(long));
        memmove(t.lw, t.lw + dead, (size_t)(used - dead) * sizeof(double));
        st[S_LBASE] = st[S_LLIVE];
    }
    return n;
}

/*
 * Visit cell c: mark it visited and take its pending set -- the seqs of
 * its pending list, in row order -- into out; the list is then empty
 * and the cell no longer stale.  Returns their number.
 */
long maxrs_pending(const unsigned long *p, long c, long *out)
{
    cells t = unpack(p);
    long *m = t.meta + CF * c;
    m[C_VISIT] = t.state[S_VSTAMP];
    m[C_STALE] = 0;
    long n = 0;
    for (long id = m[C_HEAD]; id >= 0; id = link_at(&t, id)[1])
        out[n++] = link_at(&t, id)[0];
    m[C_HEAD] = -1;
    m[C_TAIL] = -1;
    return n;
}

/*
 * The cell of the first live heap entry, dropping dead ones; -1 when
 * none is left.  A stale cell that reaches the root is re-keyed at its
 * live bound: the root entry takes that bound and, when it is lower,
 * sinks to its place (the old key is gone, as if popped and pushed).
 */
long maxrs_top(const unsigned long *p)
{
    cells t = unpack(p);
    while (t.state[S_HEAP] > 0) {
        if (!live(&t, 0)) {
            pop(&t);
            continue;
        }
        long c = t.hent[1];
        long *m = t.meta + CF * c;
        if (!m[C_STALE])
            return c;
        double s = live_bound(&t, c);
        int lower = s < t.cw[c];
        m[C_STALE] = 0;
        t.cw[c] = s;
        t.hcw[0] = s;
        if (!lower)
            return c;
        sift_down(&t, 0, t.state[S_HEAP]);
    }
    return -1;
}

/*
 * The live cell with the largest live bound, ties to the largest (i, j)
 * key: after maxrs_top the root's bound is the largest, and the entries
 * tied with it form a subtree under the root, so only they are read (a
 * stale one counts only if its live bound is the root's).  -1 when no
 * live entry is left, -2 when out of memory.
 */
long maxrs_top_bound(const unsigned long *p)
{
    long best = maxrs_top(p);
    if (best < 0)
        return best;
    cells t = unpack(p);
    long n = t.state[S_HEAP];
    double bound = t.hcw[0];
    long *stack = malloc((size_t)(n + 2) * sizeof(long));
    if (stack == NULL)
        return -2;
    long sp = 0;
    stack[sp++] = 1;
    stack[sp++] = 2;
    while (sp > 0) {
        long k = stack[--sp];
        if (k >= n || t.hcw[k] != bound)
            continue;
        long c = t.hent[2 * k + 1];
        const long *m = t.meta + CF * c, *b = t.meta + CF * best;
        if ((m[C_I] > b[C_I] || (m[C_I] == b[C_I] && m[C_J] > b[C_J]))
            && live(&t, k) && (!m[C_STALE] || live_bound(&t, c) == bound))
            best = c;
        stack[sp++] = 2 * k + 1;
        stack[sp++] = 2 * k + 2;
    }
    free(stack);
    return best;
}

/*
 * End of a batch: every visited cell's c.w becomes its last-visit bound
 * and gets a heap entry; end the visit epoch, and rebuild the heap from
 * the live cells once dead entries outnumber them, so it holds at most
 * twice the live cells.
 */
void maxrs_settle(const unsigned long *p, const long *visited, long n)
{
    cells t = unpack(p);
    for (long k = 0; k < n; k++) {
        t.vb[visited[k]] = t.cw[visited[k]];
        push(&t, visited[k]);
    }
    long *st = t.state;
    st[S_VSTAMP]++;
    if (st[S_HEAP] > 2 * st[S_COUNT]) {
        long size = 0;
        for (long c = 0; c < st[S_HWM]; c++) {
            if (t.meta[CF * c + C_RANK] < 0)
                continue;
            t.hcw[size] = t.cw[c];
            t.hent[2 * size] = t.meta[CF * c + C_RANK];
            t.hent[2 * size + 1] = c;
            size++;
        }
        st[S_HEAP] = size;
        for (long k = size / 2 - 1; k >= 0; k--)
            sift_down(&t, k, size);
    }
}

/* ---- the extension module ---------------------------------------------- */

/*
 * One METH_FASTCALL wrapper per entry point.  A wrapper takes the
 * arrays themselves: it holds each one's buffer for the call, checks its
 * typecode (TypeError), checks every index and count against the
 * buffers' lengths so that the entry point reads and writes inside them
 * (IndexError), then calls the entry point above unchanged.  The GIL is
 * held throughout, so no other thread can resize an array meanwhile.
 *
 * The cell-table entry points take the table as one tuple of its ten
 * arrays, in the order of the cells struct.  Its shape and counters are
 * checked; the cell rows, links and heap entries inside it are the
 * entry points' own writes (CellTable.check_invariants verifies them).
 */

#include <stdarg.h>

/* the buffers one call holds, released together */
typedef struct {
    Py_buffer b[16];
    int n;
} held;

static void release(held *h)
{
    while (h->n > 0)
        PyBuffer_Release(&h->b[--h->n]);
}

/* hold obj's buffer as a writable array of typecode code (its item count
 * into *len); NULL with TypeError or BufferError set when it is not one */
static void *take(held *h, const char *name, PyObject *obj, char code,
                  Py_ssize_t *len)
{
    Py_buffer *v = &h->b[h->n];
    if (PyObject_GetBuffer(obj, v, PyBUF_CONTIG | PyBUF_FORMAT) < 0)
        return NULL;
    Py_ssize_t size = code == 'b' ? 1 : 8;
    if (v->format == NULL || v->format[0] != code || v->format[1] != '\0'
        || v->itemsize != size) {
        PyErr_Format(PyExc_TypeError,
                     "%s(): expected an array('%c'), got format '%s'", name,
                     code, v->format == NULL ? "B" : v->format);
        PyBuffer_Release(v);
        return NULL;
    }
    h->n++;
    *len = v->len / size;
    return v->buf;
}

/* the table tuple: its arrays' typecodes, in the order of the struct */
#define TABLE_ARRAYS 10
static const char TABLE_CODES[] = "dqqqdqqdqd";
enum { T_CW, T_META, T_SLOTS, T_FREE, T_HCW, T_HENT, T_STATE, T_VB, T_LINKS,
       T_LW };

/* the table's shape and counters: the failed check, or NULL when every
 * count the entry points index the table's arrays by is inside them */
#define TABLE_CHECK(cond)                                                   \
    do {                                                                    \
        if (!(cond))                                                        \
            return #cond;                                                   \
    } while (0)

static const char *table_fault(const unsigned long *addr,
                               const Py_ssize_t *len)
{
    TABLE_CHECK(len[T_STATE] > S_LLIVE);
    const long *st = (const long *)addr[T_STATE];
    long cap = len[T_CW], nslots = len[T_SLOTS];
    TABLE_CHECK(len[T_META] >= CF * cap && len[T_VB] >= cap
                && len[T_FREE] >= cap);
    TABLE_CHECK(len[T_HENT] >= 2 * len[T_HCW]
                && len[T_LINKS] >= 2 * len[T_LW]);
    TABLE_CHECK(0 <= st[S_COUNT] && st[S_COUNT] <= st[S_HWM]
                && st[S_HWM] <= cap);
    TABLE_CHECK(0 <= st[S_NFREE] && st[S_NFREE] <= cap);
    TABLE_CHECK(0 <= st[S_HEAP] && st[S_HEAP] <= len[T_HCW]);
    TABLE_CHECK(st[S_MASK] == nslots - 1 && (nslots & st[S_MASK]) == 0
                && nslots > cap);
    TABLE_CHECK(st[S_LBASE] <= st[S_LLIVE] && st[S_LLIVE] <= st[S_LEND]
                && (unsigned long)st[S_LEND] - (unsigned long)st[S_LBASE]
                       <= (unsigned long)len[T_LW]);
    return NULL;
}

/*
 * Parse a call's arguments by spec, one letter each:
 *   d q b  an array of that typecode: its data (void **) and item count
 *          (Py_ssize_t *); D Q B: the same, or None (NULL and 0)
 *   t      the cell table: a tuple of its ten arrays; their addresses
 *          (unsigned long[10], unpack's input) and item counts
 *          (Py_ssize_t[10]), after table_fault found nothing
 *   n      an index or count (long *)
 *   f      a double (double *)
 *   o      any object, borrowed (PyObject **)
 * Returns 0 with an exception set, and nothing held, on failure.
 */
static int parse(held *h, const char *name, const char *spec,
                 PyObject *const *args, Py_ssize_t nargs, ...)
{
    Py_ssize_t want = (Py_ssize_t)strlen(spec);
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return 0;
    }
    va_list ap;
    va_start(ap, nargs);
    int ok = 1;
    for (Py_ssize_t k = 0; ok && k < want; k++) {
        PyObject *arg = args[k];
        char c = spec[k];
        if (c == 'o') {
            *va_arg(ap, PyObject **) = arg;
        } else if (c == 'n') {
            long *out = va_arg(ap, long *);
            *out = PyLong_AsLong(arg);
            ok = !(*out == -1 && PyErr_Occurred());
        } else if (c == 'f') {
            double *out = va_arg(ap, double *);
            *out = PyFloat_AsDouble(arg);
            ok = !(*out == -1.0 && PyErr_Occurred());
        } else if (c == 't') {
            unsigned long *addr = va_arg(ap, unsigned long *);
            Py_ssize_t *lens = va_arg(ap, Py_ssize_t *);
            if (!PyTuple_Check(arg) || PyTuple_GET_SIZE(arg) != TABLE_ARRAYS) {
                PyErr_Format(PyExc_TypeError,
                             "%s(): the cell table is a tuple of %d arrays",
                             name, TABLE_ARRAYS);
                ok = 0;
            }
            for (int a = 0; ok && a < TABLE_ARRAYS; a++) {
                void *buf = take(h, name, PyTuple_GET_ITEM(arg, a),
                                 TABLE_CODES[a], &lens[a]);
                addr[a] = (unsigned long)buf;
                ok = buf != NULL;
            }
            const char *fault = ok ? table_fault(addr, lens) : NULL;
            if (fault != NULL) {
                PyErr_Format(PyExc_IndexError,
                             "%s(): index or count out of range: %s", name,
                             fault);
                ok = 0;
            }
        } else {
            void **data = va_arg(ap, void **);
            Py_ssize_t *len = va_arg(ap, Py_ssize_t *);
            if (arg == Py_None && c >= 'A' && c <= 'Z') {
                *data = NULL;
                *len = 0;
            } else {
                *data = take(h, name, arg, (char)(c | 0x20), len);
                ok = *data != NULL;
            }
        }
    }
    va_end(ap);
    if (!ok)
        release(h);
    return ok;
}

static PyObject *out_of_range(held *h, const char *name, const char *check)
{
    release(h);
    return PyErr_Format(PyExc_IndexError,
                        "%s(): index or count out of range: %s", name, check);
}

/* in a wrapper: raise IndexError, releasing the buffers, unless cond */
#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond))                                                        \
            return out_of_range(&h, name, #cond);                           \
    } while (0)

static PyObject *py_sweep(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static const char name[] = "maxrs_sweep";
    held h;
    h.n = 0;
    void *items, *out;
    Py_ssize_t ni, no;
    long n;
    if (!parse(&h, name, "dnd", args, nargs, &items, &ni, &n, &out, &no))
        return NULL;
    CHECK(0 <= n && n <= ni / 5);
    CHECK(no >= 5);
    int found = maxrs_sweep(items, n, out);
    release(&h);
    return PyLong_FromLong(found);
}

static PyObject *py_topk(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    static const char name[] = "maxrs_topk";
    held h;
    h.n = 0;
    void *items, *out;
    Py_ssize_t ni, no;
    long n;
    if (!parse(&h, name, "dnd", args, nargs, &items, &ni, &n, &out, &no))
        return NULL;
    CHECK(0 <= n && n <= ni / 5 && n <= no / 5);
    long count = maxrs_topk(items, n, out);
    release(&h);
    return PyLong_FromLong(count);
}

static PyObject *py_connect(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    static const char name[] = "maxrs_connect";
    held h;
    h.n = 0;
    void *items, *upper, *dirty, *hits;
    Py_ssize_t ni, nu, nd, nh;
    long q, lo, hi;
    if (!parse(&h, name, "dnnnDBQ", args, nargs, &items, &ni, &q, &lo, &hi,
               &upper, &nu, &dirty, &nd, &hits, &nh))
        return NULL;
    CHECK(0 <= q && q < ni / 5);
    CHECK(0 <= lo && hi <= ni / 5);
    CHECK(upper == NULL || (dirty != NULL && hi <= nu && hi <= nd));
    CHECK(hits == NULL || hi <= lo || hi - lo <= nh);
    long k = maxrs_connect(items, q, lo, hi, upper, dirty, hits);
    release(&h);
    return PyLong_FromLong(k);
}

static PyObject *py_insert(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    static const char name[] = "maxrs_insert";
    held h;
    h.n = 0;
    void *table, *seqs, *items, *upper, *exact, *dirty, *hits;
    Py_ssize_t nt, ns, ni, nu, ne, nd, nh;
    long base, m, head, n;
    if (!parse(&h, name, "dnqndnnddbQ", args, nargs, &table, &nt, &base,
               &seqs, &ns, &m, &items, &ni, &head, &n, &upper, &nu, &exact,
               &ne, &dirty, &nd, &hits, &nh))
        return NULL;
    CHECK(0 <= m && m <= ns);
    CHECK(0 <= head && head <= n && n <= ni / 5 - m);
    CHECK(n <= nu - m && n <= ne - m && n <= nd - m);
    CHECK(hits == NULL || m * (n - head) + m * (m - 1) / 2 <= nh);
    const long *s = seqs;
    for (long k = 0; k < m; k++)
        CHECK(s[k] >= base && (unsigned long)s[k] - (unsigned long)base
                                  < (unsigned long)(nt / 5));
    long edges = maxrs_insert(table, base, seqs, m, items, head, n, upper,
                              exact, dirty, hits);
    release(&h);
    return PyLong_FromLong(edges);
}

static PyObject *py_local(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static const char name[] = "maxrs_local";
    held h;
    h.n = 0;
    void *items, *out;
    Py_ssize_t ni, no;
    long i, n;
    if (!parse(&h, name, "dnnd", args, nargs, &items, &ni, &i, &n, &out, &no))
        return NULL;
    CHECK(0 <= i && i < n && n <= ni / 5);
    CHECK(no >= 5);
    int found = maxrs_local(items, i, n, out);
    release(&h);
    return PyLong_FromLong(found);
}

static PyObject *py_cell(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    static const char name[] = "maxrs_cell";
    held h;
    h.n = 0;
    void *items, *upper, *exact, *out;
    Py_ssize_t ni, nu, ne, no;
    long head, n;
    double cx1, cy1, cx2, cy2;
    if (!parse(&h, name, "dnnffffddd", args, nargs, &items, &ni, &head, &n,
               &cx1, &cy1, &cx2, &cy2, &upper, &nu, &exact, &ne, &out, &no))
        return NULL;
    CHECK(0 <= head && n <= ni / 5 && n <= nu && n <= ne);
    CHECK(no >= 6);
    long anchor = maxrs_cell(items, head, n, cx1, cy1, cx2, cy2, upper, exact,
                             out);
    release(&h);
    return PyLong_FromLong(anchor);
}

static PyObject *py_max(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    static const char name[] = "maxrs_max";
    held h;
    h.n = 0;
    void *values;
    Py_ssize_t nv;
    long lo, hi;
    if (!parse(&h, name, "dnn", args, nargs, &values, &nv, &lo, &hi))
        return NULL;
    CHECK(0 <= lo && lo <= hi && hi <= nv);
    double best = maxrs_max((const double *)values + lo, hi - lo);
    release(&h);
    return PyFloat_FromDouble(best);
}

static PyObject *py_above(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static const char name[] = "maxrs_above";
    held h;
    h.n = 0;
    void *values;
    Py_ssize_t nv;
    long lo, hi;
    double relax, rho;
    if (!parse(&h, name, "dnnff", args, nargs, &values, &nv, &lo, &hi, &relax,
               &rho))
        return NULL;
    CHECK(0 <= lo && hi <= nv);
    long j = maxrs_above(values, lo, hi, relax, rho);
    release(&h);
    return PyLong_FromLong(j);
}

/* maxrs_route(objects, cls, hw, hh, cs, ox, oy, rows, r0, cover, c0):
 * route_one for each object of a list or tuple of exact cls objects
 * whose x, y and weight slots hold exact floats, read straight from the
 * slots, rows from r0 and cover from c0 on; the pair count, or the
 * first object's failure: route_one's, or -3 when the object is not one
 * of those (or the run is not a list or tuple), which the caller routes
 * in Python (cells.route_rows; the reference port is route) */
static int slot_offsets(const char *name, PyTypeObject *cls,
                        Py_ssize_t *offset);

static PyObject *py_route(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static const char name[] = "maxrs_route";
    held h;
    h.n = 0;
    PyObject *objects, *type;
    void *rows, *cover;
    Py_ssize_t nr, nc, offset[5];
    long r0, c0;
    double hw, hh, cs, ox, oy;
    if (!parse(&h, name, "oofffffdnqn", args, nargs, &objects, &type, &hw,
               &hh, &cs, &ox, &oy, &rows, &nr, &r0, &cover, &nc, &c0))
        return NULL;
    if (!PySequence_Check(objects)) {
        release(&h);
        return PyErr_Format(PyExc_TypeError,
                            "%s(): expected a sequence of objects, got %.200s",
                            name, Py_TYPE(objects)->tp_name);
    }
    if (!PyType_Check(type)) {
        release(&h);
        return PyErr_Format(PyExc_TypeError,
                            "%s(): expected a type, got %.200s", name,
                            Py_TYPE(type)->tp_name);
    }
    PyTypeObject *cls = (PyTypeObject *)type;
    if (!slot_offsets(name, cls, offset)) {
        release(&h);
        return NULL;
    }
    if (!PyList_CheckExact(objects) && !PyTuple_CheckExact(objects)) {
        release(&h);
        return PyLong_FromLong(-3);
    }
    long n = (long)PySequence_Fast_GET_SIZE(objects);
    CHECK(0 <= r0 && r0 <= nr - 5 * n && 0 <= c0 && c0 <= nc - 4 * n);
    /* no Python code runs in the walk, so the run cannot change */
    PyObject **items = PySequence_Fast_ITEMS(objects);
    long pairs = 0, fault = 0;
    for (long k = 0; !fault && k < n; k++) {
        char *obj = (char *)items[k];
        PyObject *v[3] = {NULL, NULL, NULL};
        if (Py_IS_TYPE(items[k], cls))
            for (int a = 0; a < 3; a++)
                v[a] = *(PyObject **)(obj + offset[a]);
        if (!(v[0] && v[1] && v[2] && PyFloat_CheckExact(v[0])
              && PyFloat_CheckExact(v[1]) && PyFloat_CheckExact(v[2])))
            fault = -3;
        else
            fault = route_one(PyFloat_AS_DOUBLE(v[0]), PyFloat_AS_DOUBLE(v[1]),
                              PyFloat_AS_DOUBLE(v[2]), hw, hh, cs, ox, oy,
                              (double *)rows + r0 + 5 * k,
                              (long *)cover + c0 + 4 * k, &pairs);
    }
    release(&h);
    return PyLong_FromLong(fault ? fault : pairs);
}

static PyObject *py_map(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    static const char name[] = "maxrs_map";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS], nr, nc, nt;
    void *rows, *cover, *touched;
    long base, start, stop;
    if (!parse(&h, name, "tdqnnnq", args, nargs, addr, len, &rows, &nr,
               &cover, &nc, &base, &start, &stop, &touched, &nt))
        return NULL;
    CHECK(0 <= start && stop <= nr / 5 && stop <= nc / 4);
    /* room for every new cell, link and heap entry of the batch's pairs:
     * what CellTable.reserve made */
    const long *st = (const long *)addr[T_STATE];
    long room = st[S_NFREE] + len[T_CW] - st[S_HWM];
    long heap = len[T_HCW] - st[S_HEAP];
    long links = len[T_LW] - (st[S_LEND] - st[S_LBASE]);
    room = heap < room ? heap : room;
    room = links < room ? links : room;
    long pairs = 0;
    for (long r = start; r < stop; r++) {
        const long *cv = (const long *)cover + 4 * r;
        if (cv[1] < cv[0] || cv[3] < cv[2])
            continue;
        unsigned long nx = (unsigned long)cv[1] - (unsigned long)cv[0];
        unsigned long ny = (unsigned long)cv[3] - (unsigned long)cv[2];
        CHECK(nx < MAX_AXIS && ny < MAX_AXIS
              && (long)((nx + 1) * (ny + 1)) <= room - pairs);
        pairs += (long)((nx + 1) * (ny + 1));
    }
    CHECK(nt >= pairs || nt >= len[T_CW]);
    long n = maxrs_map(addr, rows, cover, base, start, stop, touched);
    release(&h);
    return PyLong_FromLong(n);
}

static PyObject *py_purge(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    static const char name[] = "maxrs_purge";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS], nc, nh;
    void *cover, *out;
    long head, stop, expired_upto;
    if (!parse(&h, name, "tqnnnq", args, nargs, addr, len, &cover, &nc, &head,
               &stop, &expired_upto, &out, &nh))
        return NULL;
    CHECK(0 <= head && stop <= nc / 4);
    /* the held ids are distinct ids below the high-water mark */
    CHECK(nh >= ((const long *)addr[T_STATE])[S_HWM]);
    long n = maxrs_purge(addr, cover, head, stop, expired_upto, out);
    release(&h);
    return PyLong_FromLong(n);
}

static PyObject *py_pending(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    static const char name[] = "maxrs_pending";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS], no;
    void *out;
    long c;
    if (!parse(&h, name, "tnq", args, nargs, addr, len, &c, &out, &no))
        return NULL;
    const long *st = (const long *)addr[T_STATE];
    CHECK(0 <= c && c < st[S_HWM]);
    /* the pending list fits out, and each link is in the link table */
    const long *meta = (const long *)addr[T_META];
    const long *links = (const long *)addr[T_LINKS];
    long lbase = st[S_LBASE], lend = st[S_LEND], k = 0;
    for (long id = meta[CF * c + C_HEAD]; id >= 0;
         id = links[2 * (id - lbase) + 1], k++)
        CHECK(lbase <= id && id < lend && k < no);
    long n = maxrs_pending(addr, c, out);
    release(&h);
    return PyLong_FromLong(n);
}

static PyObject *py_top(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    static const char name[] = "maxrs_top";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS];
    if (!parse(&h, name, "t", args, nargs, addr, len))
        return NULL;
    long c = maxrs_top(addr);
    release(&h);
    return PyLong_FromLong(c);
}

static PyObject *py_top_bound(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    static const char name[] = "maxrs_top_bound";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS];
    if (!parse(&h, name, "t", args, nargs, addr, len))
        return NULL;
    long c = maxrs_top_bound(addr);
    release(&h);
    return PyLong_FromLong(c);
}

static PyObject *py_settle(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    static const char name[] = "maxrs_settle";
    held h;
    h.n = 0;
    unsigned long addr[TABLE_ARRAYS];
    Py_ssize_t len[TABLE_ARRAYS], nv;
    void *visited;
    long n;
    if (!parse(&h, name, "tqn", args, nargs, addr, len, &visited, &nv, &n))
        return NULL;
    const long *st = (const long *)addr[T_STATE];
    CHECK(0 <= n && n <= nv && n <= len[T_HCW] - st[S_HEAP]);
    const long *v = visited;
    for (long k = 0; k < n; k++)
        CHECK(0 <= v[k] && v[k] < st[S_HWM]);
    maxrs_settle(addr, visited, n);
    release(&h);
    Py_RETURN_NONE;
}

/*
 * maxrs_admit(records, cls, floor): for each record of the list, the
 * object cls(x, y, weight, timestamp, oid) when the record is exactly a dict
 * whose keys are all exactly str, holding all five field keys, with
 * exact floats x, y, weight and timestamp and an exact int oid that
 * pass cls's checks (finite x and y, weight >= 0, timestamp not NaN);
 * None for every other record, which the caller coerces on its general
 * path.  The object is allocated through cls and its five slots are
 * set to the record's own value objects, as the dataclass's __init__
 * sets them with object.__setattr__.  With only exact str keys and
 * exact float and int values, no lookup or check runs Python code.
 *
 * The pass also reports the batch's order: it returns (objects, top),
 * top the running maximum of the timestamps -- started at floor,
 * raised only by a larger timestamp, so the object kept is the first
 * of the largest -- when floor is an exact float, every
 * record was built and no timestamp fell below the running maximum;
 * else (objects, None).  The ingest guard releases such a batch whole
 * (repro/resilience/guard.py).
 */
#include <structmember.h>

/* the field names, interned at module init, in cls's positional order */
#define WIRE_FIELDS 5
static const char *const WIRE_NAMES[WIRE_FIELDS] = {"x", "y", "weight",
                                                    "timestamp", "oid"};
static PyObject *wire_keys[WIRE_FIELDS];

/* each field's slot offset in cls: a writable object member of cls or a
   base; 0 with a TypeError naming the entry point when one is missing */
static int slot_offsets(const char *name, PyTypeObject *cls,
                        Py_ssize_t *offset)
{
    for (int k = 0; k < WIRE_FIELDS; k++) {
        PyObject *d = PyObject_GetAttr((PyObject *)cls, wire_keys[k]);
        if (d == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return 0;
            PyErr_Clear();
        }
        int ok = d != NULL && Py_IS_TYPE(d, &PyMemberDescr_Type);
        if (ok) {
            PyMemberDescrObject *m = (PyMemberDescrObject *)d;
            ok = m->d_member->type == T_OBJECT_EX
                 && !(m->d_member->flags & READONLY)
                 && PyType_IsSubtype(cls, m->d_common.d_type);
            offset[k] = m->d_member->offset;
        }
        Py_XDECREF(d);
        if (!ok) {
            PyErr_Format(PyExc_TypeError, "%s(): %.200s has no slot '%s'",
                         name, cls->tp_name, WIRE_NAMES[k]);
            return 0;
        }
    }
    return 1;
}

/* the record's five values (borrowed) when the kernel builds its object */
static int wire_values(PyObject *rec, PyObject **v)
{
    if (!PyDict_CheckExact(rec))
        return 0;
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(rec, &pos, &key, &value))
        if (!PyUnicode_CheckExact(key))
            return 0;
    for (int k = 0; k < WIRE_FIELDS; k++) {
        v[k] = PyDict_GetItemWithError(rec, wire_keys[k]);
        if (v[k] == NULL) {
            PyErr_Clear();
            return 0;
        }
    }
    if (!PyFloat_CheckExact(v[0]) || !PyFloat_CheckExact(v[1])
        || !PyFloat_CheckExact(v[2]) || !PyFloat_CheckExact(v[3])
        || !PyLong_CheckExact(v[4]))
        return 0;
    double x = PyFloat_AS_DOUBLE(v[0]), y = PyFloat_AS_DOUBLE(v[1]);
    double w = PyFloat_AS_DOUBLE(v[2]), t = PyFloat_AS_DOUBLE(v[3]);
    return isfinite(x) && isfinite(y) && w >= 0.0 && !isnan(t);
}

static PyObject *py_admit(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_admit() takes 3 arguments (%zd given)",
                            nargs);
    PyObject *records = args[0];
    if (!PyList_CheckExact(records))
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_admit(): expected a list of records, "
                            "got %.200s", Py_TYPE(records)->tp_name);
    if (!PyType_Check(args[1]))
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_admit(): expected a type, got %.200s",
                            Py_TYPE(args[1])->tp_name);
    PyTypeObject *cls = (PyTypeObject *)args[1];
    Py_ssize_t offset[WIRE_FIELDS];
    if (!slot_offsets("maxrs_admit", cls, offset))
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(records);
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    /* the order check: top is borrowed, from floor or from a record
       value the objects in out hold */
    PyObject *top = args[2];
    int ordered = PyFloat_CheckExact(top);
    double most = ordered ? PyFloat_AS_DOUBLE(top) : 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v[WIRE_FIELDS], *obj = NULL;
        /* re-read the size: an allocation may run a finalizer */
        if (i < PyList_GET_SIZE(records)
            && wire_values(PyList_GET_ITEM(records, i), v)) {
            for (int k = 0; k < WIRE_FIELDS; k++)
                Py_INCREF(v[k]);
            obj = cls->tp_alloc(cls, 0);
            if (obj == NULL) {
                for (int k = 0; k < WIRE_FIELDS; k++)
                    Py_DECREF(v[k]);
                Py_DECREF(out);
                return NULL;
            }
            /* the fresh slots are NULL: each takes its reference */
            for (int k = 0; k < WIRE_FIELDS; k++)
                *(PyObject **)((char *)obj + offset[k]) = v[k];
            double t = PyFloat_AS_DOUBLE(v[3]);
            if (t < most)
                ordered = 0;
            else if (t > most) {
                most = t;
                top = v[3];
            }
        }
        if (obj == NULL) {
            obj = Py_None;
            Py_INCREF(obj);
            ordered = 0;
        }
        PyList_SET_ITEM(out, i, obj);
    }
    return Py_BuildValue("(NO)", out, ordered ? top : Py_None);
}

/*
 * maxrs_columns(objects, cls): the column form of a list or tuple of
 * objects whose type is exactly cls and whose x, y, weight and
 * timestamp slots hold exact floats -- (oids, x, y, weight, timestamp),
 * the oids a new list of the oid slots' own objects and each float
 * column the little-endian IEEE-754 doubles in bytes -- walked once.
 * None for any other sequence, which the caller packs on its general
 * path (repro/core/objects.py; the reference port is columns).
 */
static void store_le(char *p, double v)
{
    memcpy(p, &v, sizeof v);
#if PY_BIG_ENDIAN
    for (int a = 0, b = sizeof v - 1; a < b; a++, b--) {
        char t = p[a];
        p[a] = p[b];
        p[b] = t;
    }
#endif
}

#define FLOAT_FIELDS 4

static PyObject *py_columns(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_columns() takes 2 arguments (%zd given)",
                            nargs);
    PyObject *objects = args[0];
    if (!PySequence_Check(objects))
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_columns(): expected a sequence of "
                            "objects, got %.200s",
                            Py_TYPE(objects)->tp_name);
    if (!PyType_Check(args[1]))
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_columns(): expected a type, got %.200s",
                            Py_TYPE(args[1])->tp_name);
    PyTypeObject *cls = (PyTypeObject *)args[1];
    Py_ssize_t offset[WIRE_FIELDS];
    if (!slot_offsets("maxrs_columns", cls, offset))
        return NULL;
    if (!PyList_CheckExact(objects) && !PyTuple_CheckExact(objects))
        Py_RETURN_NONE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(objects);
    PyObject *col[1 + FLOAT_FIELDS] = {NULL}, *result = NULL;
    PyObject **items;
    char *out[FLOAT_FIELDS];
    int ok;
    if ((col[0] = PyList_New(n)) == NULL)
        goto done;
    for (int k = 0; k < FLOAT_FIELDS; k++) {
        if ((col[k + 1] = PyBytes_FromStringAndSize(NULL, 8 * n)) == NULL)
            goto done;
        out[k] = PyBytes_AS_STRING(col[k + 1]);
    }
    /* no Python code runs past here, so the walk sees a fixed sequence;
       an allocation above may have run a finalizer that resized it */
    ok = PySequence_Fast_GET_SIZE(objects) == n;
    items = PySequence_Fast_ITEMS(objects);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        char *obj = (char *)items[i];
        if (!(ok = Py_IS_TYPE(items[i], cls)))
            break;
        PyObject *oid = *(PyObject **)(obj + offset[FLOAT_FIELDS]);
        ok = oid != NULL;
        for (int k = 0; ok && k < FLOAT_FIELDS; k++) {
            PyObject *v = *(PyObject **)(obj + offset[k]);
            ok = v != NULL && PyFloat_CheckExact(v);
            if (ok)
                store_le(out[k] + 8 * i, PyFloat_AS_DOUBLE(v));
        }
        if (ok) {
            Py_INCREF(oid);
            PyList_SET_ITEM(col[0], i, oid);
        }
    }
    result = ok ? PyTuple_Pack(1 + FLOAT_FIELDS, col[0], col[1], col[2],
                               col[3], col[4])
                : Py_NewRef(Py_None);
done:
    for (int k = 0; k <= FLOAT_FIELDS; k++)
        Py_XDECREF(col[k]);
    return result;
}

/*
 * maxrs_ints(values[, compact]): json.dumps(values) -- "[1, 2, 3]" --
 * of a list whose items are all exact ints that fit in 64 bits, written
 * in one pass, for the oid list of a checkpoint
 * (repro/resilience/checkpoint.py); with a true compact, the
 * separators=(",", ":") text "[1,2,3]", for the oid list of a WAL
 * record (repro/durability/record.py).  The reference port is ints.
 * None for any other list, which the caller gives to json.dumps.
 */
static PyObject *py_ints(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    if (nargs != 1 && nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_ints() takes 1 or 2 arguments "
                            "(%zd given)", nargs);
    PyObject *values = args[0];
    if (!PyList_CheckExact(values))
        return PyErr_Format(PyExc_TypeError,
                            "maxrs_ints(): expected a list, got %.200s",
                            Py_TYPE(values)->tp_name);
    int compact = nargs == 2 ? PyObject_IsTrue(args[1]) : 0;
    if (compact < 0)
        return NULL;
    /* a 64-bit int is at most 20 characters, then ", " */
    Py_ssize_t n = PyList_GET_SIZE(values);
    if (n > (PY_SSIZE_T_MAX - 2) / 22)
        return PyErr_NoMemory();
    char *buf = PyMem_Malloc(22 * n + 2), *p = buf;
    if (buf == NULL)
        return PyErr_NoMemory();
    *p++ = '[';
    /* nothing below runs Python code, so the list cannot change */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyList_GET_ITEM(values, i);
        int overflow;
        long long x = PyLong_CheckExact(v)
                          ? PyLong_AsLongLongAndOverflow(v, &overflow)
                          : (overflow = 1, 0);
        if (overflow) {
            PyMem_Free(buf);
            Py_RETURN_NONE;
        }
        if (i) {
            *p++ = ',';
            if (!compact)
                *p++ = ' ';
        }
        unsigned long long m = x < 0 ? 0ULL - (unsigned long long)x
                                     : (unsigned long long)x;
        char digits[20];
        int k = 0;
        do {
            digits[k++] = (char)('0' + m % 10);
            m /= 10;
        } while (m);
        if (x < 0)
            *p++ = '-';
        while (k)
            *p++ = digits[--k];
    }
    *p++ = ']';
    PyObject *text = PyUnicode_DecodeASCII(buf, p - buf, NULL);
    PyMem_Free(buf);
    return text;
}

#define ENTRY(fn, doc)                                                   \
    {"maxrs_" #fn, (PyCFunction)(void (*)(void))py_##fn, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(sweep, "maxrs_sweep(items, n, out) -> found"),
    ENTRY(topk, "maxrs_topk(items, n, out) -> count"),
    ENTRY(connect, "maxrs_connect(items, q, lo, hi, upper, dirty, hits) "
                   "-> count"),
    ENTRY(insert, "maxrs_insert(table, base, seqs, m, items, head, n, upper, "
                  "exact, dirty, hits) -> edges"),
    ENTRY(local, "maxrs_local(items, i, n, out) -> found"),
    ENTRY(cell, "maxrs_cell(items, head, n, x1, y1, x2, y2, upper, exact, "
                "out) -> anchor"),
    ENTRY(max, "maxrs_max(values, lo, hi) -> max(values[lo:hi])"),
    ENTRY(above, "maxrs_above(values, lo, hi, relax, rho) -> index"),
    ENTRY(route, "maxrs_route(objects, cls, hw, hh, cs, ox, oy, rows, r0, "
                 "cover, c0) -> pairs"),
    ENTRY(map, "maxrs_map(table, rows, cover, base, start, stop, touched) "
               "-> count"),
    ENTRY(purge, "maxrs_purge(table, cover, head, stop, expired_upto, held) "
                 "-> count"),
    ENTRY(pending, "maxrs_pending(table, c, out) -> count"),
    ENTRY(top, "maxrs_top(table) -> cell"),
    ENTRY(top_bound, "maxrs_top_bound(table) -> cell"),
    ENTRY(settle, "maxrs_settle(table, visited, n) -> None"),
    ENTRY(admit, "maxrs_admit(records, cls, floor) -> ([cls object or "
                 "None, ...], top or None)"),
    ENTRY(columns, "maxrs_columns(objects, cls) -> (oids, x, y, weight, "
                   "timestamp) or None"),
    ENTRY(ints, "maxrs_ints(values[, compact]) -> JSON text or None"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweep_module = {
    PyModuleDef_HEAD_INIT, "_sweep",
    "The compiled sweep kernel (repro.core.planesweep loads it).", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__sweep(void)
{
    for (int k = 0; k < WIRE_FIELDS; k++)
        if (wire_keys[k] == NULL
            && (wire_keys[k] = PyUnicode_InternFromString(WIRE_NAMES[k]))
                   == NULL)
            return NULL;
    return PyModule_Create(&sweep_module);
}
