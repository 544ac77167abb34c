/* Fused CSR kernels for the "vectorized" engine: thirteen steps, nine of
 * them phase kernels.  One polynomial step, `defective_step`, serves both
 * Linial's rounds and Kuhn's defective steps.
 *
 * Each kernel fuses the numpy step of the same name in `_numpy.py` (the
 * contract: arguments, in-place outputs, status values) into one pass over
 * the CSR arrays; the backend probe and tests/test_kernels.py hold every
 * kernel to its numpy step.  The per-node loops run in parallel and write
 * only cells owned by their own iteration, except where a comment argues
 * the race is benign; `psi_select` alone changes the data layout, as its
 * comment explains.  The steps at the end are not called by a phase: the
 * two L(G) builder steps `entry_twins` and `line_gather` (`line_csr.py`),
 * the unit-disk sweep `geo_pairs` (`graphs/generators.py`) and the level
 * view filter `label_filter` (`FastNetwork.filtered_by_labels`).  The last
 * two size their output from the data, so each is a count pass and a fill
 * pass, with the prefix sum and the allocations in the Python wrapper.
 * Built on demand by `_c_backend.py` with `gcc -O3 -fopenmp -shared -fPIC`
 * and loaded via ctypes; every entry point uses only int64/uint8/float64
 * pointers and int64/double scalars so the ABI stays trivial.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef int64_t i64;
typedef uint8_t u8;


void repro_set_threads(i64 n)
{
#ifdef _OPENMP
    if (n > 0)
        omp_set_num_threads((int)n);
#else
    (void)n;
#endif
}

i64 repro_max_threads(void)
{
#ifdef _OPENMP
    return (i64)omp_get_max_threads();
#else
    return 1;
#endif
}

/* Base-q digit rows of `colors - 1`, most significant digit last, for the
 * polynomial step: extracting digits once per node per round
 * (instead of once per neighbor-point visit) removes the divisions from
 * the innermost Horner loops. */
static i64 *digit_table(const i64 *colors, i64 n, i64 q, i64 num_digits)
{
    i64 *table = (i64 *)malloc((size_t)(n * num_digits) * sizeof(i64));
    if (table == NULL)
        return NULL;
#pragma omp parallel for schedule(static)
    for (i64 v = 0; v < n; v++) {
        i64 remaining = colors[v] - 1;
        i64 *row = table + v * num_digits;
        for (i64 j = 0; j < num_digits; j++) {
            row[j] = remaining % q;
            remaining /= q;
        }
    }
    return table;
}

/* Horner evaluation of one cached digit row at `point`. */
static inline i64 row_eval(const i64 *row, i64 point, i64 q, i64 num_digits)
{
    i64 result = 0;
    for (i64 j = num_digits - 1; j >= 0; j--)
        result = (result * point + row[j]) % q;
    return result;
}

/* One polynomial recoloring step (Kuhn's defective step; Linial's round is
 * the case with a collision-free point guaranteed): the first point with the
 * fewest collisions against differing neighbors.  Pass 1 stops a point at
 * its first collision and takes the first free point; a node with none
 * counts every point in pass 2, each count stopped once it reaches the best
 * so far.  (One loop with a cap of 1, then degree + 1, measured slower on
 * Linial's inputs.)  Reads `colors`, writes `out`: no cross-node hazards.
 * Returns 2 with `out` untouched when the digit table cannot be allocated. */
i64 defective_step(const i64 *indptr, const i64 *indices, const i64 *colors,
                   i64 n, i64 q, i64 num_digits, i64 *out)
{
    i64 *table = digit_table(colors, n, q, num_digits);
    if (table == NULL)
        return 2; /* out of memory: the wrapper falls back to numpy */
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 v = 0; v < n; v++) {
        i64 own = colors[v] - 1;
        i64 start = indptr[v], end = indptr[v + 1];
        const i64 *own_row = table + v * num_digits;
        i64 chosen_point = -1, chosen_value = 0;
        for (i64 point = 0; point < q; point++) {
            i64 own_value = row_eval(own_row, point, q, num_digits);
            int ok = 1;
            for (i64 e = start; e < end; e++) {
                i64 u = indices[e];
                if (colors[u] - 1 == own)
                    continue;
                if (row_eval(table + u * num_digits, point, q, num_digits)
                    == own_value) {
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                chosen_point = point;
                chosen_value = own_value;
                break;
            }
        }
        if (chosen_point < 0) {
            i64 best_count = end - start + 1;
            for (i64 point = 0; point < q; point++) {
                i64 own_value = row_eval(own_row, point, q, num_digits);
                i64 count = 0;
                for (i64 e = start; e < end && count < best_count; e++) {
                    i64 u = indices[e];
                    if (colors[u] - 1 != own
                        && row_eval(table + u * num_digits, point, q, num_digits)
                               == own_value)
                        count++;
                }
                if (count < best_count) {
                    best_count = count;
                    chosen_point = point;
                    chosen_value = own_value;
                }
            }
        }
        out[v] = chosen_point * q + chosen_value + 1;
    }
    free(table);
    return 0;
}

/* The iterative reduction, one eliminated class per round.  The recoloring
 * class is independent (the input coloring is legal), so no recoloring node
 * reads another recoloring node's color: the per-round loop is race-free. */
void iter_reduce(const i64 *indptr, const i64 *indices, i64 *colors, i64 n,
                 i64 palette, i64 target, i64 total_rounds, i64 *status)
{
    for (i64 round_index = 1; round_index <= total_rounds; round_index++) {
        i64 active = palette - round_index + 1;
#pragma omp parallel
        {
            u8 *taken = (u8 *)malloc((size_t)target);
#pragma omp for schedule(dynamic, 2048)
            for (i64 v = 0; v < n; v++) {
                if (colors[v] != active)
                    continue;
                memset(taken, 0, (size_t)target);
                for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
                    i64 c = colors[indices[e]];
                    if (c >= 1 && c <= target)
                        taken[c - 1] = 1;
                }
                i64 replacement = -1;
                for (i64 c = 0; c < target; c++) {
                    if (!taken[c]) {
                        replacement = c;
                        break;
                    }
                }
                if (replacement < 0)
                    status[0] = 1;
                else
                    colors[v] = replacement + 1;
            }
            free(taken);
        }
        if (status[0] != 0)
            return;
    }
}

/* The Kuhn-Wattenhofer block reduction, in place.  Adjacent recoloring
 * nodes are always in different blocks (equal block + offset would mean
 * equal colors on an edge), so the value a concurrent recoloring neighbor
 * holds -- old upper-half offset or new lower-half offset, both in the
 * *other* block -- never passes this node's same-block filter: the in-place
 * parallel round is benign.  Aligned int64 stores do not tear. */
void kw_reduce(const i64 *indptr, const i64 *indices, i64 *colors, i64 n,
               i64 k, i64 total_rounds, i64 *status)
{
    i64 block_width = 2 * k;
    /* Blocks and offsets are materialized once and maintained across
     * rounds (divisions happen only here and at compactions, not every
     * round); a neighbor's maintained pair is read under the same benign
     * race argument as its color: its block never changes mid-round, and
     * its offset only matters when the blocks match. */
    i64 *blocks = (i64 *)malloc((size_t)n * sizeof(i64));
    i64 *offsets = (i64 *)malloc((size_t)n * sizeof(i64));
    if (blocks == NULL || offsets == NULL) {
        free(blocks);
        free(offsets);
        status[0] = 2; /* out of memory: the wrapper falls back to numpy */
        return;
    }
#pragma omp parallel for schedule(static)
    for (i64 v = 0; v < n; v++) {
        blocks[v] = (colors[v] - 1) / block_width;
        offsets[v] = (colors[v] - 1) % block_width;
    }
    for (i64 round_index = 1; round_index <= total_rounds; round_index++) {
        i64 step = (round_index - 1) % k;
#pragma omp parallel
        {
            u8 *taken = (u8 *)malloc((size_t)k);
#pragma omp for schedule(dynamic, 2048)
            for (i64 v = 0; v < n; v++) {
                if (offsets[v] != k + step)
                    continue;
                i64 block = blocks[v];
                memset(taken, 0, (size_t)k);
                for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
                    i64 u = indices[e];
                    if (blocks[u] != block)
                        continue;
                    i64 neighbor_offset = offsets[u];
                    if (neighbor_offset < k)
                        taken[neighbor_offset] = 1;
                }
                i64 replacement = -1;
                for (i64 o = 0; o < k; o++) {
                    if (!taken[o]) {
                        replacement = o;
                        break;
                    }
                }
                if (replacement < 0) {
                    status[0] = 1;
                } else {
                    colors[v] = block * block_width + replacement + 1;
                    offsets[v] = replacement;
                }
            }
            free(taken);
        }
        if (status[0] != 0)
            break;
        if (step == k - 1) {
#pragma omp parallel for schedule(static)
            for (i64 v = 0; v < n; v++) {
                colors[v] = blocks[v] * k + offsets[v] + 1;
                blocks[v] = (colors[v] - 1) / block_width;
                offsets[v] = (colors[v] - 1) % block_width;
            }
        }
    }
    free(blocks);
    free(offsets);
}

/* Per line-graph node, its rank by unique id (= dense index) among the
 * incident edges at each endpoint that are its CSR neighbors (a filtered
 * view keeps one subgraph's edges).  Read-only over the shared columns, one
 * writer per row. */
void edge_rank(const i64 *indptr, const i64 *indices, const i64 *edge_u,
               const i64 *edge_v, i64 n, i64 *rank_u, i64 *rank_v)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 x = 0; x < n; x++) {
        i64 u = edge_u[x], v = edge_v[x];
        i64 count_u = 0, count_v = 0;
        for (i64 e = indptr[x]; e < indptr[x + 1]; e++) {
            i64 y = indices[e];
            if (y >= x)
                continue;
            i64 nu = edge_u[y], nv = edge_v[y];
            if (nu == u || nv == u)
                count_u++;
            if (nu == v || nv == v)
                count_v++;
        }
        rank_u[x] = count_u;
        rank_v[x] = count_v;
    }
}

/* Per-node psi counters live on the stack up to this many colors. */
#define PSI_STACK_COLORS 256

/* A selected node's psi color and depth, side by side: a lower neighbor's
 * pair is one load. */
typedef struct {
    int32_t psi, depth;
} psi_pick;

/* Algorithm 1's psi-selection, one sweep over the phi-classes (`phi`
 * itself is not passed: the classes carry all it decides).  One
 * parallel region spans the sweep; each class is a worksharing loop whose
 * closing barrier publishes its picks before the next class reads them.
 * A node writes only its own pick and reads only lower classes, so each
 * class loop is race-free.
 *
 * Layout: "phi(u) < phi(v)" is "class(u) < class(v)", so the sweep reads
 * a compact int32 class column and int32 picks (class, psi and depth are
 * all below n, and p is at most n), and prefetches the rows of the nodes
 * a few steps ahead.  Returns 0, or 2 when the scratch cannot be allocated
 * or n does not fit int32; `depth`/`psi` are then untouched. */
i64 psi_select(const i64 *indptr, const i64 *indices, const i64 *order,
               const i64 *class_ptr, i64 num_classes, i64 p, i64 *depth,
               i64 *psi)
{
    i64 n = class_ptr[num_classes];
    if (n >= INT32_MAX || p >= INT32_MAX)
        return 2;
    int32_t *cls = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    psi_pick *picks = (psi_pick *)malloc((size_t)(n + 1) * sizeof(psi_pick));
    i64 *heap = NULL;
    if (p > PSI_STACK_COLORS)
        heap = (i64 *)malloc((size_t)repro_max_threads() * (size_t)(p + 1) * sizeof(i64));
    if (cls == NULL || picks == NULL || (p > PSI_STACK_COLORS && heap == NULL)) {
        free(cls);
        free(picks);
        free(heap);
        return 2;
    }
    for (i64 k = 0; k < num_classes; k++)
        for (i64 i = class_ptr[k]; i < class_ptr[k + 1]; i++)
            cls[order[i]] = (int32_t)k;
#pragma omp parallel
    {
        i64 stack_counts[PSI_STACK_COLORS + 1];
        i64 *counts = stack_counts;
#ifdef _OPENMP
        if (heap != NULL)
            counts = heap + (i64)omp_get_thread_num() * (p + 1);
#else
        if (heap != NULL)
            counts = heap;
#endif
        for (i64 k = 0; k < num_classes; k++) {
            i64 end = class_ptr[k + 1];
#pragma omp for schedule(static)
            for (i64 i = class_ptr[k]; i < end; i++) {
                if (i + 16 < end)
                    __builtin_prefetch(indptr + order[i + 16]);
                if (i + 8 < end)
                    __builtin_prefetch(indices + indptr[order[i + 8]]);
                i64 v = order[i];
                i64 level = 0;
                memset(counts, 0, (size_t)(p + 1) * sizeof(i64));
                for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
                    i64 u = indices[e];
                    if (cls[u] < k) {
                        psi_pick pick = picks[u];
                        counts[pick.psi]++;
                        if (pick.depth + 1 > level)
                            level = pick.depth + 1;
                    }
                }
                i64 best = 1;
                for (i64 c = 2; c <= p; c++)
                    if (counts[c] < counts[best])
                        best = c;
                picks[v].psi = (int32_t)best;
                picks[v].depth = (int32_t)level;
            }
        }
#pragma omp for schedule(static)
        for (i64 v = 0; v < n; v++) {
            psi[v] = picks[v].psi;
            depth[v] = picks[v].depth;
        }
    }
    free(cls);
    free(picks);
    free(heap);
    return 0;
}

void luby_free_counts(const i64 *undecided, i64 m, const u8 *taken,
                      i64 palette, i64 *free_counts)
{
#pragma omp parallel for schedule(static)
    for (i64 i = 0; i < m; i++) {
        const u8 *row = taken + undecided[i] * palette;
        i64 count = 0;
        for (i64 c = 0; c < palette; c++)
            if (!row[c])
                count++;
        free_counts[i] = count;
    }
}

void luby_candidates(const i64 *lanes, i64 m, const i64 *picks,
                     const u8 *taken, i64 palette, i64 *candidate)
{
#pragma omp parallel for schedule(static)
    for (i64 i = 0; i < m; i++) {
        i64 v = lanes[i];
        const u8 *row = taken + v * palette;
        i64 pick = picks[i], seen = 0;
        for (i64 c = 0; c < palette; c++) {
            if (!row[c]) {
                if (seen == pick) {
                    candidate[v] = c + 1;
                    break;
                }
                seen++;
            }
        }
    }
}

/* Two announcers sharing an undecided neighbor write different columns of
 * its row (their finals differ -- they kept in the same round without a
 * conflict) or the same byte with the same value: idempotent byte stores,
 * benign under concurrency. */
void luby_absorb(const i64 *announce, i64 m, const i64 *indptr,
                 const i64 *indices, const i64 *final_color,
                 const u8 *undecided_mask, u8 *taken, i64 palette)
{
#pragma omp parallel for schedule(dynamic, 256)
    for (i64 i = 0; i < m; i++) {
        i64 a = announce[i];
        i64 c = final_color[a] - 1;
        for (i64 e = indptr[a]; e < indptr[a + 1]; e++) {
            i64 neighbor = indices[e];
            if (undecided_mask[neighbor])
                taken[neighbor * palette + c] = 1;
        }
    }
}

void luby_resolve(const i64 *undecided, i64 m, const i64 *indptr,
                  const i64 *indices, const i64 *candidate, const u8 *taken,
                  i64 palette, u8 *keep)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 i = 0; i < m; i++) {
        i64 v = undecided[i];
        i64 c = candidate[v];
        if (c == 0) {
            keep[i] = 0;
            continue;
        }
        u8 ok = 1;
        if (taken[v * palette + c - 1]) {
            ok = 0;
        } else {
            for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
                if (candidate[indices[e]] == c) {
                    ok = 0;
                    break;
                }
            }
        }
        keep[i] = ok;
    }
}

/* Canonical-edge index and twin slots of every entry of an ascending-row
 * CSR, in one sequential pass.  Forward entries u -> v (u < v) count off
 * 0..m-1 in CSR order.  Row v lists its backward entries v -> u (u < v)
 * first, in ascending u, and the rows are walked in ascending u, so the
 * twin of forward entry u -> v is the next unmatched backward entry of row
 * v: slot cursor[v]++.  Returns 0, or 2 when the cursor cannot be
 * allocated; `eid`/`own` are then untouched. */
i64 entry_twins(const i64 *indptr, const i64 *indices, i64 n, i64 *eid,
                i64 *own)
{
    i64 *cursor = (i64 *)malloc((size_t)(n + 1) * sizeof(i64));
    if (cursor == NULL)
        return 2;
    memcpy(cursor, indptr, (size_t)n * sizeof(i64));
    i64 edge = 0;
    for (i64 u = 0; u < n; u++) {
        for (i64 s = indptr[u]; s < indptr[u + 1]; s++) {
            i64 v = indices[s];
            if (v <= u)
                continue;
            i64 twin = cursor[v]++;
            eid[s] = eid[twin] = edge;
            own[2 * edge] = s;
            own[2 * edge + 1] = twin;
            edge++;
        }
    }
    free(cursor);
    return 0;
}

/* The L(G) incidence gather: row e = (u, v) copies `eid` over G's row
 * chunk_rows[2e] (u), then over row chunk_rows[2e + 1] (v), each time
 * skipping the edge's own slot own[c].  Edge e writes only its own row
 * out[line_indptr[e] .. line_indptr[e + 1]). */
void line_gather(const i64 *indptr, const i64 *chunk_rows, const i64 *own,
                 const i64 *eid, const i64 *line_indptr, i64 m, i64 *out)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 e = 0; e < m; e++) {
        i64 *dst = out + line_indptr[e];
        for (i64 c = 2 * e; c < 2 * e + 2; c++) {
            i64 row = chunk_rows[c], skip = own[c];
            for (i64 s = indptr[row]; s < skip; s++)
                *dst++ = eid[s];
            for (i64 s = skip + 1; s < indptr[row + 1]; s++)
                *dst++ = eid[s];
        }
    }
}

/* The unit-disk cell sweep of `_geometric_edges`, over points sorted by
 * cell id cx * cells + cy; `start[k]` is the first point of cell k, with
 * two empty columns past the grid.  Range dx = 0, 1, 2 of point i is its
 * own column from i + 1, then rows cy - 2 .. cy + 2 of column cx + dx,
 * clipped to the grid.  Shared by both passes so they test the same
 * candidates. */
static inline void geo_range(const i64 *cx, const i64 *cy, const i64 *start,
                             i64 cells, i64 i, i64 dx, i64 *lo, i64 *hi)
{
    i64 column = (cx[i] + dx) * cells;
    i64 row_lo = cy[i] - 2 > 0 ? cy[i] - 2 : 0;
    i64 row_hi = (cy[i] + 2 < cells - 1 ? cy[i] + 2 : cells - 1) + 1;
    *lo = dx == 0 ? i + 1 : start[column + row_lo];
    *hi = start[column + row_hi];
}

/* The float64 test of the numpy step, term by term: `_CFLAGS` keeps
 * -std=c99 and no -march, so GCC contracts no multiply-add here and the
 * sum rounds exactly as numpy's does. */
static inline int geo_close(const double *x, const double *y, i64 i, i64 j,
                            double radius_sq)
{
    double ddx = x[j] - x[i], ddy = y[j] - y[i];
    return ddx * ddx + ddy * ddy <= radius_sq;
}

/* Pass one of `geo_pairs`: counts[dx * n + i] is the number of close
 * forward pairs of point i in range dx.  Point i writes its own cells. */
void geo_pairs_count(const double *x, const double *y, const i64 *cx,
                     const i64 *cy, const i64 *start, i64 n, i64 cells,
                     double radius_sq, i64 *counts)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 i = 0; i < n; i++) {
        for (i64 dx = 0; dx < 3; dx++) {
            i64 lo, hi, count = 0;
            geo_range(cx, cy, start, cells, i, dx, &lo, &hi);
            for (i64 j = lo; j < hi; j++)
                count += geo_close(x, y, i, j, radius_sq);
            counts[dx * n + i] = count;
        }
    }
}

/* Pass two: the pairs of (dx, i) from offsets[dx * n + i] on, mapped back
 * to input indices through `by_cell`.  The offsets run range-major, so the
 * output is the numpy step's, entry for entry. */
void geo_pairs_fill(const double *x, const double *y, const i64 *cx,
                    const i64 *cy, const i64 *start, i64 n, i64 cells,
                    double radius_sq, const i64 *by_cell, const i64 *offsets,
                    i64 *u, i64 *v)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 i = 0; i < n; i++) {
        for (i64 dx = 0; dx < 3; dx++) {
            i64 lo, hi, slot = offsets[dx * n + i];
            geo_range(cx, cy, start, cells, i, dx, &lo, &hi);
            for (i64 j = lo; j < hi; j++) {
                if (geo_close(x, y, i, j, radius_sq)) {
                    u[slot] = by_cell[i];
                    v[slot++] = by_cell[j];
                }
            }
        }
    }
}

/* Pass one of `label_filter`: counts[v] is the number of entries v -> w of
 * row v with labels[v] == labels[w]. */
void label_filter_count(const i64 *indptr, const i64 *indices,
                        const i64 *labels, i64 n, i64 *counts)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 v = 0; v < n; v++) {
        i64 own = labels[v], count = 0;
        for (i64 e = indptr[v]; e < indptr[v + 1]; e++)
            count += labels[indices[e]] == own;
        counts[v] = count;
    }
}

/* Pass two: row v's equal-label entries, in row order, from new_indptr[v]
 * on.  Row v writes only out[new_indptr[v] .. new_indptr[v + 1]). */
void label_filter_fill(const i64 *indptr, const i64 *indices,
                       const i64 *labels, i64 n, const i64 *new_indptr,
                       i64 *out)
{
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 v = 0; v < n; v++) {
        i64 own = labels[v], slot = new_indptr[v];
        for (i64 e = indptr[v]; e < indptr[v + 1]; e++)
            if (labels[indices[e]] == own)
                out[slot++] = indices[e];
    }
}
