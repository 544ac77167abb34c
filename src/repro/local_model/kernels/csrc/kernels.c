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
 *
 * The two phase kernels that carry the time keep divisions out of their
 * inner loops.  `defective_step` reduces each Horner step with Lemire's
 * fastmod on a uint32 digit table, exact while q < 2^16; `kw_reduce` runs
 * all its rounds in one parallel region on an int32 color column, visiting
 * only each round's bucket of recoloring nodes.  Past those ranges (and
 * when scratch cannot be allocated) a kernel returns status 2 with its
 * outputs untouched, and the wrapper runs the numpy step: there is no
 * second C code path.
 *
 * Built on demand by `_c_backend.py` with `gcc -O3 -fopenmp -shared -fPIC`
 * and loaded via ctypes; every entry point uses only int64/uint8/float64
 * pointers and int64/double scalars so the ABI stays trivial (the int32
 * and uint32 columns are kernel-internal scratch).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef int64_t i64;
typedef uint8_t u8;
typedef uint32_t u32;


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

/* The index of the calling thread in its team (0 without OpenMP): the slot
 * of its per-thread scratch. */
static inline i64 thread_index(void)
{
#ifdef _OPENMP
    return (i64)omp_get_thread_num();
#else
    return 0;
#endif
}

/* Lemire's fastmod (Lemire, Kaser & Kurz, "Faster Remainder by Direct
 * Computation", 2019): with M = ceil(2^64 / d), a mod d is the high 64 bits
 * of (M * a mod 2^64) * d, exact for every 32-bit a and d (d = 1 wraps M to
 * 0, and the remainder is 0).  One multiply-high instead of a hardware
 * division; `__uint128_t` is a GCC/Clang extension that -std=c99 accepts. */
static inline uint64_t fastmod_magic(u32 d)
{
    return UINT64_MAX / d + 1;
}

static inline u32 fastmod(u32 a, uint64_t magic, u32 d)
{
    return (u32)(((__uint128_t)(magic * a) * d) >> 64);
}

/* The polynomial step's fastmod range: every Horner intermediate of a
 * GF(q) evaluation is at most (q - 1) * (q - 1) + (q - 1) = q^2 - q, below
 * 2^32 exactly when q < 2^16. */
#define FASTMOD_Q_LIMIT 65536

/* Base-q digit rows of `colors - 1`, most significant digit last, for the
 * polynomial step: extracting digits once per node per round
 * (instead of once per neighbor-point visit) keeps the divisions out of
 * the Horner loops.  Digits are below q < 2^16, so a row is uint32. */
static u32 *digit_table(const i64 *colors, i64 n, i64 q, i64 num_digits)
{
    u32 *table = (u32 *)malloc((size_t)(n * num_digits) * sizeof(u32));
    if (table == NULL)
        return NULL;
#pragma omp parallel for schedule(static)
    for (i64 v = 0; v < n; v++) {
        i64 remaining = colors[v] - 1;
        u32 *row = table + v * num_digits;
        for (i64 j = 0; j < num_digits; j++) {
            row[j] = (u32)(remaining % q);
            remaining /= q;
        }
    }
    return table;
}

/* Horner evaluation of one cached digit row at `point` over GF(q), each
 * step reduced by fastmod: exact for q < FASTMOD_Q_LIMIT. */
static inline u32 row_eval(const u32 *row, u32 point, uint64_t magic, u32 q,
                           i64 num_digits)
{
    u32 result = 0;
    for (i64 j = num_digits - 1; j >= 0; j--)
        result = fastmod(result * point + row[j], magic, q);
    return result;
}

/* One polynomial recoloring step (Kuhn's defective step; Linial's round is
 * the case with a collision-free point guaranteed): the first point with the
 * fewest collisions against differing neighbors.  Pass 1 stops a point at
 * its first collision and takes the first free point; a node with none
 * counts every point in pass 2, each count stopped once it reaches the best
 * so far.  (One loop with a cap of 1, then degree + 1, measured slower on
 * Linial's inputs.)  Reads `colors`, writes `out`: no cross-node hazards.
 * Returns 2 with `out` untouched when q is past the fastmod range or the
 * digit table cannot be allocated; the wrapper then runs the numpy step. */
i64 defective_step(const i64 *indptr, const i64 *indices, const i64 *colors,
                   i64 n, i64 q, i64 num_digits, i64 *out)
{
    if (q >= FASTMOD_Q_LIMIT)
        return 2;
    u32 *table = digit_table(colors, n, q, num_digits);
    if (table == NULL)
        return 2;
    u32 modulus = (u32)q;
    uint64_t magic = fastmod_magic(modulus);
#pragma omp parallel for schedule(dynamic, 1024)
    for (i64 v = 0; v < n; v++) {
        i64 own = colors[v] - 1;
        i64 start = indptr[v], end = indptr[v + 1];
        const u32 *own_row = table + v * num_digits;
        i64 chosen_point = -1, chosen_value = 0;
        for (u32 point = 0; point < modulus; point++) {
            u32 own_value = row_eval(own_row, point, magic, modulus, num_digits);
            int ok = 1;
            for (i64 e = start; e < end; e++) {
                i64 u = indices[e];
                if (colors[u] - 1 == own)
                    continue;
                if (row_eval(table + u * num_digits, point, magic, modulus, num_digits)
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
            for (u32 point = 0; point < modulus; point++) {
                u32 own_value = row_eval(own_row, point, magic, modulus, num_digits);
                i64 count = 0;
                for (i64 e = start; e < end && count < best_count; e++) {
                    i64 u = indices[e];
                    if (colors[u] - 1 != own
                        && row_eval(table + u * num_digits, point, magic, modulus,
                                    num_digits)
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
 * reads another recoloring node's color: the per-round loop is race-free.
 * The per-thread `taken` rows are allocated once, before the first round;
 * when they cannot be, status[0] is 2 with `colors` untouched and the
 * wrapper runs the numpy step. */
void iter_reduce(const i64 *indptr, const i64 *indices, i64 *colors, i64 n,
                 i64 palette, i64 target, i64 total_rounds, i64 *status)
{
    u8 *scratch = (u8 *)malloc((size_t)(repro_max_threads() * target));
    if (scratch == NULL) {
        status[0] = 2;
        return;
    }
    for (i64 round_index = 1; round_index <= total_rounds; round_index++) {
        i64 active = palette - round_index + 1;
#pragma omp parallel
        {
            u8 *taken = scratch + thread_index() * target;
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
        }
        if (status[0] != 0)
            break;
    }
    free(scratch);
}

/* The Kuhn-Wattenhofer block reduction, in place, all rounds in one
 * parallel region.  A color is block * 2k + offset + 1; round `step` of
 * each k-round iteration moves the nodes at offset k + step to their
 * block's first free lower offset, and a completed iteration compacts
 * (block, lower offset) into block * k + offset.
 *
 * The rounds work on a 0-based int32 color column `col`.  Each iteration
 * starts by counting-sorting the upper-half nodes by offset (fastmod by
 * 2k, exact on 32-bit values), so round `step` visits only its bucket,
 * about 1/(2k) of the nodes; no node enters the upper half mid-iteration
 * (a recolored node takes a lower offset), so the buckets hold for all k
 * rounds.  With `base` the first color of node v's block, a neighbor u
 * holds lower offset d = col[u] - base of that block exactly when
 * 0 <= d < k: one range check per neighbor, no division.  A bucket's
 * rows lie far apart in `indices`, so the loop prefetches the rows of the
 * nodes a few steps ahead, as `psi_select` does.
 *
 * Races: adjacent recoloring nodes of one round are always in different
 * blocks (equal block and offset would mean equal colors on an edge), so
 * the value a concurrent recoloring neighbor holds -- its old upper-half
 * color or its new lower-half one, both inside *its own* block -- fails
 * this node's range check either way: the in-place round is benign.
 * Aligned int32 stores do not tear, and each round's closing barrier
 * publishes its colors to the next round.  A node with no free offset
 * records its round in `failed`; every thread reads it after that round's
 * barrier, and only a value equal to the round just run stops the sweep,
 * so a thread already in a later round cannot stop a slower one early.
 *
 * status[0] is 1 when a node found no free offset (the sweep stops after
 * that round, as the numpy step does), or 2 with `colors` untouched when
 * the scratch cannot be allocated or n, k or a color does not fit int32;
 * the wrapper then runs the numpy step. */
void kw_reduce(const i64 *indptr, const i64 *indices, i64 *colors, i64 n,
               i64 k, i64 total_rounds, i64 *status)
{
    if (n > INT32_MAX || k > INT32_MAX) {
        status[0] = 2;
        return;
    }
    int32_t *col = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    int32_t *order = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    i64 *bucket = (i64 *)malloc((size_t)(k + 2) * sizeof(i64));
    u8 *scratch = (u8 *)malloc((size_t)(repro_max_threads() * k));
    int fits = col != NULL && order != NULL && bucket != NULL && scratch != NULL;
    if (fits) {
#pragma omp parallel for schedule(static) reduction(&&:fits)
        for (i64 v = 0; v < n; v++) {
            if (colors[v] < 1 || colors[v] > INT32_MAX)
                fits = 0;
            else
                col[v] = (int32_t)(colors[v] - 1);
        }
    }
    if (!fits) {
        free(col);
        free(order);
        free(bucket);
        free(scratch);
        status[0] = 2;
        return;
    }
    u32 width = (u32)(2 * k);
    uint64_t magic = fastmod_magic(width);
    i64 failed = 0;
#pragma omp parallel
    {
        u8 *taken = scratch + thread_index() * k;
        for (i64 first = 1; first <= total_rounds; first += k) {
            /* Bucket s spans order[bucket[s] .. bucket[s + 1]). */
#pragma omp single
            {
                memset(bucket, 0, (size_t)(k + 2) * sizeof(i64));
                for (i64 v = 0; v < n; v++) {
                    i64 offset = fastmod((u32)col[v], magic, width);
                    if (offset >= k)
                        bucket[offset - k + 2]++;
                }
                for (i64 s = 2; s <= k + 1; s++)
                    bucket[s] += bucket[s - 1];
                for (i64 v = 0; v < n; v++) {
                    i64 offset = fastmod((u32)col[v], magic, width);
                    if (offset >= k)
                        order[bucket[offset - k + 1]++] = (int32_t)v;
                }
            }
            i64 steps = total_rounds - first + 1 < k ? total_rounds - first + 1 : k;
            int stopped = 0;
            for (i64 step = 0; step < steps && !stopped; step++) {
                i64 lo = bucket[step], hi = bucket[step + 1];
                if (lo == hi)
                    continue; /* the same test in every thread */
#pragma omp for schedule(dynamic, 64)
                for (i64 i = lo; i < hi; i++) {
                    if (i + 16 < hi)
                        __builtin_prefetch(indptr + order[i + 16]);
                    if (i + 8 < hi) {
                        const i64 *ahead = indices + indptr[order[i + 8]];
                        __builtin_prefetch(ahead);
                        __builtin_prefetch(ahead + 8);
                    }
                    i64 v = order[i];
                    i64 base = (i64)col[v] - k - step;
                    memset(taken, 0, (size_t)k);
                    for (i64 e = indptr[v]; e < indptr[v + 1]; e++) {
                        i64 d = (i64)col[indices[e]] - base;
                        if (d >= 0 && d < k)
                            taken[d] = 1;
                    }
                    i64 replacement = 0;
                    while (replacement < k && taken[replacement])
                        replacement++;
                    if (replacement < k) {
                        col[v] = (int32_t)(base + replacement);
                    } else {
#pragma omp atomic write
                        failed = first + step;
                    }
                }
                i64 seen;
#pragma omp atomic read
                seen = failed;
                stopped = seen == first + step;
            }
            if (stopped)
                break;
            if (steps == k) {
                /* c = block * 2k + offset with offset < k, so
                 * (c + offset) / 2 = block * k + offset. */
#pragma omp for schedule(static)
                for (i64 v = 0; v < n; v++) {
                    u32 c = (u32)col[v];
                    col[v] = (int32_t)((c + fastmod(c, magic, width)) / 2);
                }
            }
        }
#pragma omp for schedule(static)
        for (i64 v = 0; v < n; v++)
            colors[v] = (i64)col[v] + 1;
    }
    if (failed != 0)
        status[0] = 1;
    free(col);
    free(order);
    free(bucket);
    free(scratch);
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
        if (heap != NULL)
            counts = heap + thread_index() * (p + 1);
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
