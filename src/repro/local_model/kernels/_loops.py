"""Reference loop bodies for the fused compiled kernels.

Each function here is the *semantic source of truth* for one fused kernel:
a plain-Python loop nest over CSR arrays (no dicts, no object arrays, no
fancy indexing inside the node loops).  The C backend (``csrc/kernels.c``)
is a line-by-line transcription; the backend probe and
``tests/test_kernels.py`` hold it to these loops on adversarial CSRs, and
the engine-equivalence tests run whole pipelines on them.

They are **not** an execution backend themselves -- pure-Python loops over
``n`` nodes would be slower than the numpy ``vector_run`` steps they fuse
-- but they run everywhere, so the correctness story never depends on which
accelerators the machine has.

Conventions shared by every kernel:

* CSR arrays (``indptr``, ``indices``) and all color/id columns are
  ``int64``; flag/matrix scratch (``taken``, ``undecided_mask``, ``keep``)
  is ``uint8``.
* Colors are 1-based; ``0`` encodes "none" where a sentinel is needed.
* The per-node loops (parallel under OpenMP in the C transcription) only
  ever write cells owned by their own iteration, except where a comment
  argues the race is benign (idempotent byte stores, or values provably
  irrelevant to every concurrent reader).
* Failure is reported through a status return (``0`` ok), never an
  exception: the phases raise the scalar engines' exact errors.
"""

from __future__ import annotations

import numpy as np

#: Names of the kernels a backend must provide (the phases call them by
#: name on ``VectorContext.kernels``).
KERNEL_NAMES = (
    "linial_round",
    "defective_step",
    "iter_reduce",
    "kw_reduce",
    "edge_rank",
    "psi_select",
    "luby_free_counts",
    "luby_candidates",
    "luby_absorb",
    "luby_resolve",
)


def _digit_table(colors, q, num_digits):
    """Base-q digit rows of ``colors - 1``, most significant digit last.

    Shared by the polynomial kernels: extracting digits once per node per
    round (instead of once per neighbor-point visit) removes the divisions
    from the innermost Horner loops.
    """
    n = colors.shape[0]
    table = np.empty((n, num_digits), dtype=np.int64)
    for v in range(n):
        remaining = colors[v] - 1
        for j in range(num_digits):
            table[v, j] = remaining % q
            remaining //= q
    return table


def linial_round(indptr, indices, uids, colors, q, num_digits, out):
    """One Linial recoloring round, fused per node.

    For every node: find the smallest evaluation point ``a`` in ``0..q-1``
    at which its color polynomial differs from those of *all* neighbors
    holding a different color, falling back to ``uid % q`` when no point is
    free (unreachable for legal inputs), and write the new color
    ``a * q + g(a) + 1`` to ``out``.  Reads ``colors``, writes ``out`` --
    no cross-node hazards.
    """
    n = indptr.shape[0] - 1
    table = _digit_table(colors, q, num_digits)
    for v in range(n):
        own = colors[v] - 1
        start = indptr[v]
        end = indptr[v + 1]
        chosen_point = np.int64(-1)
        chosen_value = np.int64(0)
        for point in range(q):
            # Horner from the most significant cached base-q digit.
            own_value = np.int64(0)
            for j in range(num_digits - 1, -1, -1):
                own_value = (own_value * point + table[v, j]) % q
            ok = True
            for e in range(start, end):
                u = indices[e]
                if colors[u] - 1 == own:
                    continue
                other_value = np.int64(0)
                for j in range(num_digits - 1, -1, -1):
                    other_value = (other_value * point + table[u, j]) % q
                if other_value == own_value:
                    ok = False
                    break
            if ok:
                chosen_point = point
                chosen_value = own_value
                break
        if chosen_point < 0:
            point = uids[v] % q
            own_value = np.int64(0)
            for j in range(num_digits - 1, -1, -1):
                own_value = (own_value * point + table[v, j]) % q
            chosen_point = point
            chosen_value = own_value
        out[v] = chosen_point * q + chosen_value + 1


def defective_step(indptr, indices, colors, q, num_digits, out):
    """One Kuhn defective polynomial step, fused per node.

    For every node: over points ``0..q-1``, count collisions (differing
    neighbors whose polynomial agrees at that point), keep the first point
    minimizing the count under *strict* improvement, stop early at zero
    collisions, and write ``best_point * q + g(best_point) + 1``.
    """
    n = indptr.shape[0] - 1
    table = _digit_table(colors, q, num_digits)
    for v in range(n):
        own = colors[v] - 1
        start = indptr[v]
        end = indptr[v + 1]
        best_point = np.int64(0)
        best_value = np.int64(0)
        best_count = np.int64(-1)
        for point in range(q):
            own_value = np.int64(0)
            for j in range(num_digits - 1, -1, -1):
                own_value = (own_value * point + table[v, j]) % q
            count = np.int64(0)
            for e in range(start, end):
                u = indices[e]
                if colors[u] - 1 == own:
                    continue
                other_value = np.int64(0)
                for j in range(num_digits - 1, -1, -1):
                    other_value = (other_value * point + table[u, j]) % q
                if other_value == own_value:
                    count += 1
            if best_count < 0 or count < best_count:
                best_point = point
                best_value = own_value
                best_count = count
                if count == 0:
                    break
        out[v] = best_point * q + best_value + 1


def iter_reduce(indptr, indices, colors, palette, target, total_rounds, status):
    """The full iterative color reduction, one eliminated class per round.

    Round ``r`` recolors the class ``palette - r + 1`` to each node's first
    free color in ``1..target``.  The recoloring class is independent (the
    input coloring is legal), so no recoloring node reads another recoloring
    node's color: the per-round node loop is race-free.  On a node with no
    free color, ``status[0]`` is set and the sweep stops after that round.
    """
    n = indptr.shape[0] - 1
    for round_index in range(1, total_rounds + 1):
        active = palette - round_index + 1
        for v in range(n):
            if colors[v] != active:
                continue
            taken = np.zeros(target, dtype=np.uint8)
            for e in range(indptr[v], indptr[v + 1]):
                c = colors[indices[e]]
                if 1 <= c <= target:
                    taken[c - 1] = 1
            replacement = np.int64(-1)
            for c in range(target):
                if taken[c] == 0:
                    replacement = c
                    break
            if replacement < 0:
                status[0] = 1
            else:
                colors[v] = replacement + 1
        if status[0] != 0:
            return


def kw_reduce(indptr, indices, colors, k, total_rounds, status):
    """The full Kuhn-Wattenhofer block reduction.

    Round ``r`` (``step = (r-1) % k``) recolors every node at block offset
    ``k + step`` to its block's first free lower-half offset; when
    ``step == k - 1`` the (block, lower-offset) pairs are compacted into a
    palette of ``k`` colors per block.  Adjacent recoloring nodes are
    always in different blocks (equal block + offset would mean equal
    colors on an edge), so the value a concurrent recoloring neighbor holds
    -- old upper-half offset or new lower-half offset, both in the *other*
    block -- never passes this node's same-block filter: the in-place
    parallel round is benign.  Aligned int64 stores do not tear.
    """
    n = indptr.shape[0] - 1
    block_width = 2 * k
    # Blocks and offsets are materialized once and maintained across rounds
    # (divisions happen only here and at compactions, not every round).  A
    # neighbor's maintained pair is read under the same benign-race argument
    # as its color: its block never changes mid-round, and its offset only
    # matters when the blocks match, which concurrent recoloring excludes.
    blocks = np.empty(n, dtype=np.int64)
    offsets = np.empty(n, dtype=np.int64)
    for v in range(n):
        blocks[v] = (colors[v] - 1) // block_width
        offsets[v] = (colors[v] - 1) % block_width
    for round_index in range(1, total_rounds + 1):
        step = (round_index - 1) % k
        for v in range(n):
            if offsets[v] != k + step:
                continue
            block = blocks[v]
            taken = np.zeros(k, dtype=np.uint8)
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if blocks[u] != block:
                    continue
                neighbor_offset = offsets[u]
                if neighbor_offset < k:
                    taken[neighbor_offset] = 1
            replacement = np.int64(-1)
            for o in range(k):
                if taken[o] == 0:
                    replacement = o
                    break
            if replacement < 0:
                status[0] = 1
            else:
                colors[v] = block * block_width + replacement + 1
                offsets[v] = replacement
        if status[0] != 0:
            return
        if step == k - 1:
            for v in range(n):
                colors[v] = blocks[v] * k + offsets[v] + 1
                blocks[v] = (colors[v] - 1) // block_width
                offsets[v] = (colors[v] - 1) % block_width


def edge_rank(
    indptr, indices, edge_u, edge_v, sort_rank, codes, has_codes, rank_u, rank_v
):
    """Per line-graph node, its rank among same-class incident edges.

    ``rank_u[x]`` / ``rank_v[x]`` count the same-class CSR neighbors of
    ``x`` that sort strictly before it (``sort_rank``) and share endpoint
    ``edge_u[x]`` / ``edge_v[x]``.  When ``has_codes`` is 0 the class
    filter is skipped (``codes`` may be a dummy array).  Read-only over the
    shared columns, one writer per row.
    """
    n = indptr.shape[0] - 1
    for x in range(n):
        u = edge_u[x]
        v = edge_v[x]
        own_rank = sort_rank[x]
        count_u = np.int64(0)
        count_v = np.int64(0)
        for e in range(indptr[x], indptr[x + 1]):
            y = indices[e]
            if has_codes != 0 and codes[y] != codes[x]:
                continue
            if sort_rank[y] >= own_rank:
                continue
            nu = edge_u[y]
            nv = edge_v[y]
            if nu == u or nv == u:
                count_u += 1
            if nu == v or nv == v:
                count_v += 1
        rank_u[x] = count_u
        rank_v[x] = count_v


def psi_select(indptr, indices, phi, order, class_ptr, p, depth, psi):
    """Algorithm 1's psi-selection as one sweep over the phi-classes.

    ``order`` lists the nodes by ascending ``phi``; class ``k`` is
    ``order[class_ptr[k]:class_ptr[k + 1]]``.  Every node of a class counts
    the psi-colors of its neighbors with a smaller ``phi``, takes the first
    least-used color in ``1..p`` and the depth ``1 + max`` of theirs (0
    without such neighbors).  A node writes only its own ``depth``/``psi``
    and reads only lower classes, which are final: the per-class node loop
    is race-free (Lemma 3.2).  Returns the status ``0``.
    """
    for k in range(class_ptr.shape[0] - 1):
        for i in range(class_ptr[k], class_ptr[k + 1]):
            v = order[i]
            own = phi[v]
            counts = np.zeros(p, dtype=np.int64)
            level = np.int64(0)
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if phi[u] < own:
                    counts[psi[u] - 1] += 1
                    if depth[u] + 1 > level:
                        level = depth[u] + 1
            best = np.int64(0)
            for c in range(1, p):
                if counts[c] < counts[best]:
                    best = c
            depth[v] = level
            psi[v] = best + 1
    return 0


def luby_free_counts(undecided, taken, palette, free_counts):
    """``free_counts[i]`` = number of untaken palette colors of node ``undecided[i]``."""
    m = undecided.shape[0]
    for i in range(m):
        v = undecided[i]
        count = np.int64(0)
        for c in range(palette):
            if taken[v, c] == 0:
                count += 1
        free_counts[i] = count


def luby_candidates(lanes, picks, taken, palette, candidate):
    """``candidate[lanes[i]]`` = the ``(picks[i]+1)``-th free color of that node."""
    m = lanes.shape[0]
    for i in range(m):
        v = lanes[i]
        pick = picks[i]
        seen = np.int64(0)
        for c in range(palette):
            if taken[v, c] == 0:
                if seen == pick:
                    candidate[v] = c + 1
                    break
                seen += 1


def luby_absorb(announce, indptr, indices, final, undecided_mask, taken):
    """Scatter announced finals into the undecided neighbors' taken rows.

    Two announcers sharing an undecided neighbor write different columns of
    its row (their finals differ -- they kept in the same round without a
    conflict) or the same byte with the same value: idempotent byte stores,
    benign under concurrency.
    """
    m = announce.shape[0]
    for i in range(m):
        a = announce[i]
        c = final[a] - 1
        for e in range(indptr[a], indptr[a + 1]):
            neighbor = indices[e]
            if undecided_mask[neighbor] != 0:
                taken[neighbor, c] = 1


def luby_resolve(undecided, indptr, indices, candidate, taken, keep):
    """``keep[i]`` = 1 iff node ``undecided[i]`` keeps its candidate this round.

    A node keeps when it drew a candidate, no neighbor drew the same one
    (decided neighbors hold candidate 0, so they never match), and the
    candidate is not already taken.  Read-only over the shared columns.
    """
    m = undecided.shape[0]
    for i in range(m):
        v = undecided[i]
        c = candidate[v]
        if c == 0:
            keep[i] = 0
            continue
        ok = np.uint8(1)
        if taken[v, c - 1] != 0:
            ok = np.uint8(0)
        else:
            for e in range(indptr[v], indptr[v + 1]):
                if candidate[indices[e]] == c:
                    ok = np.uint8(0)
                    break
        keep[i] = ok
