"""The numpy steps of the fused kernels: the provider when no C backend resolves.

Each function here is one kernel step of the vectorized engine written as
numpy array operations over the CSR arrays, with the signature and the
in-place/status contract of the matching
:class:`~repro.local_model.kernels._c_backend.CExtensionBackend` wrapper, so
a phase calls ``ctx.kernels.<step>(...)`` whichever provider resolved.  The
backend probe and ``tests/test_kernels.py`` hold the C kernels
(``csrc/kernels.c``) to these steps on adversarial CSRs; the
engine-equivalence suite holds these steps to the reference scheduler.

Conventions shared by every step:

* CSR arrays (``indptr``, ``indices``) and all color/id columns are
  ``int64``; flag/matrix scratch (``taken``, ``undecided_mask``, ``keep``)
  is ``uint8``.
* Colors are 1-based; ``0`` encodes "none" where a sentinel is needed.
* Failure is reported through a status value (``0`` ok), never an
  exception: the phases raise the scalar engines' exact errors.
"""

from __future__ import annotations

import numpy as np

from repro.local_model.fast_network import gather_adjacency

#: Names of the kernels the phases call by name on ``VectorContext.kernels``.
#: A provider also offers the two ``L(G)`` builder steps, ``entry_twins``
#: and ``line_gather``, which :mod:`repro.local_model.line_csr` calls.
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


def _rows(indptr: np.ndarray) -> np.ndarray:
    """``rows[e]`` is the source node of CSR entry ``e``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def digits_base_q(values: np.ndarray, q: int, num_digits: int) -> np.ndarray:
    """The ``num_digits`` least-significant base-``q`` digits of each value.

    Column ``j`` of the result holds digit ``j`` (the coefficient of ``x^j``),
    matching :func:`repro.primitives.numbers.base_q_digits`.
    """
    digits = np.empty((len(values), num_digits), dtype=np.int64)
    remaining = values.copy()
    for j in range(num_digits):
        digits[:, j] = remaining % q
        remaining //= q
    return digits


def poly_eval_at(digits: np.ndarray, points, q: int) -> np.ndarray:
    """Evaluate every row's polynomial over ``GF(q)`` at ``points``.

    ``points`` is one scalar for every row or one point per row; Horner's
    rule from the most significant coefficient, exactly like
    :func:`repro.primitives.numbers.poly_eval`.
    """
    values = digits[:, -1].copy()
    for j in range(digits.shape[1] - 2, -1, -1):
        values *= points
        values += digits[:, j]
        values %= q
    return values


def first_free_slot(
    num_rows: int, limit: int, local_rows: np.ndarray, taken_slots: np.ndarray
) -> np.ndarray:
    """Per row, the smallest slot in ``0..limit-1`` not marked taken (-1 if none).

    ``taken_slots[e]`` marks slot ``taken_slots[e]`` of row ``local_rows[e]``
    as occupied; entries outside ``0..limit-1`` must be filtered by the
    caller.  This is the vectorized form of the scalar engines' "first free
    color among the neighbors" scan.
    """
    taken = np.zeros(num_rows * limit, dtype=bool)
    taken[local_rows * limit + taken_slots] = True
    free = ~taken.reshape(num_rows, limit)
    slots = np.argmax(free, axis=1)
    slots[~free.any(axis=1)] = -1
    return slots


def linial_round(indptr, indices, uids, colors, q, num_digits, out):
    """One Linial recoloring round into ``out``.

    Every node moves to ``(a, g_v(a))`` for the smallest evaluation point
    ``a`` at which its polynomial differs from those of all neighbors
    holding a different color, falling back to ``uid % q`` when no point is
    free (unreachable for legal inputs).
    """
    n = len(indptr) - 1
    rows = _rows(indptr)
    coeffs = digits_base_q(colors - 1, q, num_digits)
    chosen_point = np.full(n, -1, dtype=np.int64)
    chosen_value = np.zeros(n, dtype=np.int64)
    # Only edges whose endpoints hold different colors can ever conflict;
    # edges whose source has already chosen its point drop out as we go.
    active = np.flatnonzero(colors[rows] != colors[indices])
    for point in range(q):
        values = poly_eval_at(coeffs, point, q)
        conflicted = np.zeros(n, dtype=bool)
        if active.size:
            edge_rows = rows[active]
            collide = values[edge_rows] == values[indices[active]]
            conflicted[edge_rows[collide]] = True
        newly = (chosen_point < 0) & ~conflicted
        chosen_point[newly] = point
        chosen_value[newly] = values[newly]
        if active.size:
            active = active[chosen_point[rows[active]] < 0]
        if not active.size:
            # Every undecided node had a conflict-capable edge; none are
            # left, so every node has chosen its point.
            break

    undecided = chosen_point < 0
    if undecided.any():
        fallback_points = uids[undecided] % q
        chosen_point[undecided] = fallback_points
        chosen_value[undecided] = poly_eval_at(coeffs[undecided], fallback_points, q)
    out[:] = chosen_point * q + chosen_value + 1


def defective_step(indptr, indices, colors, q, num_digits, out):
    """One Kuhn defective polynomial step into ``out``.

    Every node moves to ``(a, g_v(a))`` for the first point ``a`` minimizing
    its collisions with differing neighbors (strict improvement, stopping
    at zero collisions).
    """
    n = len(indptr) - 1
    rows = _rows(indptr)
    coeffs = digits_base_q(colors - 1, q, num_digits)
    # Neighbors holding the *same* color never count as collisions.
    differing = np.flatnonzero(colors[rows] != colors[indices])
    edge_rows = rows[differing]
    edge_cols = indices[differing]

    best_count = np.zeros(n, dtype=np.int64)
    best_point = np.zeros(n, dtype=np.int64)
    best_value = np.zeros(n, dtype=np.int64)
    for point in range(q):
        values = poly_eval_at(coeffs, point, q)
        collide = values[edge_rows] == values[edge_cols]
        count = np.bincount(edge_rows[collide], minlength=n)
        if point == 0:
            best_count = count
            best_value = values
        else:
            improve = count < best_count
            best_count = np.where(improve, count, best_count)
            best_point[improve] = point
            best_value[improve] = values[improve]
        if not best_count.any():
            # Strict improvement means later points can never displace a
            # zero-collision choice, exactly like the scalar early break.
            break
    out[:] = best_point * q + best_value + 1


def iter_reduce(indptr, indices, colors, palette, target, total_rounds, status):
    """The full iterative color reduction on ``colors``, in place.

    Round ``r`` recolors the class ``palette - r + 1`` to each node's first
    free color in ``1..target``.  On a node with no free color,
    ``status[0]`` is set to 1 and the sweep stops after that round.
    """
    for round_index in range(1, total_rounds + 1):
        recoloring = np.flatnonzero(colors == palette - round_index + 1)
        if not recoloring.size:
            continue
        local_rows, neighbors = gather_adjacency(indptr, indices, recoloring)
        neighbor_colors = colors[neighbors]
        in_target = (neighbor_colors >= 1) & (neighbor_colors <= target)
        replacement = first_free_slot(
            recoloring.size, target, local_rows[in_target], neighbor_colors[in_target] - 1
        )
        free = replacement >= 0
        colors[recoloring[free]] = replacement[free] + 1
        if not free.all():
            status[0] = 1
            return


def kw_reduce(indptr, indices, colors, k, total_rounds, status):
    """The full Kuhn-Wattenhofer block reduction on ``colors``, in place.

    Round ``r`` (``step = (r-1) % k``) recolors every node at block offset
    ``k + step`` to its block's first free lower-half offset; when
    ``step == k - 1`` the (block, lower-offset) pairs are compacted into a
    palette of ``k`` colors per block.  On a node with no free offset,
    ``status[0]`` is set to 1 and the sweep stops after that round.
    """
    block_width = 2 * k
    for round_index in range(1, total_rounds + 1):
        step = (round_index - 1) % k
        blocks = (colors - 1) // block_width
        offsets = (colors - 1) % block_width
        recoloring = np.flatnonzero(offsets == k + step)
        if recoloring.size:
            local_rows, neighbors = gather_adjacency(indptr, indices, recoloring)
            neighbor_offsets = offsets[neighbors]
            relevant = (blocks[neighbors] == blocks[recoloring][local_rows]) & (
                neighbor_offsets < k
            )
            replacement = first_free_slot(
                recoloring.size, k, local_rows[relevant], neighbor_offsets[relevant]
            )
            free = replacement >= 0
            moved = recoloring[free]
            colors[moved] = blocks[moved] * block_width + replacement[free] + 1
            if not free.all():
                status[0] = 1
                return
        if step == k - 1:
            # End of the iteration: compact (block, lower-offset) pairs.
            colors[:] = ((colors - 1) // block_width) * k + (colors - 1) % block_width + 1


def edge_rank(indptr, indices, edge_u, edge_v, rank_u, rank_v):
    """Per line-graph node, its rank by unique id among its incident edges at each endpoint.

    ``rank_u[x]`` / ``rank_v[x]`` count the CSR neighbors of ``x`` with a
    smaller dense index -- dense order is unique-id order -- that share
    endpoint ``edge_u[x]`` / ``edge_v[x]``.  Only CSR neighbors count, so on
    a filtered view the ranks stay inside each subgraph.
    """
    n = len(indptr) - 1
    rows = _rows(indptr)
    before = indices < rows
    neighbor_u, neighbor_v = edge_u[indices], edge_v[indices]
    for own, rank in ((edge_u[rows], rank_u), (edge_v[rows], rank_v)):
        rank[:] = np.bincount(
            rows[before & ((neighbor_u == own) | (neighbor_v == own))], minlength=n
        )


def psi_select(indptr, indices, phi, order, class_ptr, p, depth, psi):
    """Algorithm 1's psi-selection as one sweep over the phi-classes.

    ``order`` lists the nodes by ascending ``phi``; class ``k`` is
    ``order[class_ptr[k]:class_ptr[k + 1]]``.  Every node of a class counts
    the psi-colors of its neighbors with a smaller ``phi``, takes the first
    least-used color in ``1..p`` and the depth ``1 + max`` of theirs (0
    without such neighbors).  Returns the status ``0``.
    """
    for start, end in zip(class_ptr[:-1].tolist(), class_ptr[1:].tolist()):
        batch = order[start:end]
        local_rows, neighbors = gather_adjacency(indptr, indices, batch)
        lower = phi[neighbors] < phi[batch[0]]
        sources = local_rows[lower]
        lower_neighbors = neighbors[lower]
        batch_depth = np.zeros(batch.size, dtype=np.int64)
        np.maximum.at(batch_depth, sources, depth[lower_neighbors] + 1)
        depth[batch] = batch_depth
        counts = np.bincount(
            sources * p + (psi[lower_neighbors] - 1), minlength=batch.size * p
        ).reshape(batch.size, p)
        psi[batch] = np.argmin(counts, axis=1) + 1
    return 0


def luby_free_counts(undecided, taken, palette, free_counts):
    """``free_counts[i]`` = number of untaken palette colors of node ``undecided[i]``."""
    free_counts[:] = (taken[undecided, :palette] == 0).sum(axis=1)


def luby_candidates(lanes, picks, taken, palette, candidate):
    """``candidate[lanes[i]]`` = the ``(picks[i]+1)``-th free color of that node.

    Every pick is below its node's free count (the draw's limit).
    """
    free = taken[lanes, :palette] == 0
    hits = free & (np.cumsum(free, axis=1) == (picks + 1)[:, None])
    candidate[lanes] = np.argmax(hits, axis=1) + 1


def luby_absorb(announce, indptr, indices, final, undecided_mask, taken):
    """Scatter announced finals into the undecided neighbors' taken rows."""
    local, neighbors = gather_adjacency(indptr, indices, announce)
    hit = undecided_mask[neighbors] != 0
    taken[neighbors[hit], final[announce[local[hit]]] - 1] = 1


def luby_resolve(undecided, indptr, indices, candidate, taken, keep):
    """``keep[i]`` = 1 iff node ``undecided[i]`` keeps its candidate this round.

    A node keeps when it drew a candidate, no neighbor drew the same one
    (decided neighbors hold candidate 0, so they never match), and the
    candidate is not already taken.
    """
    local, neighbors = gather_adjacency(indptr, indices, undecided)
    mine = candidate[undecided]
    clash = candidate[neighbors] == mine[local]
    conflict = np.zeros(len(undecided), dtype=bool)
    conflict[local[clash]] = True
    kept = (mine != 0) & ~conflict
    kept &= taken[undecided, np.maximum(mine - 1, 0)] == 0
    keep[:] = kept


def entry_twins(indptr, indices, eid, own):
    """Canonical-edge index and twin slots of every entry of an ascending-row CSR.

    Forward entries (``row < col``) count off ``0..m-1`` in CSR order, which
    is pair-key order; each backward entry finds its twin by pair-key binary
    search.  ``eid[s]`` is the edge of entry ``s``; for edge ``e = (u, v)``,
    ``own[2e]`` is the slot of ``u -> v`` and ``own[2e + 1]`` that of
    ``v -> u``.
    """
    n = len(indptr) - 1
    rows = _rows(indptr)
    forward = rows < indices
    forward_slots = np.flatnonzero(forward)
    eid[forward_slots] = np.arange(len(forward_slots), dtype=np.int64)
    backward = np.flatnonzero(~forward)
    eid[backward] = np.searchsorted(
        rows[forward_slots] * n + indices[forward_slots], indices[backward] * n + rows[backward]
    )
    own[0::2] = forward_slots
    own[1::2][eid[backward]] = backward


def line_gather(indptr, chunk_rows, own, eid, line_indptr, out):
    """The ``L(G)`` incidence gather into ``out``.

    Row ``e = (u, v)`` of ``L(G)`` is chunk ``2e`` then chunk ``2e + 1``:
    chunk ``c`` lists ``eid`` over CSR row ``chunk_rows[c]`` of ``G``,
    stepping over the edge's own slot ``own[c]``.  ``line_indptr`` (the row
    starts in ``out``) splits the work of the C kernel only.
    """
    chunk_sizes = indptr[chunk_rows + 1] - indptr[chunk_rows] - 1
    # Slot k of a chunk is CSR slot indptr[row] + k, stepping over its own.
    slot = np.repeat(indptr[chunk_rows] - (np.cumsum(chunk_sizes) - chunk_sizes), chunk_sizes)
    slot += np.arange(len(slot), dtype=np.int64)
    slot += slot >= np.repeat(own, chunk_sizes)
    np.take(eid, slot, out=out)
