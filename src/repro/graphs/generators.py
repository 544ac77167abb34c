"""Workload graph generators.

These are the graph families the paper motivates or analyses:

* the Figure 1 construction (a clique with pendant vertices) showing that
  bounded neighborhood independence does **not** imply bounded growth,
* line graphs and line graphs of ``r``-hypergraphs (see
  :mod:`repro.graphs.hypergraphs`), the families the edge-coloring results
  reduce to,
* bounded-growth graphs (grids, hypercubes of fixed dimension growth),
* generic benchmark graphs (random regular, Erdos-Renyi); the regular ones
  realize the prescribed maximum degree of the Table 1 / Table 2 sweeps,
* bipartite regular graphs -- the switch-scheduling / packet-routing
  instances of the paper's introduction,
* heavy-tailed and geometric workload families with array-native fast
  samplers (:func:`barabasi_albert`, :func:`planted_degree_sequence` over
  :func:`heavy_tailed_degree_sequence`, :func:`random_geometric`,
  :func:`bipartite_switch`) -- the high-variance-degree and churning shapes
  the dynamic recoloring layer (:mod:`repro.dynamic`) is exercised on.

Every generator is deterministic given its ``seed`` argument, so benchmark
runs are reproducible, and returns a CSR
:class:`~repro.local_model.fast_network.FastNetwork` built straight from
numpy index arithmetic via :meth:`FastNetwork.from_edge_array`.  The random
families draw from ``numpy.random.default_rng(seed)``; the vectorized
samplers below guarantee exact degrees for the regular families and
simplicity everywhere.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.local_model import kernels
from repro.local_model.fast_network import FastNetwork, _lexsort_pairs

#: Vectorized re-pairing rounds attempted before falling back to the exact
#: switching repair; at benchmark scales (sparse graphs) a couple of rounds
#: suffice, so the fallback only engages on small dense instances.
_MAX_POOL_ROUNDS = 32

#: Random probes tried before scanning for a bipartite repair swap partner.
_SWAP_PROBES = 64


def _require_fast(backend: str) -> None:
    """Accept only ``backend="fast"``, the keyword's one remaining value."""
    if backend != "fast":
        raise InvalidParameterError(
            f"backend={backend!r} is not supported: generators build a FastNetwork only"
        )


def _fast_from_edges(
    u: np.ndarray,
    v: np.ndarray,
    num_nodes: int,
    order=None,
) -> FastNetwork:
    """The shared :meth:`FastNetwork.from_edge_array` entry of the builders."""
    return FastNetwork.from_edge_array(u, v, num_nodes=num_nodes, order=order)


# --------------------------------------------------------------------------- #
# Deterministic families
# --------------------------------------------------------------------------- #


def clique_with_pendants(clique_size: int) -> FastNetwork:
    """The Figure 1 graph: a clique whose every vertex has one pendant neighbor.

    The graph has ``n = 2 * clique_size`` vertices.  Its neighborhood
    independence is 2 (a clique vertex's neighbors are the rest of the clique,
    pairwise adjacent, plus one pendant), yet every clique vertex has
    ``clique_size - 1 = Omega(Delta)`` independent vertices at distance 2 (the
    other pendants), so the graph is *not* of bounded growth.

    Parameters
    ----------
    clique_size:
        Number of clique vertices (at least 1).
    """
    if clique_size < 1:
        raise InvalidParameterError("clique_size must be at least 1")
    k = clique_size
    cu, cv = np.triu_indices(k, k=1)
    pendant_u = np.arange(k, dtype=np.int64)
    u = np.concatenate([cu.astype(np.int64), pendant_u])
    v = np.concatenate([cv.astype(np.int64), pendant_u + k])

    def identifiers() -> Iterable:
        return [("clique", i) for i in range(k)] + [("pendant", i) for i in range(k)]

    return _fast_from_edges(u, v, 2 * k, order=identifiers)


def complete_graph(n: int) -> FastNetwork:
    """The complete graph ``K_n`` (every pair of vertices adjacent)."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    u, v = np.triu_indices(n, k=1)
    return _fast_from_edges(u.astype(np.int64), v.astype(np.int64), n)


def path_graph(n: int) -> FastNetwork:
    """The path on ``n`` vertices."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    u = np.arange(n - 1, dtype=np.int64)
    return _fast_from_edges(u, u + 1, n)


def cycle_graph(n: int) -> FastNetwork:
    """The cycle on ``n`` vertices (``n >= 3``)."""
    if n < 3:
        raise InvalidParameterError("a cycle needs at least 3 vertices")
    u = np.arange(n, dtype=np.int64)
    return _fast_from_edges(u, (u + 1) % n, n)


def star_graph(leaves: int) -> FastNetwork:
    """The star ``K_{1,leaves}``: one center adjacent to ``leaves`` leaves.

    For ``leaves >= 3`` this is the smallest graph that is *not* claw-free and
    has neighborhood independence equal to ``leaves``.
    """
    if leaves < 1:
        raise InvalidParameterError("a star needs at least one leaf")
    u = np.zeros(leaves, dtype=np.int64)
    v = np.arange(1, leaves + 1, dtype=np.int64)

    def identifiers() -> Iterable:
        return ["center"] + [("leaf", i) for i in range(leaves)]

    return _fast_from_edges(u, v, leaves + 1, order=identifiers)


def grid_graph(rows: int, cols: int) -> FastNetwork:
    """The ``rows x cols`` grid -- a canonical bounded-growth graph.

    Vertex ``r * cols + c`` is the cell in row ``r``, column ``c``.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid dimensions must be positive")
    index = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    u = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
    v = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
    return _fast_from_edges(u, v, rows * cols)


def hypercube_graph(dimension: int) -> FastNetwork:
    """The ``dimension``-dimensional hypercube (``2^dimension`` vertices).

    Vertices are the integers ``0 .. 2^dimension - 1``; two are adjacent when
    their binary expansions differ in exactly one bit.
    """
    if dimension < 1:
        raise InvalidParameterError("dimension must be at least 1")
    n = 1 << dimension
    nodes = np.arange(n, dtype=np.int64)
    lower = [nodes[(nodes >> bit) & 1 == 0] for bit in range(dimension)]
    u = np.concatenate(lower)
    v = np.concatenate([part | (1 << bit) for bit, part in enumerate(lower)])
    return _fast_from_edges(u, v, n)


# --------------------------------------------------------------------------- #
# Random families
# --------------------------------------------------------------------------- #


def _simple_pairing_repair(
    u: np.ndarray, v: np.ndarray, n: int, rng: np.random.Generator
) -> None:
    """Re-pair configuration-model stubs in place until the graph is simple.

    Two phases.  First, vectorized re-pairing rounds: flag the *bad* pairs
    (self-loops, plus every duplicate of an undirected pair beyond its first
    copy), pool their stubs together with an equal number of randomly chosen
    good pairs, reshuffle the pool and re-pair it -- at benchmark scales
    (``degree << n``) this clears everything in a couple of array passes.
    If bad pairs survive :data:`_MAX_POOL_ROUNDS` (small dense instances,
    where fresh random pairs keep colliding), fall back to
    :func:`_switching_repair`, whose edge switches strictly decrease the
    collision count.  The stub multiset -- hence every node's degree -- is
    invariant throughout.
    """
    for _ in range(_MAX_POOL_ROUNDS):
        low = np.minimum(u, v)
        high = np.maximum(u, v)
        keys = low * n + high
        by_key = _lexsort_pairs(low, high)
        sorted_keys = keys[by_key]
        duplicate_sorted = np.zeros(len(keys), dtype=bool)
        duplicate_sorted[1:] = sorted_keys[1:] == sorted_keys[:-1]
        bad = np.zeros(len(keys), dtype=bool)
        bad[by_key] = duplicate_sorted
        bad |= u == v
        bad_slots = np.flatnonzero(bad)
        if len(bad_slots) == 0:
            return
        good_slots = np.flatnonzero(~bad)
        mixed_in = min(len(good_slots), len(bad_slots))
        if mixed_in:
            chosen = rng.choice(good_slots, size=mixed_in, replace=False)
            slots = np.concatenate([bad_slots, chosen])
        else:
            slots = bad_slots
        pool = np.concatenate([u[slots], v[slots]])
        pool = pool[rng.permutation(len(pool))]
        u[slots] = pool[: len(slots)]
        v[slots] = pool[len(slots) :]
    _switching_repair(u, v, n, rng)


def _switching_repair(
    u: np.ndarray, v: np.ndarray, n: int, rng: np.random.Generator
) -> None:
    """Make the pairing simple with degree-preserving edge switches.

    For a bad pair ``(a, b)`` (self-loop or duplicate) and a partner pair
    ``(x, y)``, the switch ``(a, b), (x, y) -> (a, y), (x, b)`` preserves all
    four degrees; it is applied only when both replacement pairs are fresh
    non-loops, so the total collision count (self-loops plus excess
    multiplicities) strictly decreases with every switch.  Partners are
    random-probed, then scanned; the dense regime is diverted to the
    complement sampler before this runs (see :func:`random_regular`), so a
    valid switch always exists.
    """

    def key(a: int, b: int) -> int:
        return a * n + b if a < b else b * n + a

    multiplicity: dict = {}
    for a, b in zip(u.tolist(), v.tolist()):
        k = key(a, b)
        multiplicity[k] = multiplicity.get(k, 0) + 1
    pending = [
        slot
        for slot, (a, b) in enumerate(zip(u.tolist(), v.tolist()))
        if a == b or multiplicity[key(a, b)] > 1
    ]
    num_pairs = len(u)

    def try_switch(slot: int, partner: int) -> bool:
        a, b = int(u[slot]), int(v[slot])
        x, y = int(u[partner]), int(v[partner])
        for new_b, new_y in (((a, y), (x, b)), ((a, x), (y, b))):
            (p1a, p1b), (p2a, p2b) = new_b, new_y
            if p1a == p1b or p2a == p2b:
                continue
            k1, k2 = key(p1a, p1b), key(p2a, p2b)
            if k1 == k2 or multiplicity.get(k1) or multiplicity.get(k2):
                continue
            for old in (key(a, b), key(x, y)):
                multiplicity[old] -= 1
                if not multiplicity[old]:
                    del multiplicity[old]
            u[slot], v[slot] = p1a, p1b
            u[partner], v[partner] = p2a, p2b
            multiplicity[k1] = multiplicity.get(k1, 0) + 1
            multiplicity[k2] = multiplicity.get(k2, 0) + 1
            return True
        return False

    while pending:
        slot = pending.pop()
        a, b = int(u[slot]), int(v[slot])
        if a != b and multiplicity[key(a, b)] <= 1:
            continue  # resolved by an earlier switch
        switched = False
        for _ in range(_SWAP_PROBES):
            partner = int(rng.integers(num_pairs))
            if partner != slot and try_switch(slot, partner):
                switched = True
                break
        if not switched:
            for partner in range(num_pairs):
                if partner != slot and try_switch(slot, partner):
                    switched = True
                    break
        if not switched:
            raise InvalidParameterError(
                "configuration-model repair failed to produce a simple "
                f"graph (n={n}); the parameter combination is degenerate"
            )


def random_regular(n: int, degree: int, seed: int = 0, backend: str = "fast") -> FastNetwork:
    """A random ``degree``-regular graph on ``n`` vertices.

    Used by the Table 1 / Table 2 sweeps to realize a prescribed maximum
    degree exactly.  ``n * degree`` must be even and ``degree < n``.

    Draws a configuration-model pairing of the ``n * degree`` stubs from
    ``numpy.random.default_rng(seed)`` and repairs collisions by re-pairing
    (see :func:`_simple_pairing_repair`); every vertex keeps degree exactly
    ``degree``.  ``backend`` accepts only ``"fast"`` (kept for callers that
    still pass it).
    """
    _require_fast(backend)
    if degree < 0 or degree >= n:
        raise InvalidParameterError("need 0 <= degree < n for a regular graph")
    if (n * degree) % 2 != 0:
        raise InvalidParameterError("n * degree must be even")
    if degree == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _fast_from_edges(empty, empty, n)
    if degree == n - 1:
        return complete_graph(n)  # the unique such graph
    if degree > (n - 1) // 2:
        # Dense regime: nearly every pair exists, so pairwise repair cannot
        # converge.  Sample the (n - 1 - degree)-regular *complement*
        # instead -- sparse, same machinery -- and invert.
        complement = random_regular(n, n - 1 - degree, seed=seed)
        rows, cols = complement.rows_np, complement.indices
        absent = rows[rows < cols] * n + cols[rows < cols]
        all_u, all_v = np.triu_indices(n, k=1)
        all_keys = all_u.astype(np.int64) * n + all_v.astype(np.int64)
        keep = np.ones(len(all_keys), dtype=bool)
        keep[np.searchsorted(all_keys, np.sort(absent))] = False
        return _fast_from_edges(all_u.astype(np.int64)[keep], all_v.astype(np.int64)[keep], n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    stubs = stubs[rng.permutation(n * degree)]
    u = stubs[0::2].copy()
    v = stubs[1::2].copy()
    _simple_pairing_repair(u, v, n, rng)
    return _fast_from_edges(u, v, n)


def erdos_renyi(n: int, edge_probability: float, seed: int = 0) -> FastNetwork:
    """An Erdos-Renyi random graph ``G(n, p)``.

    The sampler enumerates the ``n (n - 1) / 2`` vertex pairs implicitly
    and jumps between the selected ones with geometric skip sampling
    (``numpy.random.default_rng(seed)``): the work is ``O(p n^2)`` -- the
    number of *edges* -- instead of ``O(n^2)`` coin flips.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameterError("edge_probability must lie in [0, 1]")
    num_pairs = n * (n - 1) // 2
    if edge_probability <= 0.0 or num_pairs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _fast_from_edges(empty, empty, n)
    if edge_probability >= 1.0:
        u, v = np.triu_indices(n, k=1)
        return _fast_from_edges(u.astype(np.int64), v.astype(np.int64), n)
    rng = np.random.default_rng(seed)
    taken: List[np.ndarray] = []
    last = -1  # linear index of the previously selected pair
    while True:
        expected_left = (num_pairs - last - 1) * edge_probability
        batch = max(64, int(expected_left * 1.2) + 16)
        gaps = rng.geometric(edge_probability, size=batch).astype(np.int64)
        # For minuscule p a geometric draw overflows int64 (wrapping
        # negative); any such gap provably jumps past the last pair.
        gaps = np.where(gaps <= 0, num_pairs + 1, gaps)
        gaps = np.minimum(gaps, num_pairs + 1)
        positions = last + np.cumsum(gaps)
        inside = positions[positions < num_pairs]
        taken.append(inside)
        if len(inside) < len(positions):
            break
        last = int(positions[-1])
    selected = np.concatenate(taken)
    # Map linear pair indices to (i, j), i < j, in lexicographic order.
    row_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(n - 1 - np.arange(n - 1, dtype=np.int64), out=row_starts[1:])
    u = np.searchsorted(row_starts, selected, side="right") - 1
    v = selected - row_starts[u] + u + 1
    return _fast_from_edges(u, v, n)


def _bipartite_identifiers(side: int):
    def identifiers() -> Iterable:
        return [("left", i) for i in range(side)] + [
            ("right", i) for i in range(side)
        ]

    return identifiers


def _membership_in_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` occur in the sorted int64 ``sorted_keys``."""
    slots = np.searchsorted(sorted_keys, values)
    inside = slots < len(sorted_keys)
    out = np.zeros(len(values), dtype=bool)
    out[inside] = sorted_keys[slots[inside]] == values[inside]
    return out


def _repair_matching_sorted(
    row: np.ndarray, accepted: np.ndarray, side: int, rng: np.random.Generator
) -> np.ndarray:
    """Swap entries of ``row`` until no pair ``(i, row[i])`` is accepted.

    Membership in the accepted-edge set is a ``searchsorted`` probe into
    one sorted int64 pair-key array.  A conflict-free completion always
    exists while the left degree stays at most ``side`` (the complement of a
    ``k``-regular bipartite graph with ``k < side`` contains a perfect
    matching, Hall's theorem); each successful swap removes at least one
    conflict without creating new ones, and when no swap applies the row is
    reshuffled, so the probe-then-scan-then-reshuffle search terminates with
    probability 1.
    """
    row = row.copy()
    lanes = np.arange(side, dtype=np.int64)

    def used(i: int, j: int) -> bool:
        key = i * side + j
        slot = int(np.searchsorted(accepted, key))
        return slot < len(accepted) and accepted[slot] == key

    while True:
        colliding = np.flatnonzero(_membership_in_sorted(accepted, lanes * side + row))
        if len(colliding) == 0:
            return row
        progressed = False
        for i in colliding.tolist():
            if not used(i, int(row[i])):
                continue  # already fixed by an earlier swap of this pass
            swap_with = -1
            for _ in range(_SWAP_PROBES):
                j = int(rng.integers(side))
                if j != i and not used(i, int(row[j])) and not used(j, int(row[i])):
                    swap_with = j
                    break
            if swap_with < 0:
                for j in range(side):
                    if j != i and not used(i, int(row[j])) and not used(j, int(row[i])):
                        swap_with = j
                        break
            if swap_with >= 0:
                row[i], row[swap_with] = row[swap_with], row[i]
                progressed = True
        if not progressed:
            row = row[rng.permutation(side)]


def _random_biregular_matchings(
    side: int, degree: int, rng: np.random.Generator
) -> np.ndarray:
    """``degree`` pairwise edge-disjoint random permutations of ``0..side-1``.

    Row ``k`` maps left port ``i`` to right port ``matchings[k, i]``; the
    union of the rows is a simple bipartite ``degree``-regular graph.
    Collisions between rows are cleared with the same two-phase scheme as
    :func:`_simple_pairing_repair`: vectorized pooled re-permutation rounds
    first (collision detection is one sorted pair-key pass over all
    ``side * degree`` edges -- no Python edge set), then an exact
    per-matching swap repair for the small dense instances that keep
    colliding, probing the accepted keys with :func:`_membership_in_sorted`.
    """
    matchings = np.stack([rng.permutation(side) for _ in range(degree)]).astype(
        np.int64
    )
    if degree <= 1:
        return matchings
    lanes = np.arange(side, dtype=np.int64)
    for _ in range(_MAX_POOL_ROUNDS):
        keys = (lanes[None, :] * side + matchings).ravel()
        by_key = _lexsort_pairs(np.broadcast_to(lanes, matchings.shape).ravel(), matchings.ravel())
        sorted_keys = keys[by_key]
        duplicate_sorted = np.zeros(len(keys), dtype=bool)
        duplicate_sorted[1:] = sorted_keys[1:] == sorted_keys[:-1]
        duplicate = np.zeros(len(keys), dtype=bool)
        duplicate[by_key] = duplicate_sorted
        colliding = duplicate.reshape(degree, side)
        if not colliding.any():
            return matchings
        # Reshuffle each colliding row's bad lanes (mixed with an equal
        # number of good lanes) among themselves: stays a permutation,
        # re-randomizes every collision.
        for k in np.flatnonzero(colliding.any(axis=1)):
            bad = np.flatnonzero(colliding[k])
            good = np.flatnonzero(~colliding[k])
            mixed_in = min(len(good), len(bad))
            if mixed_in:
                chosen = rng.choice(good, size=mixed_in, replace=False)
                slots = np.concatenate([bad, chosen])
            else:
                slots = bad
            matchings[k, slots] = matchings[k, slots[rng.permutation(len(slots))]]
    # Exact fallback: accept matchings one by one, swapping conflicted
    # entries against the sorted pair keys of everything accepted so far.
    accepted = np.zeros(0, dtype=np.int64)
    for k in range(degree):
        repaired = _repair_matching_sorted(matchings[k], accepted, side, rng)
        matchings[k] = repaired
        accepted = np.sort(np.concatenate([accepted, lanes * side + repaired]))
    return matchings


def _fast_random_bipartite_regular(
    side: int, degree: int, seed: int, order=None
) -> FastNetwork:
    """Stacked random permutation matchings, repaired with array passes.

    Dense instances (``2 * degree > side``) sample the
    ``(side - degree)``-regular bipartite *complement* and invert it -- the
    same diversion :func:`random_regular` uses -- so the repair only ever
    runs in the regime where fresh permutations rarely collide.
    """
    order = order or _bipartite_identifiers(side)
    if degree == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _fast_from_edges(empty, empty, 2 * side, order=order)
    rng = np.random.default_rng(seed)
    if degree == side:
        # Every left port talks to every right port: the unique such graph.
        left = np.repeat(np.arange(side, dtype=np.int64), side)
        right = np.tile(np.arange(side, dtype=np.int64), side)
        return _fast_from_edges(left, side + right, 2 * side, order=order)
    if 2 * degree > side:
        complement = _random_biregular_matchings(side, side - degree, rng)
        lanes = np.tile(np.arange(side, dtype=np.int64), side - degree)
        absent = np.sort(lanes * side + complement.ravel())
        keep = np.ones(side * side, dtype=bool)
        keep[absent] = False
        keys = np.flatnonzero(keep).astype(np.int64)
        return _fast_from_edges(
            keys // side, side + keys % side, 2 * side, order=order
        )
    matchings = _random_biregular_matchings(side, degree, rng)
    left = np.tile(np.arange(side, dtype=np.int64), degree)
    right = matchings.ravel()
    return _fast_from_edges(left, side + right, 2 * side, order=order)


def random_bipartite_regular(side: int, degree: int, seed: int = 0) -> FastNetwork:
    """A random bipartite ``degree``-regular graph on ``2 * side`` vertices.

    Bipartite regular graphs are the classical hard instances for edge
    coloring (switch scheduling / packet routing workloads in the paper's
    introduction): an optimal schedule needs exactly ``degree`` colors.

    The sampler stacks ``degree`` random perfect matchings as one array
    drawn from ``numpy.random.default_rng(seed)`` and *repairs* colliding
    matching edges by swapping permutation entries, so every vertex has
    degree exactly ``degree``.  Collisions are detected and repaired with
    sorted pair-key ``searchsorted`` passes, and dense instances
    (``2 * degree > side``) are diverted to complement sampling.  Nodes are
    ``("left", i)`` and ``("right", j)``.
    """
    if degree < 0 or degree > side:
        raise InvalidParameterError("need 0 <= degree <= side")
    return _fast_random_bipartite_regular(side, degree, seed)


# --------------------------------------------------------------------------- #
# Heavy-tailed / geometric workload families (array-native fast samplers)
# --------------------------------------------------------------------------- #


def barabasi_albert(n: int, attachment_edges: int, seed: int = 0) -> FastNetwork:
    """A Barabasi-Albert preferential-attachment graph (skewed degrees).

    The repeated-nodes sampler (Batagelj-Brandes) draws each new vertex's
    ``attachment_edges`` distinct targets uniformly from the running
    edge-endpoint multiset via ``numpy.random.default_rng(seed)`` -- a
    uniform draw from that multiset *is* a degree-proportional draw over the
    vertices.  Invariants: simple,
    ``attachment_edges * (n - attachment_edges)`` edges, and every vertex of
    index ``>= attachment_edges`` has degree at least ``attachment_edges``.
    """
    if attachment_edges < 1 or attachment_edges >= n:
        raise InvalidParameterError("need 1 <= attachment_edges < n")
    m = attachment_edges
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(m, n, dtype=np.int64), m)
    v = np.empty(m * (n - m), dtype=np.int64)
    endpoints = np.empty(2 * m * (n - m), dtype=np.int64)
    filled = 0
    targets = np.arange(m, dtype=np.int64)  # vertex m adopts all seeds
    for vertex in range(m, n):
        base = (vertex - m) * m
        v[base : base + m] = targets
        endpoints[filled : filled + m] = targets
        endpoints[filled + m : filled + 2 * m] = vertex
        filled += 2 * m
        if vertex == n - 1:
            break
        fresh: List[int] = []
        seen: Set[int] = set()
        while len(fresh) < m:
            draws = endpoints[rng.integers(0, filled, size=m - len(fresh))]
            for target in draws.tolist():
                if target not in seen:
                    seen.add(target)
                    fresh.append(target)
        targets = np.array(fresh, dtype=np.int64)
    return _fast_from_edges(u, v, n)


def heavy_tailed_degree_sequence(
    n: int,
    exponent: float = 2.5,
    min_degree: int = 1,
    max_degree: int = None,
    seed: int = 0,
) -> np.ndarray:
    """A power-law degree sequence for :func:`planted_degree_sequence`.

    Samples ``n`` degrees from the discrete distribution
    ``P(d) proportional to d ** -exponent`` on ``[min_degree, max_degree]``
    (default cap ``~sqrt(n)``, which keeps the sequence graphical by
    Erdos-Gallai at these sizes) and fixes the parity of the sum by bumping
    one vertex.  Module-level so :class:`~repro.experiments.scenarios.GraphSpec`
    builders can reference it picklably.
    """
    if n < 2:
        raise InvalidParameterError("n must be at least 2")
    if min_degree < 0:
        raise InvalidParameterError("min_degree must be non-negative")
    if max_degree is None:
        max_degree = max(min_degree, min(n - 1, int(round(n**0.5))))
    if not min_degree <= max_degree <= n - 1:
        raise InvalidParameterError("need min_degree <= max_degree <= n - 1")
    if exponent <= 0:
        raise InvalidParameterError("exponent must be positive")
    rng = np.random.default_rng(seed)
    support = np.arange(min_degree, max_degree + 1, dtype=np.int64)
    weights = np.maximum(support, 1).astype(np.float64) ** -float(exponent)
    degrees = rng.choice(support, size=n, p=weights / weights.sum()).astype(np.int64)
    if int(degrees.sum()) % 2:
        below_cap = degrees < max_degree
        if below_cap.any():
            degrees[int(np.argmax(below_cap))] += 1
        else:
            degrees[0] -= 1
    return degrees


def planted_degree_sequence(degrees, seed: int = 0) -> FastNetwork:
    """A random simple graph realizing a *planted* per-vertex degree array.

    Configuration-model pairing over the given degrees (sum must be even),
    repaired to a simple graph by :func:`_simple_pairing_repair` -- every
    vertex ends with exactly its planted degree.  The pairing is drawn from
    ``numpy.random.default_rng(seed)``.  Raises
    :class:`~repro.exceptions.InvalidParameterError` for degenerate
    (non-graphical) sequences that no repair can make simple.
    """
    degrees = np.ascontiguousarray(degrees, dtype=np.int64).ravel()
    n = int(len(degrees))
    if n < 1:
        raise InvalidParameterError("the degree sequence must be non-empty")
    if degrees.min(initial=0) < 0 or degrees.max(initial=0) >= max(n, 1):
        raise InvalidParameterError("need 0 <= degree < n for every vertex")
    if int(degrees.sum()) % 2:
        raise InvalidParameterError("the degree sum must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    stubs = stubs[rng.permutation(len(stubs))]
    u = stubs[0::2].copy()
    v = stubs[1::2].copy()
    _simple_pairing_repair(u, v, n, rng)
    return _fast_from_edges(u, v, n)


def _geometric_edges(
    points: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs of points in ``[0, 1]^2`` within ``radius``: a half-radius cell sweep.

    The ``geo_pairs`` kernel step on :func:`repro.local_model.kernels.provider`
    sweeps the cell table of :func:`_sweep_arrays` (a count pass and a fill
    pass in C, or one ``repeat``/``arange`` per candidate range in numpy) and
    maps only the close pairs back to input indices.
    """
    return kernels.provider().geo_pairs(*_sweep_arrays(points, radius))


def _sweep_arrays(points: np.ndarray, radius: float) -> tuple:
    """The arguments of ``geo_pairs``: the points sorted into half-radius cells.

    The points are bucketed into ``cells x cells`` squares of side just over
    ``radius / 2``: ``cells = floor(2 / radius)``, shrunk by a few ulps so
    that rounding in ``x * cells`` cannot put a close pair three cells
    apart, and capped at ``isqrt(n)`` so the dense cell table stays
    ``O(n)``.  Once the points are sorted by cell id ``cx * cells + cy``,
    every forward neighbor ``j > i`` of point ``i`` lies in three contiguous
    index ranges: its own column from ``i + 1`` to the end of cell
    ``(cx, cy + 2)``, and rows ``cy - 2 .. cy + 2`` of columns ``cx + 1``
    and ``cx + 2``, clipped to the grid.  So each unordered pair is found
    exactly once, from about 2 candidates per close pair (12.5 cells of area
    ``radius**2 / 4`` against a half disk; full-radius cells need about
    2.9).  Returns ``(x, y, cx, cy, start, cells, radius_sq, by_cell)``: the
    cell-sorted coordinates and cells, the cell starts (two empty columns
    past the grid), the grid side, ``radius * radius`` and the sort order.
    """
    n = len(points)
    margin = 2.0**-50
    cells = max(1, min(math.isqrt(n), int(2.0 / (radius * (1.0 + margin) + margin))))
    cx = np.minimum((points[:, 0] * cells).astype(np.int64), cells - 1)
    cy = np.minimum((points[:, 1] * cells).astype(np.int64), cells - 1)
    cell = cx * cells + cy
    by_cell = np.argsort(cell, kind="stable")
    # Cell starts, with two empty columns past the grid for the last ranges.
    start = np.zeros((cells + 2) * cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=(cells + 2) * cells), out=start[1:])
    cx, cy = cx[by_cell], cy[by_cell]
    x = np.ascontiguousarray(points[by_cell, 0])
    y = np.ascontiguousarray(points[by_cell, 1])
    return x, y, cx, cy, start, cells, radius * radius, by_cell


def random_geometric(n: int, radius: float, seed: int = 0, backend: str = "fast") -> FastNetwork:
    """A random geometric graph on the unit square (wireless-mesh shape).

    ``n`` points uniform in ``[0, 1)^2``; vertices at Euclidean distance at
    most ``radius`` are adjacent.  The points are
    ``numpy.random.default_rng(seed).random((n, 2))`` -- its first draws, so
    tests can regenerate them -- and the close pairs come from the
    half-radius cell sweep of :func:`_geometric_edges` (the ``geo_pairs``
    kernel step): three contiguous candidate ranges per point, about 2
    candidates per edge, so ``O(n + edges)`` instead of the ``O(n^2)``
    all-pairs check.  The distance test is ``dx * dx + dy * dy <= radius *
    radius`` in float64 on both kernel providers, so the edge set (and the
    CSR) of a seed does not depend on the sweep.  ``backend`` accepts only
    ``"fast"`` (kept for callers that still pass it).
    """
    _require_fast(backend)
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    if not radius > 0:
        raise InvalidParameterError("radius must be positive")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    u, v = _geometric_edges(points, float(radius))
    return _fast_from_edges(u, v, n)


def bipartite_switch(ports: int, demand_degree: int, seed: int = 0) -> FastNetwork:
    """A switch-fabric demand instance: random bipartite biregular graph.

    The switch-scheduling workload of the paper's introduction: ``ports``
    input ports, ``ports`` output ports, every port on exactly
    ``demand_degree`` demands.  Structurally :func:`random_bipartite_regular`
    with switch-flavored node identifiers (``("in", i)`` / ``("out", j)``)
    and the same array-native sampler end to end, so million-port instances
    are practical.
    """
    if ports < 1:
        raise InvalidParameterError("ports must be at least 1")
    if demand_degree < 0 or demand_degree > ports:
        raise InvalidParameterError("need 0 <= demand_degree <= ports")

    def identifiers() -> Iterable:
        return [("in", i) for i in range(ports)] + [
            ("out", i) for i in range(ports)
        ]

    return _fast_random_bipartite_regular(ports, demand_degree, seed, order=identifiers)
