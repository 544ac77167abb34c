"""The graph type: a CSR adjacency with unique identities in dense order.

Every graph in this package -- the workload generators' output, ``L(G)``,
the per-level subgraphs of Procedure Legal-Color, a hand-built adjacency --
is a :class:`FastNetwork`.  Nodes are dense indices ``0..n-1`` in unique-id
order, and the adjacency is stored CSR-style (one flat ``indices`` array
plus ``indptr`` offsets).  Both engines run on it: the vectorized engine
reads the arrays, and the reference
:class:`~repro.local_model.scheduler.Scheduler` builds its per-node views
from ``order``, ``unique_ids`` and ``neighbor_ids``.

The CSR arrays (``indptr``, ``indices``, ``degrees``, ``unique_ids``) are
plain contiguous ``int64`` numpy arrays -- one copy of each, read directly by
the numpy and fused kernels and converted with ``tolist()`` wherever
per-node Python code (``LocalView`` construction) needs Python ints.  On top
of them sit:

* **construction** -- :meth:`FastNetwork.from_edge_array` and
  :meth:`FastNetwork.from_csr` build a view straight from endpoint arrays
  (or ready-made CSR arrays): the workload generators
  (:mod:`repro.graphs.generators`) enter here, and node identifiers stay
  behind a lazy provider exactly like the line-graph views of
  :mod:`repro.local_model.line_csr`.  :meth:`FastNetwork.from_adjacency`
  takes a hand-built ``node -> neighbors`` mapping with hashable
  identifiers, ordered by :func:`node_sort_key`;
* **CSR masking** (:meth:`FastNetwork.filtered` /
  :meth:`~FastNetwork.filtered_by_labels`) -- derive the sub-network of a
  recursion level directly at the array level (no re-sorting, no set-based
  deduplication).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError


#: Combined sort keys stay below this bound (int64 with a bit to spare).
_KEY_LIMIT = 1 << 62


def node_sort_key(node: Hashable) -> Tuple:
    """A total order over the identifier types used in this package.

    Integers (and floats) compare numerically, strings lexicographically, and
    tuples element-wise by the same rule; distinct types are segregated so the
    comparison never raises.  Unlike ordering by ``repr`` -- which puts ``10``
    before ``2`` and interleaves tuples with integers arbitrarily -- this key
    is stable under renaming-free changes of ``repr`` and orders numeric
    identifiers numerically.
    """
    if isinstance(node, tuple):
        return (2, tuple(node_sort_key(item) for item in node))
    if isinstance(node, (bool, int, float)):
        return (0, node)
    if isinstance(node, str):
        return (1, node)
    return (3, repr(node))


def index_array(values, what: str) -> np.ndarray:
    """``values`` as a contiguous ``int64`` array of node indices.

    Floats and bools raise :class:`InvalidParameterError` instead of being
    truncated; an empty input passes whatever its dtype (``np.asarray([])``
    is float64).
    """
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise InvalidParameterError(f"{what} must hold integers, got dtype {array.dtype}")
    return np.ascontiguousarray(array, dtype=np.int64)


def _lexsort_pairs(major, minor) -> np.ndarray:
    """The stable permutation ``np.lexsort((minor, major))`` returns.

    It sorts one ``int64`` key, ``(major - min) * span + (minor - min)``,
    with the entry index as its lowest digit: the keys are distinct, so a
    plain in-place sort is stable and ``key % size`` decodes the permutation.
    Past ``2**62`` it falls back to the lexsort itself.
    """
    major, minor = np.asarray(major, dtype=np.int64), np.asarray(minor, dtype=np.int64)
    size = len(major)
    if not size:
        return np.zeros(0, dtype=np.intp)
    major_lo, minor_lo = int(major.min()), int(minor.min())
    span = int(minor.max()) - minor_lo + 1
    if (int(major.max()) - major_lo + 1) * span * size >= _KEY_LIMIT:
        return np.lexsort((minor, major))
    key = ((major - major_lo) * span + (minor - minor_lo)) * size
    key += np.arange(size, dtype=np.int64)
    key.sort()
    return key % size


class _RangeIdentifiers:
    """The order provider of array-built views without explicit identifiers.

    The identifiers are the dense range ``0..n-1``; the provider's type is
    what :attr:`FastNetwork.has_range_ids` checks, so nothing is interned to
    tell.
    """

    __slots__ = ("num_nodes",)

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes

    def __call__(self) -> range:
        return range(self.num_nodes)


class ColumnMapping(Mapping):
    """A read-only ``identifier -> value`` mapping over a dense column.

    It keeps the column and the identifier source of a view (its interned
    ``order``, or the provider that interns it), never the view: a result
    holding it does not pin the view's CSR arrays.  The identifiers are
    interned, and the dict built, on first access; ``len`` needs neither.
    It compares equal to the eager dict, iterates in dense order, and
    pickles (and copies) as that plain dict.
    """

    __slots__ = ("_column", "_identifiers", "_dict")

    def __init__(
        self, column: np.ndarray, identifiers: Union[Tuple, Callable[[], object]]
    ) -> None:
        self._column = column
        self._identifiers = identifiers
        self._dict: Optional[dict] = None

    def _mapping(self) -> dict:
        if self._dict is None:
            identifiers = self._identifiers
            if callable(identifiers):
                identifiers = identifiers()
            self._dict = dict(zip(identifiers, self._column.tolist()))
            self._identifiers = None
        return self._dict

    def __getitem__(self, key: Hashable) -> int:
        return self._mapping()[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self._column)

    def __repr__(self) -> str:
        return repr(self._mapping())

    def __reduce__(self):
        return (dict, (self._mapping(),))


class FastNetwork:
    """An undirected graph with unique node identities, in CSR form.

    Attributes
    ----------
    order:
        Node identifiers in unique-id order; position in this tuple is the
        node's dense index.
    index_of:
        Mapping from node identifier to dense index.
    unique_ids:
        ``unique_ids[i]`` is the distinct identity number of node ``i``
        (an ``int64`` array, strictly increasing).
    indptr, indices:
        The CSR arrays (``int64``): the neighbors of node ``i`` are the dense
        indices ``indices[indptr[i]:indptr[i + 1]]``, ascending (unique-id
        order) except on an ``L(G)`` view and its masks, whose rows are in
        incidence order (see :meth:`ascending_rows`).
    neighbor_ids:
        ``neighbor_ids[i]`` is the tuple of neighbor *identifiers* of node
        ``i`` in CSR row order (materialized on first use).
    degrees:
        ``degrees[i]`` is the degree of node ``i`` (an ``int64`` array).

    Views are built by the class-method constructors, never directly.
    """

    __slots__ = (
        "_order",
        "_index_of",
        "_order_provider",
        "unique_ids",
        "indptr",
        "indices",
        "_neighbor_ids",
        "degrees",
        "num_nodes",
        "max_degree",
        "line_meta",
        "_np_cache",
    )

    def __init__(self) -> None:
        #: Derived arrays computed on first use (``rows``, ``edge_keys``, ``ascending_indices``).
        self._np_cache: Dict[str, np.ndarray] = {}
        #: Dense incidence encoding for line-graph views (see
        #: :mod:`repro.local_model.line_csr`); ``None`` on ordinary networks.
        self.line_meta = None
        self._order_provider = None

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[Hashable, Iterable[Hashable]],
        unique_ids: Optional[Mapping[Hashable, int]] = None,
    ) -> "FastNetwork":
        """Build a view from a ``node -> neighbors`` mapping with hashable ids.

        Missing reverse entries are added (a neighbor that is no key becomes
        a node) and self-loops are rejected.  ``unique_ids`` maps every node
        to its distinct identity number; when omitted, nodes are numbered
        ``1..n`` along :func:`node_sort_key`.  Dense order is unique-id order.
        """
        nodes: Dict[Hashable, None] = dict.fromkeys(adjacency)
        pairs = []
        for node, neighbors in adjacency.items():
            for neighbor in neighbors:
                if neighbor == node:
                    raise InvalidParameterError(
                        f"self-loop at node {node!r} is not allowed in the LOCAL model"
                    )
                nodes.setdefault(neighbor)
                pairs.append((node, neighbor))
        if unique_ids is None:
            order = sorted(nodes, key=node_sort_key)
            ids = None
        else:
            missing = [node for node in nodes if node not in unique_ids]
            if missing:
                raise InvalidParameterError(
                    f"unique_ids missing entries for nodes: {missing[:5]!r}"
                )
            if len({unique_ids[node] for node in nodes}) != len(nodes):
                raise InvalidParameterError("unique_ids must be distinct")
            order = sorted(nodes, key=lambda node: int(unique_ids[node]))
            ids = [int(unique_ids[node]) for node in order]
        index = {node: i for i, node in enumerate(order)}
        u = np.fromiter((index[a] for a, _ in pairs), dtype=np.int64, count=len(pairs))
        v = np.fromiter((index[b] for _, b in pairs), dtype=np.int64, count=len(pairs))
        return cls.from_edge_array(u, v, num_nodes=len(order), unique_ids=ids, order=order)

    # ------------------------------------------------------------------ #
    # Array constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edge_array(
        cls,
        u,
        v,
        *,
        num_nodes: int,
        unique_ids=None,
        order=None,
    ) -> "FastNetwork":
        """Build a :class:`FastNetwork` from endpoint arrays.

        Parameters
        ----------
        u, v:
            Integer arrays of equal length holding the dense endpoint indices
            of the undirected edges (each edge listed once, in either
            endpoint order).  Duplicate edges are deduplicated silently and
            self-loops are rejected.
        num_nodes:
            Number of nodes ``n``; indices must lie in ``0..n-1``.  Nodes
            that appear in no edge become isolated vertices.
        unique_ids:
            Optional ``int64`` array of distinct identity numbers, one per
            dense index.  Must be *strictly increasing*: dense order is
            unique-id order everywhere in this package (the line-graph
            builder and the canonical-edge enumeration rely on it).
            Defaults to ``1..n``.
        order:
            Node identifiers -- a sequence, or a zero-argument callable
            returning one (the lazy-provider protocol of the line-graph
            views: the ``n`` Python objects are interned on first use at the
            API boundary, or never).  Defaults to the dense indices
            themselves.

        The CSR arrays are assembled by symmetrizing the endpoint arrays
        into one combined ``row * n + col`` key, sorted and deduplicated in
        place; ``indptr`` is the key's ``searchsorted`` against the row
        starts ``i * n`` and ``indices`` is the key minus its row start.
        Since dense order is unique-id order, every row lists its neighbors
        in unique-id order.
        """
        try:
            n = operator.index(num_nodes)
        except TypeError:
            raise InvalidParameterError(
                f"num_nodes must be an integer, got {num_nodes!r}"
            ) from None
        if n < 0:
            raise InvalidParameterError("num_nodes must be non-negative")
        u = index_array(u, "edge endpoints").ravel()
        v = index_array(v, "edge endpoints").ravel()
        if u.shape != v.shape:
            raise InvalidParameterError(
                f"endpoint arrays disagree in length: {len(u)} vs {len(v)}"
            )
        if len(u) and (
            u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n
        ):
            raise InvalidParameterError(
                f"edge endpoints must be dense indices in 0..{n - 1}"
            )
        loops = u == v
        if loops.any():
            offender = int(u[int(np.argmax(loops))])
            if order is None:
                node = offender
            else:
                node = tuple(order() if callable(order) else order)[offender]
            raise InvalidParameterError(
                f"self-loop at node {node!r} is not allowed in the LOCAL model"
            )

        if n * n < _KEY_LIMIT:  # one combined key, sorted and deduplicated
            key = np.concatenate([u * n + v, v * n + u])
            key.sort()
            fresh = key[1:] != key[:-1]
            if not fresh.all():
                key = key[np.r_[True, fresh]]
            row_base = np.arange(n + 1, dtype=np.int64) * n
            indptr = np.searchsorted(key, row_base).astype(np.int64, copy=False)
            degrees = np.diff(indptr)
            key -= np.repeat(row_base[:-1], degrees)
            return cls._from_parts(indptr, key, degrees, n, unique_ids, order)
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        if len(rows):
            by_row_then_col = _lexsort_pairs(rows, cols)
            rows, cols = rows[by_row_then_col], cols[by_row_then_col]
            fresh = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
            rows, cols = rows[fresh], cols[fresh]
        degrees = np.bincount(rows, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls._from_parts(indptr, cols, degrees, n, unique_ids, order)

    @classmethod
    def from_csr(
        cls,
        indptr,
        indices,
        *,
        unique_ids=None,
        order=None,
        check: bool = True,
    ) -> "FastNetwork":
        """Build a :class:`FastNetwork` from ready-made CSR arrays.

        ``indptr``/``indices`` follow the usual convention (neighbors of node
        ``i`` are ``indices[indptr[i]:indptr[i + 1]]``).  With ``check=True``
        (the default) the arrays are validated vectorially: monotone
        ``indptr``, in-range indices, per-row strictly ascending neighbor
        lists (which is the unique-id neighbor order, and excludes duplicate
        edges), no self-loops, and a symmetric adjacency.  Pass
        ``check=False`` only for arrays produced by trusted array code.
        ``unique_ids`` / ``order`` behave as in :meth:`from_edge_array`.
        """
        # Copies, so the view never aliases (and cannot be mutated through)
        # the caller's arrays.
        indptr = index_array(indptr, "indptr").ravel().copy()
        indices = index_array(indices, "CSR indices").ravel().copy()
        if len(indptr) == 0 or indptr[0] != 0:
            raise InvalidParameterError("indptr must start with 0")
        n = len(indptr) - 1
        degrees = np.diff(indptr)
        if check:
            if (degrees < 0).any():
                raise InvalidParameterError("indptr must be non-decreasing")
            if int(indptr[-1]) != len(indices):
                raise InvalidParameterError(
                    f"indptr ends at {int(indptr[-1])} but there are "
                    f"{len(indices)} CSR entries"
                )
            if len(indices) and (indices.min() < 0 or indices.max() >= n):
                raise InvalidParameterError(
                    f"CSR indices must be dense indices in 0..{n - 1}"
                )
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            if (rows == indices).any():
                raise InvalidParameterError(
                    "self-loops are not allowed in the LOCAL model"
                )
            interior = np.ones(len(indices), dtype=bool)
            starts = indptr[1:-1]
            interior[starts[starts < len(indices)]] = False  # row starts
            if len(indices) and not (np.diff(indices) > 0)[interior[1:]].all():
                raise InvalidParameterError(
                    "neighbor lists must be strictly increasing per row "
                    "(dense order is unique-id order)"
                )
            forward = np.sort(rows * n + indices)
            backward = np.sort(indices * n + rows)
            if not np.array_equal(forward, backward):
                raise InvalidParameterError("adjacency must be symmetric")
        return cls._from_parts(indptr, indices, degrees, n, unique_ids, order)

    @classmethod
    def _from_parts(
        cls, indptr, indices, degrees, num_nodes, unique_ids, order
    ) -> "FastNetwork":
        """Finalize an array-built view (shared by the array constructors)."""
        if unique_ids is None:
            unique_ids = np.arange(1, num_nodes + 1, dtype=np.int64)
        else:
            unique_ids = np.array(unique_ids, dtype=np.int64).ravel()  # a copy
            if unique_ids.shape != (num_nodes,):
                raise InvalidParameterError(
                    f"unique_ids must have one entry per node ({num_nodes}), "
                    f"got shape {unique_ids.shape}"
                )
            if len(unique_ids) > 1 and not (np.diff(unique_ids) > 0).all():
                raise InvalidParameterError(
                    "unique_ids must be strictly increasing along the dense "
                    "index (dense order is unique-id order)"
                )
        built = cls()
        built.num_nodes = int(num_nodes)
        built.unique_ids = unique_ids
        built.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        built.indices = np.ascontiguousarray(indices, dtype=np.int64)
        built.degrees = np.ascontiguousarray(degrees, dtype=np.int64)
        built.max_degree = int(np.max(degrees)) if num_nodes else 0
        built._neighbor_ids = None
        built._index_of = None  # interned lazily from `order` on first use
        if order is None:
            built._order = None
            built._order_provider = _RangeIdentifiers(built.num_nodes)
        elif callable(order):
            built._order = None
            built._order_provider = order
        else:
            order = tuple(order)
            if len(order) != num_nodes:
                raise InvalidParameterError(
                    f"order must list all {num_nodes} node identifiers, "
                    f"got {len(order)}"
                )
            built._order = order
        return built

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (half the number of CSR entries)."""
        return len(self.indices) // 2

    @property
    def order(self) -> Tuple[Hashable, ...]:
        """Node identifiers in deterministic order (dense index = position).

        Line-graph views built by
        :func:`repro.local_model.line_csr.build_line_graph_fast` defer the
        edge-tuple identifiers behind a provider: the fully vectorized
        execution path addresses nodes by dense index only, so the ``|E|``
        Python tuples are interned exactly once, at the API boundary (result
        extraction, reference-engine audits), or never.
        """
        if self._order is None:
            self._order = tuple(self._order_provider())
        return self._order

    @property
    def has_range_ids(self) -> bool:
        """Whether the node identifiers are the default range ``0..n-1``."""
        return isinstance(self._order_provider, _RangeIdentifiers)

    def column_mapping(self, column: np.ndarray) -> ColumnMapping:
        """``column`` (dense node order) keyed by node identifier, lazily.

        The mapping keeps this view's identifier source, not the view (see
        :class:`ColumnMapping`).
        """
        if self._order is not None:
            return ColumnMapping(column, self._order)
        return ColumnMapping(column, self._order_provider)

    @property
    def index_of(self) -> Dict[Hashable, int]:
        """Mapping from node identifier to dense index (built lazily)."""
        if self._index_of is None:
            self._index_of = {node: i for i, node in enumerate(self.order)}
        return self._index_of

    def nodes(self) -> Tuple[Hashable, ...]:
        """All node identifiers in deterministic order (same as ``order``)."""
        return self.order

    def unique_id(self, node: Hashable) -> int:
        """The distinct identity number of ``node`` (a Python ``int``)."""
        return int(self.unique_ids[self.index_of[node]])

    def edges(self) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """The edges as identifier pairs, each in unique-id order, in pair-key order.

        These are the ``row < col`` entries of :meth:`ascending_rows`.
        """
        view = self.ascending_rows()
        forward = view.rows_np < view.indices
        order = self.order
        return tuple(
            (order[u], order[v])
            for u, v in zip(view.rows_np[forward].tolist(), view.indices[forward].tolist())
        )

    def neighbor_indices(self, i: int) -> np.ndarray:
        """Dense neighbor indices of node ``i`` (a zero-copy CSR view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    @property
    def neighbor_ids(self) -> Tuple[Tuple[Hashable, ...], ...]:
        """Per-node neighbor *identifier* tuples (lazy on derived views).

        They are materialized from the CSR rows on first use -- the fully
        vectorized execution path never needs them, so deriving a recursion
        level's sub-view stays free of per-node Python work.
        """
        if self._neighbor_ids is None:
            order = self.order
            indptr, indices = self.indptr.tolist(), self.indices.tolist()
            self._neighbor_ids = tuple(
                tuple(order[j] for j in indices[indptr[i] : indptr[i + 1]])
                for i in range(self.num_nodes)
            )
        return self._neighbor_ids

    # ------------------------------------------------------------------ #
    # Array accessors (the substrate of the vectorized engine)
    # ------------------------------------------------------------------ #

    @property
    def indptr_np(self) -> np.ndarray:
        """``indptr`` (kept for callers that spell the array name this way)."""
        return self.indptr

    @property
    def indices_np(self) -> np.ndarray:
        """``indices`` (kept for callers that spell the array name this way)."""
        return self.indices

    @property
    def degrees_np(self) -> np.ndarray:
        """``degrees`` (kept for callers that spell the array name this way)."""
        return self.degrees

    @property
    def rows_np(self) -> np.ndarray:
        """``rows_np[e]`` is the *source* node of CSR entry ``e`` (cached).

        Together with ``indices_np`` this lists every directed edge
        ``rows_np[e] -> indices_np[e]``; each undirected edge appears twice.
        """
        cached = self._np_cache.get("rows")
        if cached is None:
            cached = self._np_cache["rows"] = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.degrees_np
            )
        return cached

    @property
    def edge_keys_np(self) -> np.ndarray:
        """The directed-entry keys ``row * num_nodes + col``, ascending (cached).

        Presence tests and delta merges are plain ``searchsorted`` work on
        them.  The order is checked once, when the keys are first computed;
        an ``L(G)`` view's keys are sorted then.  :meth:`with_edge_updates`
        hands the merged keys straight to the derived view's cache, so a
        chain of patches never recomputes or rechecks them.
        """
        cached = self._np_cache.get("edge_keys")
        if cached is None:
            cached = self.rows_np * self.num_nodes + self.indices_np
            if not (cached[1:] > cached[:-1]).all():
                cached.sort()
                self._np_cache["ascending_indices"] = cached % self.num_nodes
            self._np_cache["edge_keys"] = cached
        return cached

    def ascending_rows(self) -> "FastNetwork":
        """This view, or its sibling listing every row's neighbors ascending.

        For consumers that read the entries with ``row < col`` as the
        canonical edges in pair-key order, or merge against the keys.
        """
        keys = self.edge_keys_np
        indices = self._np_cache.get("ascending_indices")
        if indices is None:
            return self
        sibling = self._sibling(self.indptr, indices, self.degrees, self.line_meta)
        sibling._np_cache["edge_keys"] = keys
        return sibling

    # ------------------------------------------------------------------ #
    # CSR masking: derived sub-networks
    # ------------------------------------------------------------------ #

    def filtered(
        self,
        edge_mask: Optional[np.ndarray] = None,
        node_mask: Optional[np.ndarray] = None,
    ) -> "FastNetwork":
        """A spanning sub-view keeping only the unmasked edges.

        Parameters
        ----------
        edge_mask:
            Boolean array over the CSR entries (length ``len(indices)``);
            entry ``e`` keeps the directed edge ``rows_np[e] -> indices_np[e]``.
            The mask must be symmetric (both directions of an undirected edge
            kept or dropped together), which every equality-based mask is.
        node_mask:
            Boolean array over the nodes (length ``num_nodes``); an edge
            survives only if *both* endpoints are unmasked.  All nodes are
            preserved in the result (masked-out nodes become isolated): a
            spanning subgraph, which is what the "run all subgraphs of a
            recursion level in parallel" execution requires.

        Returns
        -------
        FastNetwork
            A derived view sharing ``order`` / ``index_of`` / ``unique_ids``
            with this one.
        """
        if edge_mask is None and node_mask is None:
            raise InvalidParameterError("filtered() requires edge_mask or node_mask")
        keep = None
        if edge_mask is not None:
            keep = np.asarray(edge_mask, dtype=bool)
            if keep.shape != (len(self.indices),):
                raise InvalidParameterError(
                    f"edge_mask must have one entry per CSR slot "
                    f"({len(self.indices)}), got shape {keep.shape}"
                )
        if node_mask is not None:
            nodes_kept = np.asarray(node_mask, dtype=bool)
            if nodes_kept.shape != (self.num_nodes,):
                raise InvalidParameterError(
                    f"node_mask must have one entry per node "
                    f"({self.num_nodes}), got shape {nodes_kept.shape}"
                )
            endpoint_keep = nodes_kept[self.rows_np] & nodes_kept[self.indices_np]
            keep = endpoint_keep if keep is None else (keep & endpoint_keep)
        return self._masked(keep)

    def filtered_by_labels(self, labels: np.ndarray) -> "FastNetwork":
        """Keep exactly the edges whose endpoints carry equal labels.

        This is the CSR form of the Legal-Color recursion step: vertices with
        equal recursion paths stay connected, edges crossing between classes
        are dropped.  ``labels`` is any integer array of length ``num_nodes``.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.num_nodes,):
            raise InvalidParameterError(
                f"labels must have one entry per node ({self.num_nodes}), "
                f"got shape {labels.shape}"
            )
        return self._masked(labels[self.rows_np] == labels[self.indices_np])

    def _masked(self, keep: np.ndarray) -> "FastNetwork":
        """Build the derived view for a per-CSR-entry boolean mask."""
        new_indices = self.indices_np[keep]
        new_degrees = np.bincount(
            self.rows_np[keep], minlength=self.num_nodes
        ).astype(np.int64)
        new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(new_degrees, out=new_indptr[1:])
        return self._sibling(new_indptr, new_indices, new_degrees, self.line_meta)

    def _sibling(
        self, indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray, line_meta
    ) -> "FastNetwork":
        """A view over the same node set (order, ids) with new CSR arrays."""
        derived = FastNetwork()
        derived._order = self._order
        derived._index_of = self._index_of
        derived._order_provider = self._order_provider
        derived.line_meta = line_meta
        derived.unique_ids = self.unique_ids
        derived.num_nodes = self.num_nodes
        derived.indices = np.ascontiguousarray(indices, dtype=np.int64)
        derived.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        derived.degrees = np.ascontiguousarray(degrees, dtype=np.int64)
        derived.max_degree = int(degrees.max()) if self.num_nodes else 0
        # Neighbor-identifier structures are materialized lazily (see the
        # neighbor_ids property): the vectorized engine never touches them.
        derived._neighbor_ids = None
        return derived

    def with_edge_updates(
        self,
        add_u: np.ndarray,
        add_v: np.ndarray,
        remove_u: np.ndarray,
        remove_v: np.ndarray,
    ) -> "FastNetwork":
        """A sibling view with the given edges removed and/or inserted.

        This is the CSR patch step of the dynamic-recoloring subsystem
        (:mod:`repro.dynamic`): removals and insertions arrive as raw
        ``int64`` endpoint arrays, the surviving directed entries are
        delta-merged with the (sorted) insertion keys, and the new CSR is
        rebuilt from incrementally patched degrees with one cumsum -- never
        a full symmetrize-lexsort over the whole edge set, so a small batch
        costs ``O(|E| + |batch| log |batch|)`` straight array work (the
        ``O(|E|)`` part is just masks/inserts on the key and index columns;
        no per-entry key decode, no full bincount).  This view's rows may be
        in any order; the derived view's are ascending.

        Semantics match :meth:`from_edge_array`: the node set is fixed,
        duplicate insertions (and insertions of already-present edges) are
        deduplicated silently, removals of absent edges are no-ops, and
        self-loops are rejected.  Removals are applied before insertions, so
        an edge listed in both ends up present.  The derived view shares
        ``order`` / ``unique_ids`` with this one; any line-graph incidence
        metadata is dropped (the edge set changed).
        """
        n = self.num_nodes
        add_u, add_v, remove_u, remove_v = (
            index_array(endpoints, "edge endpoints").ravel()
            for endpoints in (add_u, add_v, remove_u, remove_v)
        )
        if add_u.shape != add_v.shape or remove_u.shape != remove_v.shape:
            raise InvalidParameterError("endpoint arrays disagree in length")
        for endpoints in (add_u, add_v, remove_u, remove_v):
            if len(endpoints) and (endpoints.min() < 0 or endpoints.max() >= n):
                raise InvalidParameterError(
                    f"edge endpoints must be dense indices in 0..{n - 1}"
                )
        if (add_u == add_v).any():
            offender = int(add_u[int(np.argmax(add_u == add_v))])
            raise InvalidParameterError(
                f"self-loop at node {self.order[offender]!r} is not allowed "
                "in the LOCAL model"
            )

        # The key and index columns are patched in lockstep, and degrees are
        # adjusted per affected row -- the only O(|E|) work is the masks and
        # inserts themselves; rows are never decoded out of the keys.
        base = self.ascending_rows()
        keys, cols = base.edge_keys_np, base.indices
        degrees = self.degrees_np.copy()
        if len(remove_u):
            drop = np.unique(
                np.concatenate([remove_u * n + remove_v, remove_v * n + remove_u])
            )
            slots = np.searchsorted(keys, drop)
            inside = slots < len(keys)
            hit = slots[inside][keys[slots[inside]] == drop[inside]]
            if len(hit):
                keep = np.ones(len(keys), dtype=bool)
                keep[hit] = False
                np.subtract.at(degrees, keys[hit] // n, 1)
                keys = keys[keep]
                cols = cols[keep]
        if len(add_u):
            fresh = np.unique(
                np.concatenate([add_u * n + add_v, add_v * n + add_u])
            )
            slots = np.searchsorted(keys, fresh)
            present = np.zeros(len(fresh), dtype=bool)
            inside = slots < len(keys)
            present[inside] = keys[slots[inside]] == fresh[inside]
            fresh = fresh[~present]
            if len(fresh):
                where = np.searchsorted(keys, fresh)
                keys = np.insert(keys, where, fresh)
                cols = np.insert(cols, where, fresh % n)
                np.add.at(degrees, fresh // n, 1)

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        derived = self._sibling(indptr, cols, degrees, None)
        derived._np_cache["edge_keys"] = keys
        return derived

    def induced(self, node_mask: np.ndarray) -> Tuple["FastNetwork", np.ndarray]:
        """The *compact* induced subgraph on the unmasked nodes.

        Unlike :meth:`filtered`, which keeps every node of the parent (so a
        run over the view still pays ``O(n)`` per phase), the induced view
        relabels the ``k`` selected nodes to dense indices ``0..k-1`` and
        drops everything else -- this is what makes the dynamic-recoloring
        repair (:mod:`repro.dynamic`) proportional to the conflict ball
        instead of the whole graph.  Returns ``(subgraph, nodes)`` where
        ``nodes`` holds the parent dense index of each sub-index.

        The sub-view's unique ids are compacted to ``1..k`` (selection
        preserves the parent's id order, so dense order remains unique-id
        order and the standalone graph satisfies every ``id <= n`` palette
        contract); the parent *identifiers* are deferred behind a lazy
        provider, so nothing is interned unless an audit path asks.
        """
        mask = np.asarray(node_mask, dtype=bool)
        if mask.shape != (self.num_nodes,):
            raise InvalidParameterError(
                f"node_mask must have one entry per node ({self.num_nodes}), "
                f"got shape {mask.shape}"
            )
        nodes = np.flatnonzero(mask)
        relabel = np.full(self.num_nodes, -1, dtype=np.int64)
        relabel[nodes] = np.arange(len(nodes), dtype=np.int64)
        # Gather only the selected nodes' adjacency slices (O(volume of the
        # selection), not O(|E|)): the repair path of :mod:`repro.dynamic`
        # calls this once per update batch, and the conflict ball is tiny
        # next to the graph.  Row/neighbor order is preserved, so the CSR is
        # identical to what a full-mask scan would build.
        counts = self.degrees_np[nodes]
        total = int(counts.sum())
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        entries = np.repeat(self.indptr_np[nodes], counts) + offsets
        neighbors = self.indices_np[entries]
        inside = mask[neighbors]
        sub_rows = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)[inside]
        sub_cols = relabel[neighbors[inside]]
        degrees = np.bincount(sub_rows, minlength=len(nodes)).astype(np.int64)
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        parent = self
        picked = nodes.tolist()

        def identifiers() -> Tuple[Hashable, ...]:
            order = parent.order
            return tuple(order[i] for i in picked)

        sub = FastNetwork._from_parts(
            indptr,
            sub_cols,
            degrees,
            len(nodes),
            None,  # compacted to 1..k; parent id order is preserved
            identifiers,
        )
        return sub, nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FastNetwork(n={self.num_nodes}, nnz={len(self.indices)})"


def fast_view(network) -> FastNetwork:
    """``network``, checked to be a :class:`FastNetwork` (the one graph type).

    Every entry point that takes a graph calls this at its boundary; anything
    else raises :class:`~repro.exceptions.InvalidParameterError`.
    """
    if not isinstance(network, FastNetwork):
        raise InvalidParameterError(
            f"expected a FastNetwork, got {type(network).__name__}; build a "
            "hand-made graph with FastNetwork.from_adjacency"
        )
    return network
