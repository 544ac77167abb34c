"""The communication graph.

A :class:`Network` is an undirected, unweighted graph ``G = (V, E)`` together
with the assignment of distinct identity numbers from ``{1, ..., n}`` to its
vertices, exactly as the paper's model requires.  It is the object the
synchronous scheduler executes phases on.

Networks are immutable once constructed.  Derived networks (for instance the
vertex-disjoint subgraphs Procedure Legal-Color recurses on) are obtained via
:meth:`Network.filtered_by_edge` or :meth:`Network.induced_subgraph`; derived
networks preserve the original unique identifiers so that identifier-based
tie-breaking stays consistent across recursion levels.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.local_model.node import Node


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


class Network:
    """An undirected communication graph with unique node identifiers.

    Parameters
    ----------
    adjacency:
        Mapping from node identifier to an iterable of its neighbors.  The
        mapping must be symmetric; missing reverse entries are added
        automatically.  Self-loops are rejected.
    unique_ids:
        Optional mapping from node identifier to the distinct identity number
        in ``{1, ..., n}``.  When omitted, identifiers are assigned by sorting
        node identifiers with :func:`node_sort_key` (numeric for integers,
        element-wise for tuples -- deterministic for the identifier types used
        in this package).  Node, neighbor and edge orderings all follow the
        unique identifiers, so tie-breaking stays consistent across derived
        networks.
    """

    def __init__(
        self,
        adjacency: Mapping[Hashable, Iterable[Hashable]],
        unique_ids: Optional[Mapping[Hashable, int]] = None,
    ) -> None:
        adj: Dict[Hashable, set] = {node: set() for node in adjacency}
        for node, neighbors in adjacency.items():
            for neighbor in neighbors:
                if neighbor == node:
                    raise InvalidParameterError(
                        f"self-loop at node {node!r} is not allowed in the LOCAL model"
                    )
                if neighbor not in adj:
                    adj[neighbor] = set()
                adj[node].add(neighbor)
                adj[neighbor].add(node)

        # Nodes, neighbor lists and edges are all ordered by the assigned
        # unique identifiers (NOT by repr, whose lexicographic order puts 10
        # before 2 and is fragile for mixed int/tuple identifier sets).  When
        # no identifiers are supplied they are assigned along the
        # node_sort_key order, so identifier order and key order coincide.
        if unique_ids is None:
            self._order: List[Hashable] = sorted(adj, key=node_sort_key)
            self._unique_ids: Dict[Hashable, int] = {
                node: index + 1 for index, node in enumerate(self._order)
            }
        else:
            missing = [node for node in adj if node not in unique_ids]
            if missing:
                raise InvalidParameterError(
                    f"unique_ids missing entries for nodes: {missing[:5]!r}"
                )
            ids = [unique_ids[node] for node in adj]
            if len(set(ids)) != len(ids):
                raise InvalidParameterError("unique_ids must be distinct")
            self._unique_ids = {node: int(unique_ids[node]) for node in adj}
            self._order = sorted(adj, key=self._unique_ids.__getitem__)

        uid = self._unique_ids
        self._adjacency: Dict[Hashable, Tuple[Hashable, ...]] = {
            node: tuple(sorted(adj[node], key=uid.__getitem__)) for node in self._order
        }
        self._edges: Tuple[Tuple[Hashable, Hashable], ...] = tuple(
            sorted(
                {
                    (u, v) if uid[u] <= uid[v] else (v, u)
                    for u in self._order
                    for v in self._adjacency[u]
                },
                key=lambda edge: (uid[edge[0]], uid[edge[1]]),
            )
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        isolated_nodes: Iterable[Hashable] = (),
    ) -> "Network":
        """Build a network from an edge list plus optional isolated vertices."""
        adjacency: Dict[Hashable, List[Hashable]] = {}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        for node in isolated_nodes:
            adjacency.setdefault(node, [])
        return cls(adjacency)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of vertices ``n``."""
        return len(self._order)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edges)

    @property
    def max_degree(self) -> int:
        """The maximum degree ``Delta(G)`` (0 for the empty graph)."""
        if not self._order:
            return 0
        return max(len(self._adjacency[node]) for node in self._order)

    def nodes(self) -> Tuple[Hashable, ...]:
        """All node identifiers in deterministic order."""
        return tuple(self._order)

    def edges(self) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """All edges as canonical (sorted) pairs, in deterministic order."""
        return self._edges

    def neighbors(self, node: Hashable) -> Tuple[Hashable, ...]:
        """Neighbors of ``node`` in deterministic order."""
        return self._adjacency[node]

    def degree(self, node: Hashable) -> int:
        """Degree of ``node``."""
        return len(self._adjacency[node])

    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` belongs to the network."""
        return node in self._adjacency

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether the undirected edge ``(u, v)`` belongs to the network."""
        return v in self._adjacency.get(u, ())

    def unique_id(self, node: Hashable) -> int:
        """The distinct identity number of ``node`` (from ``{1, ..., n}``)."""
        return self._unique_ids[node]

    def unique_ids(self) -> Dict[Hashable, int]:
        """A copy of the full identifier assignment."""
        return dict(self._unique_ids)

    def __contains__(self, node: Hashable) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._order)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(n={self.num_nodes}, m={self.num_edges}, max_degree={self.max_degree})"

    # ------------------------------------------------------------------ #
    # Derived networks
    # ------------------------------------------------------------------ #

    def create_nodes(self) -> Dict[Hashable, Node]:
        """Instantiate a fresh :class:`Node` object for every vertex."""
        return {
            node: Node(
                node_id=node,
                unique_id=self._unique_ids[node],
                neighbors=self._adjacency[node],
            )
            for node in self._order
        }

    def filtered_by_edge(
        self, keep_edge: Callable[[Hashable, Hashable], bool]
    ) -> "Network":
        """Return a spanning subnetwork keeping only edges where ``keep_edge`` holds.

        All vertices are preserved (possibly as isolated vertices), and unique
        identifiers are inherited from this network.  This is the primitive
        used to execute Procedure Legal-Color's recursion: all subgraphs of a
        recursion level are obtained by dropping the edges that cross between
        different color classes, and the phases of that level then run on the
        filtered network -- which is exactly the "in parallel on the
        subgraphs" execution of the paper.
        """
        adjacency = {
            node: [
                neighbor
                for neighbor in self._adjacency[node]
                if keep_edge(node, neighbor)
            ]
            for node in self._order
        }
        return Network(adjacency, unique_ids=self._unique_ids)

    def induced_subgraph(self, nodes: Iterable[Hashable]) -> "Network":
        """Return the subgraph induced by ``nodes`` (unique ids inherited)."""
        keep = set(nodes)
        unknown = keep - set(self._order)
        if unknown:
            raise InvalidParameterError(
                f"unknown nodes in induced_subgraph: {sorted(map(repr, unknown))[:5]}"
            )
        adjacency = {
            node: [n for n in self._adjacency[node] if n in keep]
            for node in self._order
            if node in keep
        }
        unique_ids = {node: self._unique_ids[node] for node in adjacency}
        return Network(adjacency, unique_ids=unique_ids)
