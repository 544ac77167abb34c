"""The columnar node-state store.

Every engine ultimately manipulates *per-node state*.  The reference
scheduler keeps one Python dictionary per node; the vectorized engine keeps
a :class:`StateTable` -- its ``run`` seeds a table from ``initial_states``,
executes through ``run_table`` and materializes dictionaries only for the
result.  For large instances per-node dictionaries are the bottleneck:
every scheduler run would marshal ``n`` dicts in and out, and the driver
loops of Procedure Legal-Color would do per-node tuple bookkeeping between
runs.

:class:`StateTable` stores the same information column-wise, in the two
kinds of state the paper's algorithms carry between phases.  Every column
holds a value on every row:

* **int columns** -- ``int64`` numpy arrays of plain Python ints (colors,
  psi values, scratch keys);
* **path columns** -- the recursion-path tuples of Procedure Legal-Color,
  *interned*: the column holds one dense ``int64`` id per node plus a table
  of distinct tuples, so "extend every path by this level's psi-color" and
  "which nodes share a path" are single array operations
  (:meth:`append_to_paths`, :meth:`path_ids`).

The dict view is recovered with :meth:`to_dicts` / built with
:meth:`from_dicts`; the round-trip is *exact* up to Python equality --
``StateTable.from_dicts(d).to_dicts() == d`` (property-tested in
``tests/test_state_table.py``).  Two deliberate normalizations are
invisible to ``==`` (and therefore to the engine equivalence contract): int
columns materialize fresh (equal) int objects, and interning replaces equal
path tuples by one shared tuple object.  :meth:`from_dicts` raises
:class:`~repro.exceptions.InvalidParameterError`, naming the key, for any
other state: a key missing on some node, a ``bool``, an int outside
``int64``, a list, a tuple with unhashable contents.  Such seeds run on the
reference scheduler's ``run``, which never builds a table.

The table is the only state representation of the vectorized engine
(see :meth:`repro.local_model.vectorized.VectorizedScheduler.run_table`)
and the exchange format of every engine's ``run_table``; rows are in
the dense node order of the :class:`~repro.local_model.fast_network.FastNetwork`
the table travels with, and the table itself never stores node identifiers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

#: Column kind tags (see :meth:`StateTable.kind`).
INT_KIND = "int"
PATH_KIND = "path"


class _IntColumn:
    """A column of plain Python ints, stored as ``int64``."""

    __slots__ = ("values",)
    kind = INT_KIND

    def __init__(self, values: np.ndarray) -> None:
        self.values = values


class _PathColumn:
    """Interned tuples: per-node dense ids into a table of distinct tuples.

    ``interned`` is append-only shared data: columns derived from one another
    (copies, extensions) may share it, so it must never be mutated in place.
    """

    __slots__ = ("ids", "interned")
    kind = PATH_KIND

    def __init__(self, ids: np.ndarray, interned: Sequence[Tuple[Any, ...]]) -> None:
        self.ids = ids
        self.interned = interned


def _as_int64(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values)
    if out.dtype != np.int64:
        out = out.astype(np.int64)
    return out


def _unsupported(key: str, problem: str) -> InvalidParameterError:
    return InvalidParameterError(
        f"state key {key!r} {problem}; a state table holds int64 ints and "
        "hashable tuples on every node -- run such states with engine='reference'"
    )


class StateTable:
    """Typed columns over a fixed number of node-state rows.

    Parameters
    ----------
    num_rows:
        Number of nodes (rows).  Rows are addressed by dense index; the
        mapping to node identifiers is owned by the network the table
        travels with.
    """

    __slots__ = ("num_rows", "_columns")

    def __init__(self, num_rows: int) -> None:
        if num_rows < 0:
            raise InvalidParameterError("num_rows must be non-negative")
        self.num_rows = num_rows
        self._columns: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Construction / materialization (the engine boundary)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict[str, Any]]) -> "StateTable":
        """Build a table holding exactly the entries of ``dicts``.

        A key whose values are all plain ints (``type(value) is int``, so
        not ``bool``) becomes an int column; one whose values are all tuples
        becomes an interned path column.  Any other key -- missing on some
        row, or holding anything else -- raises
        :class:`~repro.exceptions.InvalidParameterError` naming it.
        """
        table = cls(len(dicts))
        keys: Dict[str, None] = {}
        for state in dicts:
            for key in state:
                keys.setdefault(key)
        for key in keys:
            table._columns[key] = cls._classify(key, dicts)
        return table

    @staticmethod
    def _classify(key: str, dicts: Sequence[Dict[str, Any]]) -> Any:
        try:
            values = [state[key] for state in dicts]
        except KeyError:
            raise _unsupported(key, "is missing on some node") from None
        if all(type(value) is int for value in values):
            try:
                return _IntColumn(np.fromiter(values, dtype=np.int64, count=len(values)))
            except OverflowError:
                raise _unsupported(key, "holds an int outside the int64 range") from None
        if all(type(value) is tuple for value in values):
            lookup: Dict[Tuple[Any, ...], int] = {}
            try:
                ids = np.fromiter(
                    (lookup.setdefault(value, len(lookup)) for value in values),
                    dtype=np.int64,
                    count=len(values),
                )
            except TypeError:
                raise _unsupported(key, "holds a tuple with unhashable contents") from None
            return _PathColumn(ids, list(lookup))
        raise _unsupported(key, "holds neither only ints nor only tuples")

    @classmethod
    def from_mapping(
        cls, states: Mapping[Hashable, Dict[str, Any]], order: Sequence[Hashable]
    ) -> "StateTable":
        """Build a table from identifier-keyed states, rows in ``order``.

        Nodes absent from ``states`` get empty rows, so any key they lack
        is rejected by :meth:`from_dicts`; keys of ``states`` that are not
        in ``order`` are ignored (matching how the schedulers treat
        ``initial_states``).  Seed dictionaries are not retained -- their
        entries are copied into the columns.
        """
        empty: Dict[str, Any] = {}
        return cls.from_dicts([states.get(node, empty) for node in order])

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Materialize the exact per-row state dictionaries."""
        rows: List[Dict[str, Any]] = [{} for _ in range(self.num_rows)]
        for key, column in self._columns.items():
            if column.kind == INT_KIND:
                values: Sequence[Any] = column.values.tolist()
            else:
                interned = column.interned
                values = [interned[i] for i in column.ids.tolist()]
            for row, value in zip(rows, values):
                row[key] = value
        return rows

    def to_mapping(self, order: Sequence[Hashable]) -> Dict[Hashable, Dict[str, Any]]:
        """The identifier-keyed dict-of-dicts view (rows follow ``order``)."""
        if len(order) != self.num_rows:
            raise InvalidParameterError(
                f"order has {len(order)} nodes, table has {self.num_rows} rows"
            )
        return dict(zip(order, self.to_dicts()))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def keys(self) -> Tuple[str, ...]:
        """The state keys present in the table."""
        return tuple(self._columns)

    def __contains__(self, key: str) -> bool:
        return key in self._columns

    def kind(self, key: str) -> str:
        """``"int"`` or ``"path"`` (raises ``KeyError``)."""
        return self._columns[key].kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {key: column.kind for key, column in self._columns.items()}
        return f"StateTable(rows={self.num_rows}, columns={kinds})"

    def _path_column(self, key: str) -> _PathColumn:
        column = self._columns[key]  # KeyError mirrors the dicts' behavior.
        if column.kind != PATH_KIND:
            raise TypeError(f"state key {key!r} is not a path column")
        return column

    # ------------------------------------------------------------------ #
    # Int columns
    # ------------------------------------------------------------------ #

    def get_ints(self, key: str) -> np.ndarray:
        """A fresh ``int64`` array of ``state[key]`` over all rows.

        Raises ``KeyError`` when the key is absent and ``TypeError`` when
        the column holds paths -- the same failures a per-node
        ``state[key]`` gather would hit.
        """
        column = self._columns[key]
        if column.kind != INT_KIND:
            raise TypeError(f"state key {key!r} holds paths, not ints")
        return column.values.copy()

    def set_ints(self, key: str, values: np.ndarray) -> None:
        """Replace ``state[key]`` on every row with the given int column."""
        values = _as_int64(values)
        if values.shape != (self.num_rows,):
            raise InvalidParameterError(
                f"column {key!r} must have shape ({self.num_rows},), got {values.shape}"
            )
        self._columns[key] = _IntColumn(values)

    def fill_int(self, key: str, value: int) -> None:
        """Write the same int into ``state[key]`` on every row."""
        self._columns[key] = _IntColumn(np.full(self.num_rows, value, dtype=np.int64))

    def copy_column(self, source_key: str, target_key: str) -> None:
        """``state[target] = state[source]`` on every row, kind-preserving."""
        column = self._columns[source_key]
        if column.kind == INT_KIND:
            self._columns[target_key] = _IntColumn(column.values.copy())
        else:
            self._columns[target_key] = _PathColumn(column.ids.copy(), column.interned)

    # ------------------------------------------------------------------ #
    # Path columns (the Legal-Color recursion bookkeeping)
    # ------------------------------------------------------------------ #

    def fill_path(self, key: str, path: Tuple[Any, ...] = ()) -> None:
        """Write the same tuple into ``state[key]`` on every row (interned)."""
        self._columns[key] = _PathColumn(
            np.zeros(self.num_rows, dtype=np.int64), [tuple(path)]
        )

    def path_ids(self, key: str) -> np.ndarray:
        """The dense interned ids of a path column.

        Two rows hold an equal tuple exactly when their ids are equal -- the
        property the Legal-Color recursion's subgraph filtering needs.  The
        returned array aliases the column; treat it as read-only.
        """
        return self._path_column(key).ids

    def path_interned(self, key: str) -> Tuple[Tuple[Any, ...], ...]:
        """The interned tuple table of a path column.

        :meth:`path_ids` entries index into this sequence; per-distinct-path
        computations (e.g. message-size accounting over recursion paths) run
        over it instead of over every row.
        """
        return tuple(self._path_column(key).interned)

    def num_paths(self, key: str) -> int:
        """Number of *distinct* tuples currently held by a path column."""
        column = self._path_column(key)
        if self.num_rows == 0:
            return 0
        # Ids index the interned table, so one bincount finds the used ones.
        return int(np.count_nonzero(np.bincount(column.ids)))

    def append_to_paths(self, key: str, elements: np.ndarray) -> None:
        """``state[key] = state[key] + (element,)`` on every row, vectorized.

        The per-row ``elements`` must be integers (the psi-colors of one
        recursion level).  New tuples are materialized once per *distinct*
        ``(old path, element)`` pair -- the number of subgraphs, not the
        number of nodes.
        """
        column = self._path_column(key)
        elements = _as_int64(elements)
        if elements.shape != (self.num_rows,):
            raise InvalidParameterError(
                f"elements must have shape ({self.num_rows},), got {elements.shape}"
            )
        if self.num_rows == 0:
            self._columns[key] = _PathColumn(column.ids, [])
            return
        low = int(elements.min())
        span = int(elements.max()) - low + 1
        combined = column.ids * span + (elements - low)
        uniques, first_seen, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        del uniques
        old_interned = column.interned
        old_ids = column.ids
        interned = [
            old_interned[old_ids[i]] + (int(elements[i]),) for i in first_seen.tolist()
        ]
        self._columns[key] = _PathColumn(inverse.astype(np.int64, copy=False), interned)
