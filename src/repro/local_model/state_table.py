"""The columnar node-state store.

Every engine ultimately manipulates *per-node state*.  The reference
scheduler keeps one Python dictionary per node; the vectorized engine keeps
a :class:`StateTable` -- its ``run`` seeds a table from ``initial_states``,
executes through ``run_table`` and materializes dictionaries only for the
result.  For large instances per-node dictionaries are the bottleneck:
every scheduler run would marshal ``n`` dicts in and out, and the driver
loops of Procedure Legal-Color would do per-node tuple bookkeeping between
runs.

:class:`StateTable` stores the same information column-wise:

* **int columns** -- ``int64`` numpy arrays for values that are plain Python
  ints (colors, psi values, scratch keys), the overwhelmingly common case;
  a column holding an int outside the ``int64`` range stays an object column;
* **path columns** -- the recursion-path tuples of Procedure Legal-Color,
  *interned*: the column holds one dense ``int64`` id per node plus a table
  of distinct tuples, so "extend every path by this level's psi-color" and
  "which nodes share a path" are single array operations
  (:meth:`append_to_paths`, :meth:`path_ids`);
* **object columns** -- an escape hatch holding references to arbitrary
  Python values (lists, sets, ``None``, booleans, ...), exactly as a dict
  would.

Each column carries an optional presence mask so states that only exist on
some nodes (partial ``initial_states`` seeds) round-trip exactly.

The dict view is recovered with :meth:`to_dicts` / built with
:meth:`from_dicts`; the round-trip is *exact* up to Python equality --
``StateTable.from_dicts(d).to_dicts() == d`` for any states the engines
produce (property-tested in ``tests/test_state_table.py``).  Two deliberate
normalizations are invisible to ``==`` (and therefore to the engine
equivalence contract): int columns materialize fresh (equal) int objects, and
interning replaces equal path tuples by one shared tuple object.

The table is the only state representation of the vectorized engine
(see :meth:`repro.local_model.vectorized.VectorizedScheduler.run_table`)
and the exchange format of every engine's ``run_table``; rows are in
the dense node order of the :class:`~repro.local_model.fast_network.FastNetwork`
the table travels with, and the table itself never stores node identifiers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

#: Column kind tags (see :meth:`StateTable.kind`).
INT_KIND = "int"
PATH_KIND = "path"
OBJECT_KIND = "object"


class _IntColumn:
    """A full-or-masked column of plain Python ints, stored as ``int64``."""

    __slots__ = ("values", "present")
    kind = INT_KIND

    def __init__(self, values: np.ndarray, present: Optional[np.ndarray]) -> None:
        self.values = values
        self.present = present  # None means "present on every node".


class _PathColumn:
    """Interned tuples: per-node dense ids into a table of distinct tuples.

    ``interned`` is append-only shared data: columns derived from one another
    (copies, extensions) may share it, so it must never be mutated in place.
    """

    __slots__ = ("ids", "interned", "present")
    kind = PATH_KIND

    def __init__(
        self,
        ids: np.ndarray,
        interned: Sequence[Tuple[Any, ...]],
        present: Optional[np.ndarray],
    ) -> None:
        self.ids = ids
        self.interned = interned
        self.present = present


class _ObjectColumn:
    """References to arbitrary per-node Python values (the escape hatch)."""

    __slots__ = ("values", "present")
    kind = OBJECT_KIND

    def __init__(self, values: List[Any], present: Optional[np.ndarray]) -> None:
        self.values = values
        self.present = present


def _as_int64(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values)
    if out.dtype != np.int64:
        out = out.astype(np.int64)
    return out


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

        Classification is per key over the values present: all plain ints
        (``type(value) is int`` -- ``bool`` goes to the object column so the
        stored type survives) become an int column, all tuples become an
        interned path column, anything mixed or non-scalar becomes an object
        column.
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
        n = len(dicts)
        missing = object()
        values = [state.get(key, missing) for state in dicts]
        if any(value is missing for value in values):
            present = np.fromiter(
                (value is not missing for value in values), dtype=bool, count=n
            )
            filled = [None if value is missing else value for value in values]
        else:
            present = None
            filled = values
        live_values = [v for i, v in enumerate(filled) if present is None or present[i]]
        if live_values and all(type(v) is int for v in live_values):
            try:
                ints = np.fromiter(
                    (v if (present is None or present[i]) else 0 for i, v in enumerate(filled)),
                    dtype=np.int64,
                    count=n,
                )
            except OverflowError:  # an int outside int64 -- keep objects
                return _ObjectColumn(list(filled), present)
            return _IntColumn(ints, present)
        if live_values and all(type(v) is tuple for v in live_values):
            lookup: Dict[Tuple[Any, ...], int] = {}
            interned: List[Tuple[Any, ...]] = []
            ids = np.zeros(n, dtype=np.int64)
            try:
                for i, v in enumerate(filled):
                    if present is not None and not present[i]:
                        continue
                    label = lookup.get(v)
                    if label is None:
                        label = lookup[v] = len(interned)
                        interned.append(v)
                    ids[i] = label
            except TypeError:  # unhashable tuple contents -- keep objects
                return _ObjectColumn(filled, present)
            return _PathColumn(ids, interned, present)
        return _ObjectColumn(list(filled), present)

    @classmethod
    def from_mapping(
        cls, states: Mapping[Hashable, Dict[str, Any]], order: Sequence[Hashable]
    ) -> "StateTable":
        """Build a table from identifier-keyed states, rows in ``order``.

        Nodes absent from ``states`` get empty rows; keys of ``states`` that
        are not in ``order`` are ignored (matching how the schedulers treat
        ``initial_states``).  Seed dictionaries are not retained -- their
        entries are copied into the columns.
        """
        empty: Dict[str, Any] = {}
        return cls.from_dicts([states.get(node, empty) for node in order])

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Materialize the exact per-row state dictionaries."""
        rows: List[Dict[str, Any]] = [{} for _ in range(self.num_rows)]
        for key, column in self._columns.items():
            present = column.present
            if column.kind == INT_KIND:
                values: Iterable[Any] = column.values.tolist()
            elif column.kind == PATH_KIND:
                interned = column.interned
                values = (interned[i] for i in column.ids.tolist())
            else:
                values = column.values
            if present is None:
                for row, value in zip(rows, values):
                    row[key] = value
            else:
                flags = present.tolist()
                for row, value, ok in zip(rows, values, flags):
                    if ok:
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
        """``"int"``, ``"path"`` or ``"object"`` (raises ``KeyError``)."""
        return self._columns[key].kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {key: column.kind for key, column in self._columns.items()}
        return f"StateTable(rows={self.num_rows}, columns={kinds})"

    def _full_column(self, key: str) -> Any:
        column = self._columns[key]  # KeyError mirrors the dicts' behavior.
        if column.present is not None and not column.present.all():
            missing = int(np.flatnonzero(~column.present)[0])
            raise KeyError(
                f"state key {key!r} is missing on node index {missing}"
            )
        return column

    # ------------------------------------------------------------------ #
    # Int columns
    # ------------------------------------------------------------------ #

    def get_ints(self, key: str) -> np.ndarray:
        """A fresh ``int64`` array of ``state[key]`` over all rows.

        Raises ``KeyError`` when the key is absent (anywhere) and
        ``TypeError`` when the column does not hold plain ints -- the same
        failures a per-node ``state[key]`` gather would hit.
        """
        column = self._full_column(key)
        if column.kind == INT_KIND:
            return column.values.copy()
        if column.kind == OBJECT_KIND:
            # Mixed columns may still be all-int on the current values.
            return np.fromiter(
                (int(v) for v in column.values), dtype=np.int64, count=self.num_rows
            )
        raise TypeError(f"state key {key!r} holds paths, not ints")

    def set_ints(self, key: str, values: np.ndarray) -> None:
        """Replace ``state[key]`` on every row with the given int column."""
        values = _as_int64(values)
        if values.shape != (self.num_rows,):
            raise InvalidParameterError(
                f"column {key!r} must have shape ({self.num_rows},), got {values.shape}"
            )
        self._columns[key] = _IntColumn(values, None)

    def fill_int(self, key: str, value: int) -> None:
        """Write the same int into ``state[key]`` on every row."""
        self._columns[key] = _IntColumn(
            np.full(self.num_rows, value, dtype=np.int64), None
        )

    # ------------------------------------------------------------------ #
    # Object columns
    # ------------------------------------------------------------------ #

    def fill_object(self, key: str, value: Any) -> None:
        """Write the same (immutable) object into ``state[key]`` on every row."""
        self._columns[key] = _ObjectColumn([value] * self.num_rows, None)

    def get_values_or_none(self, key: str) -> List[Any]:
        """Per-row ``state.get(key)``: the value where present, else ``None``.

        This never raises -- a missing column (or a row the presence mask
        excludes) yields ``None``, exactly like the dict view's
        ``state.get``.
        """
        if key not in self._columns:
            return [None] * self.num_rows
        column = self._columns[key]
        if column.kind == INT_KIND:
            values: List[Any] = column.values.tolist()
        elif column.kind == PATH_KIND:
            interned = column.interned
            values = [interned[i] for i in column.ids.tolist()]
        else:
            values = list(column.values)
        if column.present is not None:
            flags = column.present.tolist()
            values = [value if ok else None for value, ok in zip(values, flags)]
        return values

    def copy_column(self, source_key: str, target_key: str) -> None:
        """``state[target] = state[source]`` on every row, kind-preserving."""
        column = self._full_column(source_key)
        if column.kind == INT_KIND:
            self._columns[target_key] = _IntColumn(column.values.copy(), None)
        elif column.kind == PATH_KIND:
            self._columns[target_key] = _PathColumn(
                column.ids.copy(), column.interned, None
            )
        else:
            self._columns[target_key] = _ObjectColumn(list(column.values), None)

    # ------------------------------------------------------------------ #
    # Path columns (the Legal-Color recursion bookkeeping)
    # ------------------------------------------------------------------ #

    def fill_path(self, key: str, path: Tuple[Any, ...] = ()) -> None:
        """Write the same tuple into ``state[key]`` on every row (interned)."""
        self._columns[key] = _PathColumn(
            np.zeros(self.num_rows, dtype=np.int64), [tuple(path)], None
        )

    def path_ids(self, key: str) -> np.ndarray:
        """The dense interned ids of a path column.

        Two rows hold an equal tuple exactly when their ids are equal -- the
        property the Legal-Color recursion's subgraph filtering needs.  The
        returned array aliases the column; treat it as read-only.
        """
        column = self._full_column(key)
        if column.kind != PATH_KIND:
            raise TypeError(f"state key {key!r} is not a path column")
        return column.ids

    def path_interned(self, key: str) -> Tuple[Tuple[Any, ...], ...]:
        """The interned tuple table of a path column (fully present).

        :meth:`path_ids` entries index into this sequence; per-distinct-path
        computations (e.g. message-size accounting over recursion paths) run
        over it instead of over every row.
        """
        column = self._full_column(key)
        if column.kind != PATH_KIND:
            raise TypeError(f"state key {key!r} is not a path column")
        return tuple(column.interned)

    def num_paths(self, key: str) -> int:
        """Number of *distinct* tuples currently held by a path column."""
        column = self._full_column(key)
        if column.kind != PATH_KIND:
            raise TypeError(f"state key {key!r} is not a path column")
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
        column = self._full_column(key)
        if column.kind != PATH_KIND:
            raise TypeError(f"state key {key!r} is not a path column")
        elements = _as_int64(elements)
        if elements.shape != (self.num_rows,):
            raise InvalidParameterError(
                f"elements must have shape ({self.num_rows},), got {elements.shape}"
            )
        if self.num_rows == 0:
            self._columns[key] = _PathColumn(column.ids, [], None)
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
        self._columns[key] = _PathColumn(
            inverse.astype(np.int64, copy=False), interned, None
        )
