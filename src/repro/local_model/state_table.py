"""The columnar node-state store.

Every engine ultimately manipulates *per-node state*.  The reference
scheduler keeps one Python dictionary per node; the vectorized engine keeps
a :class:`StateTable` -- its ``run`` seeds a table from ``initial_states``,
executes through ``run_table`` and materializes dictionaries only for the
result.  For large instances per-node dictionaries are the bottleneck:
every scheduler run would marshal ``n`` dicts in and out, and the driver
loops of Procedure Legal-Color would do per-node bookkeeping between runs.

:class:`StateTable` stores the same information column-wise, as one kind of
column: an ``int64`` numpy array holding a plain Python int on every row
(colors, psi values, scratch keys, and the Legal-Color recursion path,
which is a base-``p`` integer -- see :mod:`repro.core.legal_coloring`).

The dict view is recovered with :meth:`to_dicts` / built with
:meth:`from_dicts`; the round-trip is *exact* --
``StateTable.from_dicts(d).to_dicts() == d`` (property-tested in
``tests/test_state_table.py``), with fresh (equal) int objects.
:meth:`from_dicts` raises
:class:`~repro.exceptions.InvalidParameterError`, naming the key, for any
other state: a key missing on some node, a ``bool``, an int outside
``int64``, a tuple, a list.  Such seeds run on the reference scheduler's
``run``, which never builds a table.

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


def _unsupported(key: str, problem: str) -> InvalidParameterError:
    return InvalidParameterError(
        f"state key {key!r} {problem}; a state table holds an int64 int on "
        "every node -- run such states with engine='reference'"
    )


class StateTable:
    """``int64`` columns over a fixed number of node-state rows.

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
        self._columns: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Construction / materialization (the engine boundary)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict[str, Any]]) -> "StateTable":
        """Build a table holding exactly the entries of ``dicts``.

        Every key must hold a plain int (``type(value) is int``, so not
        ``bool``) in the ``int64`` range on every row; any other key raises
        :class:`~repro.exceptions.InvalidParameterError` naming it.
        """
        table = cls(len(dicts))
        keys: Dict[str, None] = {}
        for state in dicts:
            for key in state:
                keys.setdefault(key)
        for key in keys:
            table._columns[key] = cls._int_column(key, dicts)
        return table

    @staticmethod
    def _int_column(key: str, dicts: Sequence[Dict[str, Any]]) -> np.ndarray:
        try:
            values = [state[key] for state in dicts]
        except KeyError:
            raise _unsupported(key, "is missing on some node") from None
        if not all(type(value) is int for value in values):
            raise _unsupported(key, "holds a value that is not a plain int")
        try:
            return np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:
            raise _unsupported(key, "holds an int outside the int64 range") from None

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
            for row, value in zip(rows, column.tolist()):
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
    # Columns
    # ------------------------------------------------------------------ #

    def keys(self) -> Tuple[str, ...]:
        """The state keys present in the table."""
        return tuple(self._columns)

    def __contains__(self, key: str) -> bool:
        return key in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateTable(rows={self.num_rows}, columns={list(self._columns)})"

    def get_ints(self, key: str) -> np.ndarray:
        """A fresh ``int64`` array of ``state[key]`` over all rows.

        Raises ``KeyError`` when the key is absent -- the failure a
        per-node ``state[key]`` gather would hit.
        """
        return self._columns[key].copy()

    def set_ints(self, key: str, values: np.ndarray) -> None:
        """Replace ``state[key]`` on every row with the given int column."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.num_rows,):
            raise InvalidParameterError(
                f"column {key!r} must have shape ({self.num_rows},), got {values.shape}"
            )
        self._columns[key] = values

    def fill_int(self, key: str, value: int) -> None:
        """Write the same int into ``state[key]`` on every row."""
        self._columns[key] = np.full(self.num_rows, value, dtype=np.int64)
