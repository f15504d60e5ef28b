"""Row storage and index maintenance for the in-memory engine.

A :class:`Table` owns the row dictionaries and keeps hash indexes
(including the automatically-created primary-key index) in sync on every
mutation.  Mutations return undo records so :mod:`repro.sql.transactions`
can roll back aborted transactions.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import CatalogError, ConstraintViolation
from repro.sql.schema import Column, Index, TableSchema

RowId = int
Row = Dict[str, Any]


class HashIndex:
    """A (possibly unique) hash index mapping key tuples to row ids.

    A key with one row — every key of a unique index — holds the bare row id;
    only a key shared by several rows pays for a ``set``.
    """

    def __init__(self, definition: Index):
        self.definition = definition
        self._entries: Dict[Tuple[Any, ...], Union[RowId, Set[RowId]]] = {}

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def columns(self) -> List[str]:
        return self.definition.columns

    @property
    def unique(self) -> bool:
        return self.definition.unique

    def key_for(self, row: Row) -> Tuple[Any, ...]:
        return tuple(_hashable(row.get(column)) for column in self.columns)

    def insert(self, row_id: RowId, row: Row) -> None:
        key = self.key_for(row)
        bucket = self._entries.get(key)
        if bucket is None:
            self._entries[key] = row_id
        elif self.unique and None not in key:
            raise ConstraintViolation(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        elif isinstance(bucket, set):
            bucket.add(row_id)
        elif bucket != row_id:
            self._entries[key] = {bucket, row_id}

    def remove(self, row_id: RowId, row: Row) -> None:
        key = self.key_for(row)
        bucket = self._entries.get(key)
        if isinstance(bucket, set):
            bucket.discard(row_id)
            if len(bucket) == 1:
                self._entries[key] = next(iter(bucket))
        elif bucket == row_id:
            del self._entries[key]

    def lookup(self, key: Tuple[Any, ...]) -> FrozenSet[RowId]:
        """Row ids under ``key`` (values as stored): a snapshot, safe to iterate beside a writer."""
        bucket = self._entries.get(key, ())
        return frozenset(bucket if isinstance(bucket, (set, tuple)) else (bucket,))

    def __len__(self) -> int:
        return sum(len(b) if isinstance(b, set) else 1 for b in self._entries.values())


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set, bytearray)):
        return repr(value)
    return value


class Table:
    """Physical storage for one table: rows keyed by an internal row id."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[RowId, Row] = {}
        self._row_id_counter = itertools.count(1)
        self._auto_increment_counters: Dict[str, int] = {}
        self.indexes: Dict[str, HashIndex] = {}
        if schema.primary_key:
            self._ensure_index(
                Index(
                    name=f"pk_{schema.name}",
                    table=schema.name,
                    columns=list(schema.primary_key),
                    unique=True,
                )
            )
        for index in schema.indexes.values():
            self._ensure_index(index)
        # Enforce column-level UNIQUE constraints that have no explicit index yet.
        for unique_columns in schema.unique_constraints:
            if unique_columns == list(schema.primary_key):
                continue
            self._ensure_index(
                Index(
                    name=f"uq_{schema.name}_{'_'.join(unique_columns)}",
                    table=schema.name,
                    columns=list(unique_columns),
                    unique=True,
                )
            )

    # -- schema maintenance ---------------------------------------------------

    def _ensure_index(self, definition: Index) -> HashIndex:
        existing = self.indexes.get(definition.name)
        if existing is not None:
            return existing
        index = HashIndex(definition)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self.indexes[definition.name] = index
        return index

    def create_index(self, definition: Index) -> HashIndex:
        if definition.name in self.indexes:
            raise CatalogError(f"index {definition.name!r} already exists")
        self.schema.add_index(definition)
        return self._ensure_index(definition)

    def drop_index(self, name: str) -> None:
        self.schema.drop_index(name)
        for existing in list(self.indexes):
            if existing.lower() == name.lower():
                del self.indexes[existing]
                return

    def add_column(self, column: Column) -> None:
        self.schema.add_column(column)
        default = column.coerce(column.default)
        for row_id, row in self._rows.items():
            self._rows[row_id] = {**row, column.name: default}

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Tuple[RowId, Row]]:
        """Iterate over (row_id, row) pairs; snapshot to tolerate mutation."""
        return iter(list(self._rows.items()))

    def get_row(self, row_id: RowId) -> Optional[Row]:
        return self._rows.get(row_id)

    def find_by_index(self, columns: List[str], values: Tuple[Any, ...]) -> Optional[HashIndex]:
        """Return an index that exactly covers ``columns`` if one exists."""
        wanted = [c.lower() for c in columns]
        for index in self.indexes.values():
            if [c.lower() for c in index.columns] == wanted:
                return index
        return None

    # -- mutations -----------------------------------------------------------

    def insert_row(self, values: Row) -> Tuple[RowId, Row]:
        """Insert a row (already coerced by the executor) and index it.

        Returns ``(row_id, stored_row)``; raises :class:`ConstraintViolation`
        on NOT NULL / unique violations without leaving partial index state.
        """
        row = self._complete_row(values)
        self._check_not_null(row)
        row_id = next(self._row_id_counter)
        self._index_row(self.indexes.values(), row_id, row)
        self._rows[row_id] = row
        return row_id, row

    def _index_row(self, indexes: Iterable[HashIndex], row_id: RowId, row: Row) -> None:
        """Enter ``row`` into ``indexes``; a unique violation leaves all of them as they were."""
        inserted_into: List[HashIndex] = []
        try:
            for index in indexes:
                index.insert(row_id, row)
                inserted_into.append(index)
        except ConstraintViolation:
            for index in inserted_into:
                index.remove(row_id, row)
            raise

    def update_row(self, row_id: RowId, changes: Row) -> Tuple[Row, Row]:
        """Apply ``changes`` to one row; returns ``(old_row, new_row)``.

        The stored row is replaced, never modified, and only indexes whose key
        changes are touched, new key first: a reader that takes no lock finds
        the row under a key it keeps at every instant.
        """
        old_row = self._rows[row_id]
        new_row = dict(old_row)
        new_row.update(changes)
        self._check_not_null(new_row)
        moved = [
            index
            for index in self.indexes.values()
            if index.key_for(old_row) != index.key_for(new_row)
        ]
        self._index_row(moved, row_id, new_row)
        self._rows[row_id] = new_row
        for index in moved:
            index.remove(row_id, old_row)
        return dict(old_row), new_row

    def delete_row(self, row_id: RowId) -> Row:
        row = self._rows.pop(row_id)
        for index in self.indexes.values():
            index.remove(row_id, row)
        return row

    def restore_row(self, row_id: RowId, row: Row) -> None:
        """Undo helper: put a deleted row back with its original row id."""
        self._rows[row_id] = dict(row)
        for index in self.indexes.values():
            index.insert(row_id, self._rows[row_id])

    def truncate(self) -> None:
        self._rows.clear()
        for index in self.indexes.values():
            index._entries.clear()

    # -- helpers ---------------------------------------------------------------

    def _complete_row(self, values: Row) -> Row:
        """Fill missing columns with defaults / auto-increment values."""
        row: Row = {}
        for column in self.schema.columns:
            if column.name in values:
                row[column.name] = values[column.name]
            elif column.auto_increment:
                row[column.name] = self._next_auto_increment(column.name)
            elif column.default is not None:
                row[column.name] = column.coerce(column.default)
            else:
                row[column.name] = None
        unknown = set(values) - {c.name for c in self.schema.columns}
        if unknown:
            raise CatalogError(
                f"unknown column(s) {sorted(unknown)!r} for table {self.schema.name!r}"
            )
        return row

    def _next_auto_increment(self, column_name: str) -> int:
        current = self._auto_increment_counters.get(column_name)
        if current is None:
            current = 0
            for row in self._rows.values():
                value = row.get(column_name)
                if isinstance(value, int) and value > current:
                    current = value
        current += 1
        self._auto_increment_counters[column_name] = current
        return current

    def note_explicit_key(self, column_name: str, value: Any) -> None:
        """Keep the auto-increment counter ahead of explicitly inserted keys."""
        if isinstance(value, int):
            current = self._auto_increment_counters.get(column_name, 0)
            if value > current:
                self._auto_increment_counters[column_name] = value

    def _check_not_null(self, row: Row) -> None:
        for column in self.schema.columns:
            if column.not_null and row.get(column.name) is None and not column.auto_increment:
                raise ConstraintViolation(
                    f"column {column.name!r} of table {self.schema.name!r} may not be NULL"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, {len(self)} rows)"
