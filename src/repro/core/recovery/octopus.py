"""Octopus-like ETL: portable database dump and restore (paper §3.1).

"C-JDBC uses an ETL tool called Octopus to copy data to or from databases.
The database (including data and metadata) is stored in a portable format.
Octopus re-creates the tables and the indexes using the database-specific
types and syntax."

Our :class:`Octopus` works against any DB-API connection (native engine or a
connection obtained through the C-JDBC driver), reads the schema through the
metadata interface when available, and produces a :class:`PortableDump` that
can be serialized to JSON and restored on a different backend.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.sql.engine import DatabaseEngine
from repro.sql.metadata import DatabaseMetaData
from repro.sql.schema import TableSchema


@dataclass
class PortableDump:
    """A database snapshot in a backend-independent format."""

    name: str
    tables: List[Dict[str, Any]] = field(default_factory=list)
    #: rows per table, keyed by table name
    rows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    created_at: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "created_at": self.created_at,
                "tables": self.tables,
                "rows": self.rows,
            },
            default=_json_default,
        )

    @classmethod
    def from_json(cls, text: str) -> "PortableDump":
        payload = json.loads(text)
        return cls(
            name=payload["name"],
            tables=payload["tables"],
            rows=payload["rows"],
            created_at=payload.get("created_at", ""),
        )

    def row_count(self) -> int:
        return sum(len(rows) for rows in self.rows.values())


def _json_default(value: Any) -> Any:
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return str(value)


class Octopus:
    """Dump / restore engine contents in a portable format."""

    # -- dumping --------------------------------------------------------------------

    def dump_engine(
        self, engine: DatabaseEngine, dump_name: str = "", tables: Optional[Iterable[str]] = None
    ) -> PortableDump:
        """Snapshot every table of ``engine`` (schema + rows), or only ``tables``."""
        metadata = DatabaseMetaData(engine)
        dump = PortableDump(
            name=dump_name or engine.name,
            created_at=_dt.datetime.now().isoformat(timespec="seconds"),
        )
        wanted = None if tables is None else {table.lower() for table in tables}
        for table_name in metadata.get_table_names():
            if wanted is not None and table_name.lower() not in wanted:
                continue
            schema = engine.table_schema(table_name)
            dump.tables.append(schema.to_portable())
            dump.rows[schema.name] = engine.dump_table_rows(table_name)
        return dump

    def dump_to_file(self, engine: DatabaseEngine, path: str, dump_name: str = "") -> PortableDump:
        dump = self.dump_engine(engine, dump_name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump.to_json())
        return dump

    # -- restoring --------------------------------------------------------------------

    def restore_engine(self, dump: PortableDump, engine: DatabaseEngine, truncate: bool = True) -> int:
        """Re-create tables and reload rows into ``engine``.

        Returns the number of rows restored.  Existing tables with the same
        name are dropped first when ``truncate`` is True (the checkpointing
        service restores into freshly wiped backends).
        """
        restored = 0
        for table_data in dump.tables:
            schema = TableSchema.from_portable(table_data)
            if engine.catalog.has_table(schema.name):
                if truncate:
                    engine.catalog.drop_table(schema.name)
                else:
                    continue
            engine.catalog.create_table(schema)
            table = engine.catalog.get_table(schema.name)
            for row in dump.rows.get(schema.name, []):
                coerced = {
                    name: schema.column(name).coerce(value) if schema.has_column(name) else value
                    for name, value in row.items()
                }
                table.insert_row(coerced)
                restored += 1
            for key_column in schema.primary_key:
                for row in dump.rows.get(schema.name, []):
                    table.note_explicit_key(key_column, row.get(key_column))
        return restored

    def restore_from_file(self, path: str, engine: DatabaseEngine, truncate: bool = True) -> int:
        with open(path, "r", encoding="utf-8") as handle:
            dump = PortableDump.from_json(handle.read())
        return self.restore_engine(dump, engine, truncate=truncate)

    # -- generic DB-API copy (works through the C-JDBC driver too) ----------------------

    def copy_table(
        self,
        source_connection,
        destination_connection,
        table_name: str,
        columns: List[str],
        create_sql: Optional[str] = None,
        batch_size: int = 500,
    ) -> int:
        """Copy one table between two DB-API connections.

        Used when the source or destination is only reachable through a
        driver (e.g. re-populating a backend attached to another controller).
        """
        if create_sql:
            cursor = destination_connection.cursor()
            cursor.execute(create_sql)
            destination_connection.commit()
        source_cursor = source_connection.cursor()
        column_list = ", ".join(columns)
        source_cursor.execute(f"SELECT {column_list} FROM {table_name}")
        placeholders = ", ".join("?" for _ in columns)
        insert_sql = f"INSERT INTO {table_name} ({column_list}) VALUES ({placeholders})"
        destination_cursor = destination_connection.cursor()
        copied = 0
        while True:
            rows = source_cursor.fetchmany(batch_size)
            if not rows:
                break
            for row in rows:
                destination_cursor.execute(insert_sql, tuple(row))
                copied += 1
            destination_connection.commit()
        return copied
