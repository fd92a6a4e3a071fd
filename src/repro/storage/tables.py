"""A relational table layer over the key-value MVCC engine.

The paper's sites are relational DBMSs whose logical log carries SQL-level
update records.  This module provides the relational veneer: typed table
schemas, primary keys, secondary indexes, and predicate scans — all
expressed as ordinary reads/writes inside a snapshot-isolation
transaction, so every guarantee (snapshots, FCW, replication, session SI)
applies to relational operations for free.

Storage encoding (all under the owning transaction):

* row:          ``<table>/r/<pk>``        -> the row dict
* index entry:  ``<table>/i/<col>/<val>/<pk>`` -> the pk

Integer keys are zero-padded so lexicographic key order matches numeric
order, which keeps range scans correct.

Example
-------
>>> from repro.storage import SIDatabase
>>> from repro.storage.tables import Column, Table, TableSchema
>>> BOOKS = TableSchema("books", [
...     Column("id", int), Column("title", str), Column("stock", int)],
...     primary_key="id", indexes=("stock",))
>>> db = SIDatabase()
>>> txn = db.begin(update=True)
>>> table = Table(BOOKS, txn)
>>> table.insert({"id": 1, "title": "VLDB 2006", "stock": 3})
>>> table.find_by("stock", 3)
[{'id': 1, 'title': 'VLDB 2006', 'stock': 3}]
>>> _ = txn.commit()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import StorageError
from repro.storage.engine import Transaction


class SchemaError(StorageError):
    """Row violates its table schema (type, nullability, unknown column)."""


class DuplicateKeyError(StorageError):
    """Insert with a primary key that is already visible."""


class RowNotFound(StorageError):
    """Update/delete of a primary key with no visible row."""


@dataclass(frozen=True)
class Column:
    """One typed column. ``nullable`` columns accept None."""

    name: str
    py_type: type
    nullable: bool = False

    def validate(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not isinstance(value, self.py_type):
            raise SchemaError(
                f"column {self.name!r} expects {self.py_type.__name__}, "
                f"got {type(value).__name__} ({value!r})")


@dataclass(frozen=True)
class TableSchema:
    """Schema: ordered columns, a primary key, optional secondary indexes."""

    name: str
    columns: Sequence[Column]
    primary_key: str
    indexes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {self.name!r}")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of "
                f"{self.name!r}")
        for indexed in self.indexes:
            if indexed not in names:
                raise SchemaError(
                    f"indexed column {indexed!r} is not a column of "
                    f"{self.name!r}")
        if "/" in self.name:
            raise SchemaError("table names must not contain '/'")

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def validate_row(self, row: dict) -> None:
        unknown = set(row) - set(self.column_names)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for {self.name!r}")
        for column in self.columns:
            column.validate(row.get(column.name))


def _encode(value: Any) -> str:
    """Order-preserving string encoding of a key component."""
    if isinstance(value, bool):
        return f"b{int(value)}"
    if isinstance(value, int):
        # Zero-pad so lexicographic order equals numeric order (negatives
        # sort before non-negatives via a distinct prefix).
        if value < 0:
            return f"n{10**19 + value:020d}"
        return f"p{value:020d}"
    if isinstance(value, str):
        if "/" in value:
            raise SchemaError(f"key component {value!r} contains '/'")
        return f"s{value}"
    if value is None:
        return "~"
    raise SchemaError(f"unsupported key component type {type(value)}")


class Table:
    """A schema bound to one transaction: relational ops under SI.

    All reads observe the transaction's snapshot (plus its own writes);
    all writes are buffered in the transaction and subject to
    first-committer-wins at commit.  Secondary indexes are maintained
    transactionally alongside the rows.
    """

    def __init__(self, schema: TableSchema, txn: Transaction):
        self.schema = schema
        self.txn = txn

    # -- key construction ---------------------------------------------------
    def _row_key(self, pk: Any) -> str:
        return f"{self.schema.name}/r/{_encode(pk)}"

    def _index_key(self, column: str, value: Any, pk: Any) -> str:
        return f"{self.schema.name}/i/{column}/{_encode(value)}/{_encode(pk)}"

    # -- reads ----------------------------------------------------------------
    def get(self, pk: Any) -> Optional[dict]:
        """The visible row for ``pk``, or None."""
        return self.txn.read(self._row_key(pk), default=None)

    def exists(self, pk: Any) -> bool:
        return self.get(pk) is not None

    def scan(self, lo_pk: Any = None, hi_pk: Any = None) -> list[dict]:
        """All visible rows, optionally bounded by primary key range."""
        prefix = f"{self.schema.name}/r/"
        if lo_pk is None and hi_pk is None:
            pairs = self.txn.scan(prefix=prefix)
        else:
            lo = prefix + (_encode(lo_pk) if lo_pk is not None else "")
            hi = prefix + (_encode(hi_pk) if hi_pk is not None else "\x7f")
            pairs = self.txn.scan(lo, hi)
        return [row for _, row in pairs]

    def count(self) -> int:
        return len(self.scan())

    def find_by(self, column: str, value: Any) -> list[dict]:
        """Rows with ``column == value``, via the secondary index."""
        if column not in self.schema.indexes:
            raise SchemaError(
                f"column {column!r} of {self.schema.name!r} is not indexed;"
                f" use select()")
        prefix = f"{self.schema.name}/i/{column}/{_encode(value)}/"
        rows = []
        for _, pk in self.txn.scan(prefix=prefix):
            row = self.get(pk)
            if row is not None:
                rows.append(row)
        return rows

    def select(self, predicate: Callable[[dict], bool]) -> list[dict]:
        """Full-scan filter (for non-indexed predicates)."""
        return [row for row in self.scan() if predicate(row)]

    # -- writes ------------------------------------------------------------------
    def insert(self, row: dict) -> None:
        """Insert a new row; the primary key must not be visible."""
        pk = row.get(self.schema.primary_key)
        if pk is None:
            raise SchemaError(
                f"insert into {self.schema.name!r} without a primary key")
        self.schema.validate_row(row)
        if self.exists(pk):
            raise DuplicateKeyError(
                f"{self.schema.name!r} already has a row with "
                f"{self.schema.primary_key}={pk!r}")
        stored = {name: row.get(name) for name in self.schema.column_names}
        self.txn.write(self._row_key(pk), stored)
        for column in self.schema.indexes:
            self.txn.write(self._index_key(column, stored[column], pk), pk)

    def update(self, pk: Any, **changes: Any) -> dict:
        """Apply column changes to the row at ``pk``; returns the new row."""
        row = self.get(pk)
        if row is None:
            raise RowNotFound(
                f"{self.schema.name!r} has no row with "
                f"{self.schema.primary_key}={pk!r}")
        if self.schema.primary_key in changes and \
                changes[self.schema.primary_key] != pk:
            raise SchemaError("primary keys are immutable; "
                              "delete and re-insert instead")
        updated = dict(row)
        updated.update(changes)
        self.schema.validate_row(updated)
        for column in self.schema.indexes:
            if updated[column] != row[column]:
                self.txn.delete(self._index_key(column, row[column], pk))
                self.txn.write(
                    self._index_key(column, updated[column], pk), pk)
        self.txn.write(self._row_key(pk), updated)
        return updated

    def delete(self, pk: Any) -> None:
        """Delete the row at ``pk`` and its index entries."""
        row = self.get(pk)
        if row is None:
            raise RowNotFound(
                f"{self.schema.name!r} has no row with "
                f"{self.schema.primary_key}={pk!r}")
        for column in self.schema.indexes:
            self.txn.delete(self._index_key(column, row[column], pk))
        self.txn.delete(self._row_key(pk))

    def upsert(self, row: dict) -> None:
        """Insert, or overwrite the existing row with the same key."""
        pk = row.get(self.schema.primary_key)
        if pk is not None and self.exists(pk):
            changes = {k: v for k, v in row.items()
                       if k != self.schema.primary_key}
            self.update(pk, **changes)
        else:
            self.insert(row)


def open_tables(txn: Transaction,
                schemas: Iterable[TableSchema]) -> dict[str, Table]:
    """Bind several schemas to one transaction: ``{name: Table}``."""
    return {schema.name: Table(schema, txn) for schema in schemas}
