"""Catalog objects: tables, columns, and indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import CatalogError
from repro.sqlengine.types import DataType


@dataclass(frozen=True)
class Column:
    """A column definition inside a table schema."""

    name: str
    data_type: DataType
    nullable: bool = True

    def qualified(self, table: str) -> str:
        """Return the ``table.column`` form used in plan conditions."""
        return f"{table}.{self.name}"


@dataclass
class TableSchema:
    """A table definition: ordered columns plus an optional primary key."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        missing = [key for key in self.primary_key if key not in names]
        if missing:
            raise CatalogError(
                f"primary key columns {missing} not present in table {self.name!r}"
            )

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    def position(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise CatalogError(f"table {self.name!r} has no column {name!r}")


@dataclass(frozen=True)
class Index:
    """A secondary index over one or more columns of a table.

    ``kind`` is ``"btree"`` (ordered; supports range predicates) or ``"hash"``
    (equality only), mirroring the access methods the optimizer distinguishes.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "btree"
    unique: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("btree", "hash"):
            raise CatalogError(f"unsupported index kind {self.kind!r}")
        if not self.columns:
            raise CatalogError(f"index {self.name!r} must cover at least one column")

    @property
    def leading_column(self) -> str:
        return self.columns[0]


class Catalog:
    """The set of table schemas and indexes known to a database."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, Index] = {}

    # -- tables ---------------------------------------------------------

    def add_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        for index_name in [i.name for i in self.indexes_for(name)]:
            del self._indexes[index_name.lower()]

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return [schema.name for schema in self._tables.values()]

    # -- indexes --------------------------------------------------------

    def add_index(self, index: Index) -> None:
        key = index.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        schema = self.table(index.table)
        for column in index.columns:
            if not schema.has_column(column):
                raise CatalogError(
                    f"index {index.name!r} references unknown column {column!r}"
                )
        self._indexes[key] = index

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def indexes(self) -> Iterator[Index]:
        return iter(self._indexes.values())

    def indexes_for(self, table: str) -> list[Index]:
        return [index for index in self._indexes.values() if index.table.lower() == table.lower()]

    # -- convenience ----------------------------------------------------

    def resolve_column(self, name: str, tables: Iterable[str]) -> tuple[str, Column]:
        """Resolve an unqualified column name against a set of candidate tables.

        Returns the owning table name and the column.  Raises
        :class:`CatalogError` when the column is ambiguous or unknown.
        """
        matches: list[tuple[str, Column]] = []
        for table_name in tables:
            schema = self.table(table_name)
            if schema.has_column(name):
                matches.append((schema.name, schema.column(name)))
        if not matches:
            raise CatalogError(f"column {name!r} not found in {list(tables)!r}")
        if len(matches) > 1:
            raise CatalogError(f"column {name!r} is ambiguous across {list(tables)!r}")
        return matches[0]
