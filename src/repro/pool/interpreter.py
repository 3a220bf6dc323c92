"""Execution of POOL statements against a POEM store.

Mirroring the paper's implementation sketch, retrieval statements are
*compiled to SQL* over the two backing relations ``POperators`` and ``PDesc``
hosted on the mini relational engine; CREATE/UPDATE statements mutate the
store and the backing relations are refreshed lazily.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.errors import PoolSemanticError
from repro.pool.ast_nodes import (
    ComposeStatement,
    CreateOperatorStatement,
    PoolSelectStatement,
    PoolStatement,
    UpdateStatement,
    UpdateValue,
)
from repro.pool.parser import parse_pool
from repro.pool.poem import (
    PoemObject,
    PoemStore,
    compose_pair_template,
    normalize_operator_name,
    operator_template,
)
from repro.sqlengine import Database, DataType
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    NotOp,
)
from repro.sqlengine.expressions import evaluate

#: POEM attribute name -> column of the backing relations ("p" = POperators,
#: "d" = PDesc).  ``desc`` maps to ``description`` because ``desc`` is a SQL
#: keyword in the mini engine's lexer.
_ATTRIBUTE_COLUMNS = {
    "oid": ("p", "oid"),
    "source": ("p", "source"),
    "name": ("p", "name"),
    "alias": ("p", "alias"),
    "type": ("p", "type"),
    "defn": ("p", "defn"),
    "cond": ("p", "cond"),
    "target": ("p", "targetid"),
    "targetid": ("p", "targetid"),
    "desc": ("d", "description"),
}


class PoolSession:
    """Parses and executes POOL statements against one :class:`PoemStore`."""

    def __init__(self, store: Optional[PoemStore] = None, seed: int = 7) -> None:
        self.store = store if store is not None else PoemStore()
        self._rng = random.Random(seed)
        self._backing: Optional[Database] = None
        self._dirty = True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, statement: str | PoolStatement):
        """Execute one POOL statement (text or pre-parsed AST)."""
        parsed = parse_pool(statement) if isinstance(statement, str) else statement
        if isinstance(parsed, CreateOperatorStatement):
            return self._execute_create(parsed)
        if isinstance(parsed, PoolSelectStatement):
            return self._execute_select(parsed)
        if isinstance(parsed, ComposeStatement):
            return self._execute_compose(parsed)
        if isinstance(parsed, UpdateStatement):
            return self._execute_update(parsed)
        raise PoolSemanticError(f"unsupported statement type {type(parsed).__name__}")

    @property
    def backing_database(self) -> Database:
        """The relational backend holding POperators/PDesc (rebuilt on demand)."""
        if self._backing is None or self._dirty:
            self._backing = self._build_backing_database()
            self._dirty = False
        return self._backing

    def compiled_sql(self, statement: str | PoolSelectStatement) -> str:
        """The SQL text a POOL SELECT statement compiles to (for inspection/tests)."""
        parsed = parse_pool(statement) if isinstance(statement, str) else statement
        if not isinstance(parsed, PoolSelectStatement):
            raise PoolSemanticError("compiled_sql only applies to SELECT statements")
        return self._compile_select(parsed)

    # ------------------------------------------------------------------
    # CREATE
    # ------------------------------------------------------------------

    def _execute_create(self, statement: CreateOperatorStatement) -> PoemObject:
        attributes = statement.attributes
        descriptions = [
            value
            for key, value in attributes.items()
            if key.startswith("desc") and value is not None
        ]
        created = self.store.create(
            source=statement.source,
            name=statement.name,
            operator_type=attributes.get("type") or "unary",
            alias=attributes.get("alias"),
            defn=attributes.get("defn"),
            descriptions=descriptions,
            cond=str(attributes.get("cond") or "false").lower() == "true",
            target=attributes.get("target"),
        )
        self._dirty = True
        return created

    # ------------------------------------------------------------------
    # SELECT (compiled to SQL over the backing relations)
    # ------------------------------------------------------------------

    def _build_backing_database(self) -> Database:
        database = Database("poem_store", enable_parallel=False)
        database.create_table(
            "poperators",
            [
                ("oid", DataType.INTEGER),
                ("source", DataType.TEXT),
                ("name", DataType.TEXT),
                ("alias", DataType.TEXT),
                ("type", DataType.TEXT),
                ("defn", DataType.TEXT),
                ("cond", DataType.TEXT),
                ("targetid", DataType.INTEGER),
            ],
            primary_key=("oid",),
        )
        database.create_table(
            "pdesc",
            [("oid", DataType.INTEGER), ("description", DataType.TEXT)],
        )
        poperators, pdesc = self.store.to_relations()
        if poperators:
            database.insert("poperators", poperators)
        if pdesc:
            database.insert(
                "pdesc",
                [{"oid": row["oid"], "description": row["desc"]} for row in pdesc],
            )
        database.analyze()
        return database

    def _compile_select(self, statement: PoolSelectStatement) -> str:
        wants_desc = statement.select_all or "desc" in statement.attributes
        if statement.select_all:
            columns = "p.oid, p.name, p.alias, p.type, p.defn, p.cond, p.targetid, d.description"
        else:
            rendered = []
            for attribute in statement.attributes:
                if attribute not in _ATTRIBUTE_COLUMNS:
                    raise PoolSemanticError(f"unknown POEM attribute {attribute!r}")
                table, column = _ATTRIBUTE_COLUMNS[attribute]
                if column == attribute or attribute == "desc":
                    # ``desc`` is a SQL keyword, so it cannot be used as an
                    # output alias; the result key is renamed afterwards.
                    rendered.append(f"{table}.{column}")
                else:
                    rendered.append(f"{table}.{column} AS {attribute}")
            columns = ", ".join(rendered)
        source_literal = statement.source.lower().replace("'", "''")
        conditions = [f"p.source = '{source_literal}'"]
        if wants_desc:
            from_clause = "poperators p, pdesc d"
            conditions.insert(0, "p.oid = d.oid")
        else:
            from_clause = "poperators p"
        if statement.where is not None:
            conditions.append(str(_rewrite_condition(statement.where, statement)))
        return f"SELECT {columns} FROM {from_clause} WHERE {' AND '.join(conditions)}"

    def _execute_select(self, statement: PoolSelectStatement):
        sql = self._compile_select(statement)
        rows = self.backing_database.execute(sql)
        if statement.select_all:
            objects: list[PoemObject] = []
            seen: set[int] = set()
            for row in rows:
                oid = row.get("oid") if "oid" in row else row.get("p.oid")
                if oid is None or oid in seen:
                    continue
                seen.add(oid)
                objects.append(self._object_by_oid(int(oid)))
            return objects
        renamed: list[dict[str, Any]] = []
        for row in rows:
            renamed.append({
                ("desc" if key == "description" else key): value for key, value in row.items()
            })
        return renamed

    def _object_by_oid(self, oid: int) -> PoemObject:
        for poem_object in self.store.objects():
            if poem_object.oid == oid:
                return poem_object
        raise PoolSemanticError(f"no POEM object with oid {oid}")

    # ------------------------------------------------------------------
    # COMPOSE
    # ------------------------------------------------------------------

    def _execute_compose(self, statement: ComposeStatement) -> str:
        names = [normalize_operator_name(name) for name in statement.operator_names]
        using = {normalize_operator_name(key): value for key, value in statement.using.items()}
        if len(names) == 1:
            poem_object = self.store.get(statement.source, names[0])
            description = using.get(poem_object.name, poem_object.pick_description(self._rng))
            return operator_template(poem_object, description)
        first = self.store.get(statement.source, names[0])
        second = self.store.get(statement.source, names[1])
        auxiliary, critical = first, second
        if not first.is_auxiliary and second.is_auxiliary:
            auxiliary, critical = second, first
        return compose_pair_template(
            auxiliary,
            critical,
            critical_description=using.get(critical.name, critical.pick_description(self._rng)),
            auxiliary_description=using.get(auxiliary.name, auxiliary.pick_description(self._rng)),
        )

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------

    def _execute_update(self, statement: UpdateStatement) -> list[PoemObject]:
        assignments = {
            attribute: self._resolve_value(value) for attribute, value in statement.assignments.items()
        }
        updated: list[PoemObject] = []
        for poem_object in list(self.store.objects(statement.source)):
            if statement.where is not None and not self._matches(
                poem_object, statement.where, statement.source
            ):
                continue
            translated = {}
            for attribute, value in assignments.items():
                if attribute not in ("alias", "defn", "desc", "type", "cond", "target"):
                    raise PoolSemanticError(f"cannot update attribute {attribute!r}")
                translated[attribute] = value
            updated.append(self.store.update(statement.source, poem_object.name, **translated))
        self._dirty = True
        return updated

    def _resolve_value(self, value: UpdateValue) -> str:
        if value.literal is not None:
            return value.literal
        if value.subquery is not None:
            rows = self._execute_select(value.subquery)
            if not rows:
                raise PoolSemanticError("UPDATE subquery returned no rows")
            first = rows[0]
            if isinstance(first, PoemObject):
                return first.description
            return str(next(iter(first.values())))
        if value.replace is not None:
            inner = self._resolve_value(value.replace.value)
            return inner.replace(value.replace.old, value.replace.new)
        raise PoolSemanticError("empty UPDATE value")

    def _matches(self, poem_object: PoemObject, condition: Expression, source: str) -> bool:
        row: dict[str, Any] = {}
        values = {
            "oid": poem_object.oid,
            "source": poem_object.source,
            "name": poem_object.name,
            "alias": poem_object.alias or "",
            "type": poem_object.operator_type,
            "defn": poem_object.defn or "",
            "desc": poem_object.description,
            "cond": "true" if poem_object.cond else "false",
            "target": poem_object.target or "",
        }
        for attribute, value in values.items():
            row[attribute] = value
            row[f"{source.lower()}.{attribute}"] = value
        return bool(evaluate(condition, row))


def _rewrite_condition(condition: Expression, statement: PoolSelectStatement) -> Expression:
    """Rewrite POEM attribute references to backing-relation columns."""

    def rewrite(expression: Expression) -> Expression:
        if isinstance(expression, ColumnRef):
            name = expression.name
            if name not in _ATTRIBUTE_COLUMNS:
                raise PoolSemanticError(f"unknown POEM attribute {name!r} in WHERE clause")
            table, column = _ATTRIBUTE_COLUMNS[name]
            return ColumnRef(column, table=table)
        if isinstance(expression, BinaryOp):
            return BinaryOp(expression.operator, rewrite(expression.left), rewrite(expression.right))
        if isinstance(expression, BooleanOp):
            return BooleanOp(expression.operator, [rewrite(op) for op in expression.operands])
        if isinstance(expression, NotOp):
            return NotOp(rewrite(expression.operand))
        if isinstance(expression, IsNull):
            return IsNull(rewrite(expression.operand), expression.negated)
        if isinstance(expression, InList):
            return InList(
                rewrite(expression.operand),
                [rewrite(item) for item in expression.items],
                expression.negated,
            )
        if isinstance(expression, Between):
            return Between(
                rewrite(expression.operand),
                rewrite(expression.low),
                rewrite(expression.high),
                expression.negated,
            )
        return expression

    return rewrite(condition)
