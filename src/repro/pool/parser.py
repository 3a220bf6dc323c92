"""Parser for the POOL language.

POOL reuses the SQL lexer and expression grammar of the mini engine; the
statement forms (``CREATE POPERATOR``, ``SELECT``, ``COMPOSE``, ``UPDATE``)
are layered on top.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PoolSyntaxError
from repro.pool.ast_nodes import (
    ComposeStatement,
    CreateOperatorStatement,
    PoolSelectStatement,
    PoolStatement,
    ReplaceValue,
    UpdateStatement,
    UpdateValue,
)
from repro.sqlengine.ast_nodes import Expression
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import Parser as SqlParser

_POEM_ATTRIBUTES = {"oid", "source", "name", "alias", "type", "defn", "desc", "cond", "target"}


class PoolParser(SqlParser):
    """Recursive-descent parser for POOL statements.

    It extends the SQL parser so that WHERE conditions in POOL reuse the full
    SQL expression grammar (comparisons, LIKE, AND/OR, subqueries are handled
    at the statement level).
    """

    def parse_statement(self) -> PoolStatement:
        token = self._peek()
        if token.matches("name", "create"):
            return self._parse_create()
        if token.matches("name", "compose"):
            return self._parse_compose()
        if token.matches("name", "update"):
            return self._parse_update()
        if token.matches("keyword", "select"):
            return self._parse_pool_select()
        raise PoolSyntaxError(f"unrecognized POOL statement starting with {token.value!r}")

    # -- CREATE POPERATOR --------------------------------------------------

    def _parse_create(self) -> CreateOperatorStatement:
        self._expect("name", "create")
        if not self._accept("name", "poperator"):
            raise PoolSyntaxError("expected POPERATOR after CREATE")
        name = self._expect("name").value
        if not self._accept("name", "for"):
            raise PoolSyntaxError("expected FOR <source> in CREATE POPERATOR")
        source = self._expect("name").value
        attributes: dict[str, Optional[str]] = {}
        self._expect("punct", "(")
        while True:
            attribute_token = self._advance()
            attribute = attribute_token.value.lower()
            if attribute not in _POEM_ATTRIBUTES:
                raise PoolSyntaxError(f"unknown POEM attribute {attribute_token.value!r}")
            self._expect("op", "=")
            value_token = self._advance()
            if value_token.kind == "string":
                attributes.setdefault(attribute, None)
                if attribute == "desc" and attributes.get(attribute) is not None:
                    # allow repeated DESC entries by storing them suffixed
                    counter = sum(1 for key in attributes if key.startswith("desc"))
                    attributes[f"desc_{counter}"] = value_token.value
                else:
                    attributes[attribute] = value_token.value
            elif value_token.matches("keyword", "null"):
                attributes.setdefault(attribute, None)
            else:
                raise PoolSyntaxError(
                    f"attribute {attribute!r} must be a string literal or NULL"
                )
            if self._accept("punct", ","):
                continue
            self._expect("punct", ")")
            break
        self._accept("punct", ";")
        return CreateOperatorStatement(name=name, source=source, attributes=attributes)

    # -- SELECT -------------------------------------------------------------

    def _parse_pool_select(self) -> PoolSelectStatement:
        self._expect("keyword", "select")
        attributes: list[str] = []
        if self._accept("punct", "*"):
            attributes = ["*"]
        else:
            attributes.append(self._parse_attribute_name())
            while self._accept("punct", ","):
                attributes.append(self._parse_attribute_name())
        self._expect("keyword", "from")
        source = self._expect("name").value
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("name").value
        where = None
        if self._accept("keyword", "where"):
            where = self._parse_expression()
        self._accept("punct", ";")
        return PoolSelectStatement(attributes=attributes, source=source, where=where, alias=alias)

    def _parse_attribute_name(self) -> str:
        name = self._parse_identifier()
        if self._accept("punct", "."):
            return self._parse_identifier()
        return name

    def _parse_identifier(self) -> str:
        """Accept a bare name, or ``desc`` (which the SQL lexer treats as a keyword)."""
        if self._peek().matches("keyword", "desc"):
            return self._advance().value
        return self._expect("name").value

    # -- COMPOSE ------------------------------------------------------------

    def _parse_compose(self) -> ComposeStatement:
        self._expect("name", "compose")
        names = [self._expect("name").value]
        while self._accept("punct", ","):
            names.append(self._expect("name").value)
        self._expect("keyword", "from")
        source = self._expect("name").value
        using: dict[str, str] = {}
        if self._accept("name", "using"):
            while True:
                operator = self._expect("name").value
                self._expect("punct", ".")
                attribute = self._parse_identifier()
                if attribute != "desc":
                    raise PoolSyntaxError("USING clause may only constrain the desc attribute")
                self._expect("op", "=")
                value = self._expect("string").value
                using[operator] = value
                if not self._accept("punct", ","):
                    break
        self._accept("punct", ";")
        if len(names) > 2:
            raise PoolSyntaxError("COMPOSE accepts at most an (auxiliary, critical) pair")
        return ComposeStatement(operator_names=names, source=source, using=using)

    # -- UPDATE ---------------------------------------------------------------

    def _parse_update(self) -> UpdateStatement:
        self._expect("name", "update")
        source = self._expect("name").value
        if not self._accept("name", "set"):
            raise PoolSyntaxError("expected SET in UPDATE statement")
        assignments: dict[str, UpdateValue] = {}
        while True:
            attribute = self._parse_attribute_name()
            self._expect("op", "=")
            assignments[attribute] = self._parse_update_value()
            if not self._accept("punct", ","):
                break
        where = None
        if self._accept("keyword", "where"):
            where = self._parse_expression()
        self._accept("punct", ";")
        return UpdateStatement(source=source, assignments=assignments, where=where)

    def _parse_update_value(self) -> UpdateValue:
        token = self._peek()
        if token.kind == "string":
            self._advance()
            return UpdateValue(literal=token.value)
        if token.matches("name", "replace"):
            self._advance()
            self._expect("punct", "(")
            inner = self._parse_update_value()
            self._expect("punct", ",")
            old = self._expect("string").value
            self._expect("punct", ",")
            new = self._expect("string").value
            self._expect("punct", ")")
            return UpdateValue(replace=ReplaceValue(value=inner, old=old, new=new))
        if token.matches("punct", "("):
            self._advance()
            subquery = self._parse_pool_select()
            self._expect("punct", ")")
            return UpdateValue(subquery=subquery)
        raise PoolSyntaxError(
            f"unsupported UPDATE value starting with {token.value!r}; expected a string, "
            "REPLACE(...), or a (SELECT ...) subquery"
        )


def parse_pool(statement: str) -> PoolStatement:
    """Parse a single POOL statement."""
    return PoolParser(tokenize(statement)).parse_statement()
