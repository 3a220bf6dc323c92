"""Expression evaluation, rendering, and predicate analysis.

Rows flowing through the executor are dictionaries keyed by
``binding.column`` (for base columns) plus bare output names for computed
columns.  Evaluation resolves a :class:`ColumnRef` against those keys.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    NotOp,
    Star,
)

Row = Mapping[str, Any]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def resolve_column(row: Row, column: ColumnRef) -> Any:
    """Look up a column reference in a row mapping."""
    if column.table:
        key = f"{column.table}.{column.name}"
        if key in row:
            return row[key]
    if column.name in row:
        return row[column.name]
    # fall back to a suffix match (unqualified reference to a qualified key)
    suffix = f".{column.name}"
    matches = [key for key in row if key.endswith(suffix)]
    if len(matches) == 1:
        return row[matches[0]]
    if not matches:
        raise ExecutionError(f"column {column} not found in row {sorted(row)}")
    raise ExecutionError(f"column {column} is ambiguous in row {sorted(row)}")


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    parts: list[str] = []
    for character in pattern:
        if character == "%":
            parts.append(".*")
        elif character == "_":
            parts.append(".")
        else:
            parts.append(re.escape(character))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


def _compare(operator: str, left: Any, right: Any) -> Optional[bool]:
    if left is None or right is None:
        return None
    if isinstance(left, datetime.date) and isinstance(right, str):
        right = datetime.date.fromisoformat(right)
    if isinstance(right, datetime.date) and isinstance(left, str):
        left = datetime.date.fromisoformat(left)
    if operator == "=":
        return left == right
    if operator in ("<>", "!="):
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ExecutionError(f"unsupported comparison operator {operator!r}")


def evaluate(expression: Expression, row: Row) -> Any:
    """Evaluate an expression against a row, with SQL three-valued logic."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return resolve_column(row, expression)
    if isinstance(expression, Star):
        return 1  # COUNT(*) argument — any non-null marker
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, row)
    if isinstance(expression, BooleanOp):
        return _evaluate_boolean(expression, row)
    if isinstance(expression, NotOp):
        value = evaluate(expression.operand, row)
        return None if value is None else (not value)
    if isinstance(expression, IsNull):
        value = evaluate(expression.operand, row)
        return (value is not None) if expression.negated else (value is None)
    if isinstance(expression, InList):
        return _evaluate_in(expression, row)
    if isinstance(expression, Between):
        value = evaluate(expression.operand, row)
        low = evaluate(expression.low, row)
        high = evaluate(expression.high, row)
        lower = _compare(">=", value, low)
        upper = _compare("<=", value, high)
        if lower is None or upper is None:
            return None
        result = lower and upper
        return (not result) if expression.negated else result
    if isinstance(expression, CaseExpression):
        for condition, result in expression.branches:
            if evaluate(condition, row):
                return evaluate(result, row)
        if expression.default is not None:
            return evaluate(expression.default, row)
        return None
    if isinstance(expression, FunctionCall):
        return _evaluate_scalar_function(expression, row)
    raise ExecutionError(f"cannot evaluate expression of type {type(expression).__name__}")


def _evaluate_binary(expression: BinaryOp, row: Row) -> Any:
    operator = expression.operator
    left = evaluate(expression.left, row)
    right = evaluate(expression.right, row)
    if operator in ("=", "<>", "!=", "<", "<=", ">", ">="):
        return _compare(operator, left, right)
    if operator == "like":
        if left is None or right is None:
            return None
        return bool(_like_to_regex(str(right)).match(str(left)))
    if left is None or right is None:
        return None
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if operator == "%":
        return left % right
    if operator == "||":
        return f"{left}{right}"
    raise ExecutionError(f"unsupported operator {operator!r}")


def _evaluate_boolean(expression: BooleanOp, row: Row) -> Optional[bool]:
    values = [evaluate(operand, row) for operand in expression.operands]
    if expression.operator == "and":
        if any(value is False or (value is not None and not value) for value in values):
            return False
        if any(value is None for value in values):
            return None
        return True
    if any(bool(value) for value in values if value is not None):
        return True
    if any(value is None for value in values):
        return None
    return False


def _evaluate_in(expression: InList, row: Row) -> Optional[bool]:
    value = evaluate(expression.operand, row)
    if value is None:
        return None
    found = False
    saw_null = False
    for item in expression.items:
        candidate = evaluate(item, row)
        if candidate is None:
            saw_null = True
        elif _compare("=", value, candidate):
            found = True
            break
    if not found and saw_null:
        return None
    return (not found) if expression.negated else found


_SCALAR_FUNCTIONS = {
    "upper": lambda value: None if value is None else str(value).upper(),
    "lower": lambda value: None if value is None else str(value).lower(),
    "length": lambda value: None if value is None else len(str(value)),
    "abs": lambda value: None if value is None else abs(value),
    "round": round,
    "substring": None,  # handled separately (variadic)
    "extract_year": lambda value: None if value is None else value.year,
}


def _evaluate_scalar_function(expression: FunctionCall, row: Row) -> Any:
    name = expression.name.lower()
    if expression.is_aggregate:
        # After an Aggregate operator has run, aggregate results live in the
        # row keyed by their textual form (e.g. ``COUNT(*)``); HAVING, ORDER
        # BY, and the final projection resolve them through this lookup.
        key = str(expression)
        if key in row:
            return row[key]
        raise ExecutionError(
            f"aggregate {name!r} evaluated outside of an Aggregate operator"
        )
    arguments = [evaluate(argument, row) for argument in expression.arguments]
    if name == "substring":
        if not arguments:
            return None
        text = arguments[0]
        if text is None:
            return None
        start = int(arguments[1]) if len(arguments) > 1 else 1
        length = int(arguments[2]) if len(arguments) > 2 else len(str(text))
        return str(text)[start - 1 : start - 1 + length]
    if name == "coalesce":
        for value in arguments:
            if value is not None:
                return value
        return None
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise ExecutionError(f"unknown function {expression.name!r}")
    if name == "round" and len(arguments) == 2:
        return round(arguments[0], int(arguments[1])) if arguments[0] is not None else None
    return handler(*arguments[:1]) if arguments else handler(None)


# ---------------------------------------------------------------------------
# analysis helpers used by the planner
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Optional[Expression]) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.operator == "and":
        conjuncts: list[Expression] = []
        for operand in expression.operands:
            conjuncts.extend(split_conjuncts(operand))
        return conjuncts
    return [expression]


def combine_conjuncts(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild a single predicate from a list of conjuncts."""
    filtered = [conjunct for conjunct in conjuncts if conjunct is not None]
    if not filtered:
        return None
    if len(filtered) == 1:
        return filtered[0]
    return BooleanOp("and", list(filtered))


def referenced_columns(expression: Expression) -> list[ColumnRef]:
    """All column references appearing anywhere in the expression."""
    return [node for node in expression.walk() if isinstance(node, ColumnRef)]


def referenced_bindings(
    expression: Expression, binding_for_column: Mapping[str, str] | None = None
) -> set[str]:
    """The set of relation bindings the expression touches.

    Unqualified columns are resolved through ``binding_for_column`` when
    provided (mapping bare column name -> binding).
    """
    bindings: set[str] = set()
    for column in referenced_columns(expression):
        if column.table:
            bindings.add(column.table)
        elif binding_for_column and column.name in binding_for_column:
            bindings.add(binding_for_column[column.name])
    return bindings


def is_equijoin(expression: Expression) -> bool:
    """Whether the expression is a simple ``col = col`` predicate across two relations."""
    if not isinstance(expression, BinaryOp) or expression.operator != "=":
        return False
    return isinstance(expression.left, ColumnRef) and isinstance(expression.right, ColumnRef)
