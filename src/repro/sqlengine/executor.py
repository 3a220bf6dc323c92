"""Executes physical plans against the in-memory storage manager.

Rows flowing between operators are dictionaries keyed ``binding.column`` for
base-table columns; aggregate operators additionally publish their results
under the textual form of the aggregate call (``COUNT(*)``) so that HAVING,
ORDER BY, and the final projection can reference them.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.errors import ExecutionError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    SelectItem,
    Star,
)
from repro.sqlengine.expressions import evaluate, is_equijoin, split_conjuncts
from repro.sqlengine.physical import (
    AGGREGATE,
    BITMAP_HEAP_SCAN,
    GATHER,
    GROUP_AGGREGATE,
    HASH,
    HASH_AGGREGATE,
    HASH_JOIN,
    INDEX_ONLY_SCAN,
    INDEX_SCAN,
    LIMIT,
    MATERIALIZE,
    MERGE_JOIN,
    NESTED_LOOP,
    PARALLEL_SEQ_SCAN,
    PhysicalPlan,
    PlanNode,
    SEQ_SCAN,
    SORT,
    UNIQUE,
)
from repro.sqlengine.storage import BTreeIndexData, StorageManager
from repro.sqlengine.types import DataType, date_operand, to_sortable

Row = dict[str, Any]


class Executor:
    """Pull-style executor: each node is evaluated to a list of rows."""

    def __init__(self, storage: StorageManager) -> None:
        self._storage = storage

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> list[Row]:
        """Run the plan and return projected result rows."""
        rows = self._execute_node(plan.root)
        return self._project(rows, plan.select_items)

    # ------------------------------------------------------------------
    # node dispatch
    # ------------------------------------------------------------------

    def _execute_node(self, node: PlanNode) -> list[Row]:
        handler_name = self._HANDLERS.get(node.node_type)
        if handler_name is None:
            raise ExecutionError(f"no executor for node type {node.node_type!r}")
        return getattr(self, handler_name)(node)

    # -- scans -----------------------------------------------------------

    def _execute_seq_scan(self, node: PlanNode) -> list[Row]:
        table = self._storage.table(node.relation)
        rows = list(table.as_dicts(node.alias))
        return self._apply_filter(rows, node.filter)

    def _execute_index_scan(self, node: PlanNode) -> list[Row]:
        table = self._storage.table(node.relation)
        index_data = self._storage.index_data(node.index_name)
        key_type = table.schema.column(index_data.index.leading_column).data_type
        row_ids = self._index_lookup(node, index_data, key_type is DataType.DATE)
        prefix = (node.alias or node.relation).lower()
        names = [f"{prefix}.{column.name}" for column in table.schema.columns]
        rows = [dict(zip(names, table.fetch(row_id))) for row_id in row_ids]
        rows = self._apply_filter(rows, node.index_condition)
        return self._apply_filter(rows, node.filter)

    def _index_lookup(self, node: PlanNode, index_data, date_key: bool) -> list[int]:
        conjuncts = split_conjuncts(node.index_condition)
        equality_value = None
        low = high = None
        low_inclusive = high_inclusive = True
        for conjunct in conjuncts:
            if not isinstance(conjunct, BinaryOp):
                continue
            column, value, operator = _normalize_comparison(conjunct)
            if column is None:
                continue
            if date_key:
                value = date_operand(value)
            if operator == "=":
                equality_value = value
            elif operator in (">", ">="):
                low, low_inclusive = value, operator == ">="
            elif operator in ("<", "<="):
                high, high_inclusive = value, operator == "<="
        if equality_value is not None:
            return index_data.lookup(equality_value)
        if isinstance(index_data, BTreeIndexData):
            return index_data.range_lookup(low, high, low_inclusive, high_inclusive)
        raise ExecutionError("hash index cannot serve a range predicate")

    # -- joins -----------------------------------------------------------

    def _execute_hash_join(self, node: PlanNode) -> list[Row]:
        outer_rows = self._execute_node(node.children[0])
        inner_rows = self._execute_node(node.children[1])
        return self._equality_join(outer_rows, inner_rows, node.join_condition)

    def _execute_merge_join(self, node: PlanNode) -> list[Row]:
        outer_rows = self._execute_node(node.children[0])
        inner_rows = self._execute_node(node.children[1])
        return self._equality_join(outer_rows, inner_rows, node.join_condition)

    def _execute_nested_loop(self, node: PlanNode) -> list[Row]:
        outer_rows = self._execute_node(node.children[0])
        inner_rows = self._execute_node(node.children[1])
        results: list[Row] = []
        for outer in outer_rows:
            for inner in inner_rows:
                combined = {**outer, **inner}
                if node.join_condition is None or evaluate(node.join_condition, combined):
                    results.append(combined)
        return results

    def _equality_join(
        self, outer_rows: list[Row], inner_rows: list[Row], condition: Optional[Expression]
    ) -> list[Row]:
        if not outer_rows or not inner_rows:
            return []
        equijoins = [
            conjunct for conjunct in split_conjuncts(condition) if is_equijoin(conjunct)
        ]
        key_pairs = _resolve_key_sides(equijoins, outer_rows[0], inner_rows[0])
        if not key_pairs:
            # degenerate: no usable equality keys — fall back to nested loop
            results = []
            for outer in outer_rows:
                for inner in inner_rows:
                    combined = {**outer, **inner}
                    if condition is None or evaluate(condition, combined):
                        results.append(combined)
            return results
        buckets: dict[tuple, list[Row]] = {}
        for inner in inner_rows:
            key = tuple(evaluate(inner_expr, inner) for _, inner_expr in key_pairs)
            if any(value is None for value in key):
                continue
            buckets.setdefault(key, []).append(inner)
        results = []
        for outer in outer_rows:
            key = tuple(evaluate(outer_expr, outer) for outer_expr, _ in key_pairs)
            if any(value is None for value in key):
                continue
            for inner in buckets.get(key, ()):  # probe
                combined = {**outer, **inner}
                if condition is None or evaluate(condition, combined):
                    results.append(combined)
        return results

    # -- pass-through / ordering / limiting --------------------------------

    def _execute_passthrough(self, node: PlanNode) -> list[Row]:
        return self._execute_node(node.children[0])

    def _execute_sort(self, node: PlanNode) -> list[Row]:
        rows = self._execute_node(node.children[0])
        order_expressions = node.extra.get("order_expressions", [])
        if not order_expressions:
            return rows
        for expression, descending in reversed(order_expressions):
            rows.sort(
                key=lambda row, expr=expression: to_sortable(evaluate(expr, row)),
                reverse=descending,
            )
        return rows

    def _execute_limit(self, node: PlanNode) -> list[Row]:
        rows = self._execute_node(node.children[0])
        offset = int(node.extra.get("offset", 0) or 0)
        limit = node.extra.get("limit")
        if limit is None:
            return rows[offset:]
        return rows[offset : offset + int(limit)]

    def _execute_unique(self, node: PlanNode) -> list[Row]:
        rows = self._execute_node(node.children[0])
        expressions = node.extra.get("unique_expressions", [])
        seen: set[tuple] = set()
        results: list[Row] = []
        for row in rows:
            if expressions:
                key = tuple(_hashable(evaluate(expression, row)) for expression in expressions)
            else:
                key = tuple(sorted((name, _hashable(value)) for name, value in row.items()))
            if key in seen:
                continue
            seen.add(key)
            results.append(row)
        return results

    # -- aggregation -------------------------------------------------------

    def _execute_aggregate(self, node: PlanNode) -> list[Row]:
        rows = self._execute_node(node.children[0])
        group_expressions = node.group_expressions
        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        if group_expressions:
            for row in rows:
                key = tuple(
                    _hashable(evaluate(expression, row)) for expression in group_expressions
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(row)
        else:
            groups[()] = rows
            order.append(())

        results: list[Row] = []
        for key in order:
            members = groups[key]
            if not members and not group_expressions:
                representative: Row = {}
            else:
                representative = dict(members[0]) if members else {}
            output = dict(representative)
            for expression in group_expressions:
                output[str(expression)] = evaluate(expression, representative) if members else None
            for call in node.aggregate_calls:
                output[str(call)] = _compute_aggregate(call, members)
            if node.filter is not None and not evaluate(node.filter, output):
                continue
            results.append(output)
        return results

    # -- helpers -----------------------------------------------------------

    def _apply_filter(self, rows: list[Row], condition: Optional[Expression]) -> list[Row]:
        if condition is None:
            return rows
        return [row for row in rows if evaluate(condition, row)]

    def _project(self, rows: list[Row], select_items: list[SelectItem]) -> list[Row]:
        if len(select_items) == 1 and isinstance(select_items[0].expression, Star):
            return rows
        results: list[Row] = []
        for row in rows:
            projected: Row = {}
            for position, item in enumerate(select_items):
                if isinstance(item.expression, Star):
                    projected.update(row)
                    continue
                projected[item.output_name(position)] = evaluate(item.expression, row)
            results.append(projected)
        return results

    #: node-type dispatch table, built once at class creation instead of on
    #: every node visit; method *names* keep the lookup late-bound, so
    #: subclass overrides and monkeypatches still take effect
    _HANDLERS = {
        SEQ_SCAN: "_execute_seq_scan",
        PARALLEL_SEQ_SCAN: "_execute_seq_scan",
        INDEX_SCAN: "_execute_index_scan",
        INDEX_ONLY_SCAN: "_execute_index_scan",
        BITMAP_HEAP_SCAN: "_execute_seq_scan",
        HASH_JOIN: "_execute_hash_join",
        MERGE_JOIN: "_execute_merge_join",
        NESTED_LOOP: "_execute_nested_loop",
        HASH: "_execute_passthrough",
        MATERIALIZE: "_execute_passthrough",
        GATHER: "_execute_passthrough",
        SORT: "_execute_sort",
        AGGREGATE: "_execute_aggregate",
        GROUP_AGGREGATE: "_execute_aggregate",
        HASH_AGGREGATE: "_execute_aggregate",
        UNIQUE: "_execute_unique",
        LIMIT: "_execute_limit",
    }


def _normalize_comparison(conjunct: BinaryOp):
    """Return (column, literal value, operator) with the column on the left."""
    from repro.sqlengine.ast_nodes import Literal

    if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
        return conjunct.left, conjunct.right.value, conjunct.operator
    if isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
        flips = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return conjunct.right, conjunct.left.value, flips.get(conjunct.operator, conjunct.operator)
    return None, None, None


def _resolve_key_sides(
    equijoins: Iterable[BinaryOp], outer_sample: Row, inner_sample: Row
) -> list[tuple[Expression, Expression]]:
    """Assign each side of every equi-join predicate to outer/inner inputs."""
    pairs: list[tuple[Expression, Expression]] = []
    for predicate in equijoins:
        left, right = predicate.left, predicate.right
        if _resolvable(left, outer_sample) and _resolvable(right, inner_sample):
            pairs.append((left, right))
        elif _resolvable(right, outer_sample) and _resolvable(left, inner_sample):
            pairs.append((right, left))
    return pairs


def _resolvable(expression: Expression, row: Row) -> bool:
    try:
        evaluate(expression, row)
        return True
    except ExecutionError:
        return False


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _compute_aggregate(call: FunctionCall, rows: list[Row]) -> Any:
    name = call.name.lower()
    argument = call.arguments[0] if call.arguments else Star()
    if isinstance(argument, Star):
        values: list[Any] = [1] * len(rows)
    else:
        values = [evaluate(argument, row) for row in rows]
        values = [value for value in values if value is not None]
    if call.distinct:
        unique: list[Any] = []
        seen: set[Any] = set()
        for value in values:
            marker = _hashable(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        values = unique
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values, key=to_sortable)
    if name == "max":
        return max(values, key=to_sortable)
    raise ExecutionError(f"unsupported aggregate {call.name!r}")
