"""Parse MySQL ``EXPLAIN FORMAT=JSON`` output into an operator tree.

MySQL's optimizer trace nests the plan inside a ``query_block`` object whose
wrapper keys (``ordering_operation``, ``grouping_operation``,
``duplicates_removal``) each contain the next stage, bottoming out in either a
single ``table`` access or a ``nested_loop`` array — MySQL's executor joins
exclusively with (block) nested loops, so an N-way join is a flat list of N
table accesses read left to right.

The adapter maps MySQL's vocabulary onto the operator names of the PostgreSQL
POEM catalog (``access_type: ALL`` → ``Seq Scan``, ``ref``/``range``/
``eq_ref`` → ``Index Scan``, ``nested_loop`` → left-deep ``Nested Loop``
trees, and so on).  Every MySQL operator has a direct PostgreSQL analogue, so
narration reuses the existing catalog — ``repro.core.lantern`` maps the
``"mysql"`` source to the PostgreSQL POEM source for exactly this reason —
while the tree keeps ``source="mysql"`` for provenance.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import PlanFormatError
from repro.plans.operator_tree import (
    ATTR_ALIAS,
    ATTR_FILTER,
    ATTR_INDEX,
    ATTR_INDEX_COND,
    ATTR_JOIN_COND,
    ATTR_RELATION,
    OperatorNode,
    OperatorTree,
)

#: MySQL access types → the operator name used for the scan node.  ``index``
#: is MySQL's full-index scan (the index alone is read end to end), hence
#: ``Index Only Scan``; the lookup types all become ``Index Scan``.
ACCESS_TYPE_OPERATORS = {
    "ALL": "Seq Scan",
    "system": "Seq Scan",
    "index": "Index Only Scan",
    "range": "Index Scan",
    "ref": "Index Scan",
    "ref_or_null": "Index Scan",
    "eq_ref": "Index Scan",
    "const": "Index Scan",
    "fulltext": "Index Scan",
    "index_merge": "Index Scan",
    "unique_subquery": "Index Scan",
    "index_subquery": "Index Scan",
}

#: wrapper keys of a query block, outermost first — the order MySQL nests
#: them when several apply to the same block
_WRAPPER_KEYS = ("ordering_operation", "duplicates_removal", "grouping_operation")


def _cost(info: Any) -> float:
    """Total cost out of a MySQL ``cost_info`` object (values are strings)."""
    if not isinstance(info, Mapping):
        return 0.0
    total = 0.0
    for key in ("query_cost", "prefix_cost", "read_cost", "eval_cost"):
        try:
            total += float(info.get(key, 0) or 0)
        except (TypeError, ValueError):
            continue
    return total


def _parse_table(entry: Mapping[str, Any]) -> OperatorNode:
    if "table_name" not in entry:
        raise PlanFormatError("MySQL table entry is missing 'table_name'")
    access_type = entry.get("access_type", "ALL")
    name = ACCESS_TYPE_OPERATORS.get(access_type)
    if name is None:
        raise PlanFormatError(f"unknown MySQL access_type {access_type!r}")
    attributes: dict[str, Any] = {
        ATTR_RELATION: entry["table_name"],
        ATTR_ALIAS: entry.get("alias", entry["table_name"]),
    }
    if entry.get("key"):
        attributes[ATTR_INDEX] = entry["key"]
    if entry.get("index_condition"):
        # index condition pushdown: the predicate evaluated inside the index
        attributes[ATTR_INDEX_COND] = entry["index_condition"]
    if entry.get("attached_condition"):
        attributes[ATTR_FILTER] = entry["attached_condition"]
    rows = entry.get("rows_examined_per_scan", entry.get("rows_produced_per_join", 0))
    try:
        rows = float(rows or 0)
    except (TypeError, ValueError):
        rows = 0.0
    return OperatorNode(
        name=name,
        attributes=attributes,
        estimated_rows=rows,
        estimated_cost=_cost(entry.get("cost_info")),
    )


def _join_condition(entry: Mapping[str, Any]) -> str | None:
    """The lookup predicate MySQL records on an index-driven inner table."""
    table = entry.get("table", entry)
    key = table.get("key")
    ref = table.get("ref")
    if key and isinstance(ref, list) and ref:
        return f"{table.get('table_name', '?')}.{key} = ({', '.join(str(r) for r in ref)})"
    return None


def _parse_nested_loop(entries: list) -> OperatorNode:
    """A ``nested_loop`` array → a left-deep tree of ``Nested Loop`` joins."""
    if not entries:
        raise PlanFormatError("MySQL nested_loop array is empty")
    nodes: list[OperatorNode] = []
    conditions: list[str | None] = []
    for entry in entries:
        if not isinstance(entry, Mapping) or "table" not in entry:
            raise PlanFormatError("MySQL nested_loop entries must contain 'table' objects")
        nodes.append(_parse_table(entry["table"]))
        conditions.append(_join_condition(entry))
    left = nodes[0]
    for inner, condition in zip(nodes[1:], conditions[1:]):
        attributes: dict[str, Any] = {}
        if condition:
            attributes[ATTR_JOIN_COND] = condition
        left = OperatorNode(
            name="Nested Loop",
            children=[left, inner],
            attributes=attributes,
            estimated_rows=max(left.estimated_rows, inner.estimated_rows),
            estimated_cost=left.estimated_cost + inner.estimated_cost,
        )
    return left


def _grouping_name(block: Mapping[str, Any]) -> str:
    if block.get("using_temporary_table"):
        return "HashAggregate"
    if block.get("using_filesort"):
        return "GroupAggregate"
    return "Aggregate"


def _parse_block(block: Mapping[str, Any]) -> OperatorNode:
    """One query-block level: peel wrapper operations, then reach the access."""
    for key in _WRAPPER_KEYS:
        if key in block:
            inner = block[key]
            if not isinstance(inner, Mapping):
                raise PlanFormatError(f"MySQL {key} must be an object")
            child = _parse_block(inner)
            if key == "ordering_operation":
                name = "Sort"
            elif key == "duplicates_removal":
                name = "Unique"
            else:
                name = _grouping_name(inner)
            return OperatorNode(
                name=name,
                children=[child],
                estimated_rows=child.estimated_rows,
                estimated_cost=child.estimated_cost + _cost(inner.get("cost_info")),
            )
    if "nested_loop" in block:
        if not isinstance(block["nested_loop"], list):
            raise PlanFormatError("MySQL nested_loop must be an array")
        return _parse_nested_loop(block["nested_loop"])
    if "table" in block:
        if not isinstance(block["table"], Mapping):
            raise PlanFormatError("MySQL table must be an object")
        return _parse_table(block["table"])
    raise PlanFormatError(
        "MySQL query block has no recognized access "
        "(expected one of table/nested_loop/" + "/".join(_WRAPPER_KEYS) + ")"
    )


def parse_mysql_json(document: str | Mapping[str, Any]) -> OperatorTree:
    """Parse ``EXPLAIN FORMAT=JSON`` output (text or already-decoded objects)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as error:
            raise PlanFormatError(f"invalid MySQL EXPLAIN JSON: {error}") from error
    if not isinstance(document, Mapping):
        raise PlanFormatError(
            f"unsupported MySQL EXPLAIN payload: {type(document).__name__}"
        )
    block = document.get("query_block")
    if not isinstance(block, Mapping):
        raise PlanFormatError("MySQL EXPLAIN JSON has no 'query_block' object")
    root = _parse_block(block)
    if root.estimated_cost == 0.0:
        root.estimated_cost = _cost(block.get("cost_info"))
    # real EXPLAIN JSON has no query text; tooling (and our serializer) may
    # attach it as a sibling "query" key
    query_text = document.get("query", "")
    return OperatorTree(root=root, source="mysql", query_text=query_text)
