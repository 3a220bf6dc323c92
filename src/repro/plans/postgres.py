"""Parse PostgreSQL ``EXPLAIN (FORMAT JSON)`` output into an operator tree."""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import PlanFormatError
from repro.plans.operator_tree import (
    ATTR_AGGREGATES,
    ATTR_ALIAS,
    ATTR_FILTER,
    ATTR_GROUP_KEYS,
    ATTR_INDEX,
    ATTR_INDEX_COND,
    ATTR_JOIN_COND,
    ATTR_LIMIT,
    ATTR_OUTPUT,
    ATTR_RELATION,
    ATTR_SORT_KEYS,
    ATTR_STRATEGY,
    OperatorNode,
    OperatorTree,
)

_CONDITION_KEYS = ("Hash Cond", "Merge Cond", "Join Filter", "Recheck Cond")


def _parse_node(entry: Mapping[str, Any]) -> OperatorNode:
    if "Node Type" not in entry:
        raise PlanFormatError("plan node is missing 'Node Type'")
    node_type = entry["Node Type"]
    if not isinstance(node_type, str) or not node_type:
        raise PlanFormatError(f"plan node 'Node Type' must be a non-empty string, got {node_type!r}")
    attributes: dict[str, Any] = {}
    if entry.get("Relation Name"):
        attributes[ATTR_RELATION] = entry["Relation Name"]
        attributes[ATTR_ALIAS] = entry.get("Alias", entry["Relation Name"])
    if entry.get("Index Name"):
        attributes[ATTR_INDEX] = entry["Index Name"]
    if entry.get("Index Cond"):
        attributes[ATTR_INDEX_COND] = entry["Index Cond"]
    if entry.get("Filter"):
        attributes[ATTR_FILTER] = entry["Filter"]
    for key in _CONDITION_KEYS:
        if entry.get(key):
            attributes[ATTR_JOIN_COND] = entry[key]
            break
    if entry.get("Sort Key"):
        attributes[ATTR_SORT_KEYS] = list(entry["Sort Key"])
    if entry.get("Group Key"):
        attributes[ATTR_GROUP_KEYS] = list(entry["Group Key"])
    if entry.get("Aggregates"):
        attributes[ATTR_AGGREGATES] = list(entry["Aggregates"])
    if entry.get("Strategy"):
        attributes[ATTR_STRATEGY] = entry["Strategy"]
    if entry.get("Rows Limit") is not None:
        attributes[ATTR_LIMIT] = entry["Rows Limit"]
    if entry.get("Output"):
        attributes[ATTR_OUTPUT] = list(entry["Output"])

    strategy = entry.get("Strategy")
    if node_type == "Aggregate" and strategy:
        # real PostgreSQL reports Aggregate + Strategy; expose the specific
        # operator name the paper's figures use (HashAggregate/GroupAggregate).
        if strategy == "Hashed":
            node_type = "HashAggregate"
        elif strategy == "Sorted":
            node_type = "GroupAggregate"

    node = OperatorNode(
        name=node_type,
        attributes=attributes,
        estimated_rows=float(entry.get("Plan Rows", 0) or 0),
        estimated_cost=float(entry.get("Total Cost", 0.0) or 0.0),
    )
    for child in entry.get("Plans", []) or []:
        node.children.append(_parse_node(child))
    return node


def parse_postgres_json(document: str | list | dict) -> OperatorTree:
    """Parse ``EXPLAIN (FORMAT JSON)`` output (text or already-decoded objects)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as error:
            raise PlanFormatError(f"invalid EXPLAIN JSON: {error}") from error
    query_text = ""
    if isinstance(document, list):
        if not document:
            raise PlanFormatError("EXPLAIN JSON document is empty")
        first = document[0]
        query_text = first.get("Query Text", "") if isinstance(first, dict) else ""
        plan = first.get("Plan") if isinstance(first, dict) else None
    elif isinstance(document, dict):
        query_text = document.get("Query Text", "")
        plan = document.get("Plan", document)
    else:
        raise PlanFormatError(f"unsupported EXPLAIN JSON payload: {type(document).__name__}")
    if not isinstance(plan, Mapping):
        raise PlanFormatError("EXPLAIN JSON document has no 'Plan' object")
    return OperatorTree(root=_parse_node(plan), source="postgresql", query_text=query_text)


def plan_from_database(database, sql: str) -> OperatorTree:
    """Convenience helper: EXPLAIN ``sql`` on a :class:`repro.sqlengine.Database`.

    This is the substitute for connecting to a real PostgreSQL instance — the
    JSON round-trip goes through exactly the same parser as external plans.
    """
    return parse_postgres_json(database.explain(sql, output_format="json"))
