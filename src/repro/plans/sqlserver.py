"""Parse SQL Server showplan-style XML into an operator tree."""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from typing import Optional

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
    ATTR_RELATION,
    ATTR_SORT_KEYS,
    OperatorNode,
    OperatorTree,
)


def _strip_namespace(tag: str) -> str:
    return tag.split("}", 1)[1] if "}" in tag else tag


def _find_child(element: ElementTree.Element, name: str) -> Optional[ElementTree.Element]:
    for child in element:
        if _strip_namespace(child.tag) == name:
            return child
    return None


def _find_all(element: ElementTree.Element, name: str) -> list[ElementTree.Element]:
    return [child for child in element if _strip_namespace(child.tag) == name]


def _parse_relop(element: ElementTree.Element) -> OperatorNode:
    physical = element.get("PhysicalOp")
    if not physical:
        raise PlanFormatError("RelOp element is missing PhysicalOp attribute")
    attributes: dict[str, object] = {}
    logical = element.get("LogicalOp")
    if logical:
        attributes["logical_op"] = logical
    table_object = _find_child(element, "Object")
    if table_object is not None:
        attributes[ATTR_RELATION] = table_object.get("Table")
        attributes[ATTR_ALIAS] = table_object.get("Alias", table_object.get("Table"))
    if element.get("Index"):
        attributes[ATTR_INDEX] = element.get("Index")
    seek = _find_child(element, "SeekPredicate")
    if seek is not None and seek.text:
        attributes[ATTR_INDEX_COND] = seek.text
    predicate = _find_child(element, "Predicate")
    if predicate is not None and predicate.text:
        attributes[ATTR_FILTER] = predicate.text
    join_predicate = _find_child(element, "JoinPredicate")
    if join_predicate is not None and join_predicate.text:
        attributes[ATTR_JOIN_COND] = join_predicate.text
    order_by = _find_child(element, "OrderBy")
    if order_by is not None and order_by.text:
        attributes[ATTR_SORT_KEYS] = [key.strip() for key in order_by.text.split(",")]
    group_by = _find_child(element, "GroupBy")
    if group_by is not None and group_by.text:
        attributes[ATTR_GROUP_KEYS] = [key.strip() for key in group_by.text.split(",")]
    aggregates = _find_child(element, "Aggregates")
    if aggregates is not None and aggregates.text:
        attributes[ATTR_AGGREGATES] = [call.strip() for call in aggregates.text.split(",")]
    if element.get("TopExpression"):
        attributes[ATTR_LIMIT] = int(element.get("TopExpression"))

    name = physical
    if physical == "Hash Match" and logical and logical not in ("Inner Join", "Outer Join"):
        # "Hash Match" doubles as join and aggregate in SQL Server; keep the
        # logical role in the operator name so labelling stays unambiguous.
        name = f"Hash Match ({logical})"
    node = OperatorNode(
        name=name,
        attributes=attributes,
        estimated_rows=float(element.get("EstimateRows", 0) or 0),
        estimated_cost=float(element.get("EstimatedTotalSubtreeCost", 0.0) or 0.0),
    )
    for child in _find_all(element, "RelOp"):
        node.children.append(_parse_relop(child))
    return node


def parse_sqlserver_xml(document: str) -> OperatorTree:
    """Parse a showplan XML document into an :class:`OperatorTree`."""
    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as error:
        raise PlanFormatError(f"invalid showplan XML: {error}") from error
    query_text = ""
    relop: Optional[ElementTree.Element] = None
    for element in root.iter():
        tag = _strip_namespace(element.tag)
        if tag == "StmtSimple" and not query_text:
            query_text = element.get("StatementText", "")
        if tag == "QueryPlan" and relop is None:
            children = _find_all(element, "RelOp")
            if children:
                relop = children[0]
    if relop is None:
        raise PlanFormatError("showplan XML contains no RelOp elements")
    return OperatorTree(root=_parse_relop(relop), source="sqlserver", query_text=query_text)
