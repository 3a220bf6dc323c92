"""The physical operator tree abstraction (paper §3).

An :class:`OperatorTree` is the engine-neutral form of a QEP: nodes carry the
engine-specific operator *name* (``Hash Join`` in PostgreSQL, ``Hash Match``
in SQL Server) plus a normalized attribute dictionary so downstream code can
reach the relation, conditions, and keys without knowing the source dialect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

#: Normalized attribute keys available on every node (when applicable).
ATTR_RELATION = "relation"
ATTR_ALIAS = "alias"
ATTR_INDEX = "index"
ATTR_FILTER = "filter"
ATTR_INDEX_COND = "index_cond"
ATTR_JOIN_COND = "join_cond"
ATTR_SORT_KEYS = "sort_keys"
ATTR_GROUP_KEYS = "group_keys"
ATTR_AGGREGATES = "aggregates"
ATTR_STRATEGY = "strategy"
ATTR_LIMIT = "limit"
ATTR_OUTPUT = "output"


@dataclass
class OperatorNode:
    """One physical operator in a QEP."""

    name: str
    children: list["OperatorNode"] = field(default_factory=list)
    attributes: dict[str, Any] = field(default_factory=dict)
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    # -- attribute accessors ------------------------------------------------

    @property
    def relation(self) -> Optional[str]:
        return self.attributes.get(ATTR_RELATION)

    @property
    def alias(self) -> Optional[str]:
        return self.attributes.get(ATTR_ALIAS) or self.relation

    @property
    def filter_condition(self) -> Optional[str]:
        return self.attributes.get(ATTR_FILTER)

    @property
    def join_condition(self) -> Optional[str]:
        return self.attributes.get(ATTR_JOIN_COND)

    @property
    def index_condition(self) -> Optional[str]:
        return self.attributes.get(ATTR_INDEX_COND)

    @property
    def sort_keys(self) -> list[str]:
        return list(self.attributes.get(ATTR_SORT_KEYS, []))

    @property
    def group_keys(self) -> list[str]:
        return list(self.attributes.get(ATTR_GROUP_KEYS, []))

    @property
    def aggregates(self) -> list[str]:
        return list(self.attributes.get(ATTR_AGGREGATES, []))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- traversal -----------------------------------------------------------

    def walk(self) -> Iterator["OperatorNode"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def post_order(self) -> Iterator["OperatorNode"]:
        """Post-order traversal (children before parents) — the narration order."""
        for child in self.children:
            yield from child.post_order()
        yield self

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def find(self, name: str) -> list["OperatorNode"]:
        """All descendants (including self) whose operator name matches."""
        lowered = name.lower()
        return [node for node in self.walk() if node.name.lower() == lowered]

    def describe(self) -> str:
        parts = [self.name]
        if self.relation:
            parts.append(f"on {self.relation}")
        condition = self.join_condition or self.index_condition or self.filter_condition
        if condition:
            parts.append(f"[{condition}]")
        return " ".join(parts)

    # -- wire serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict of this node."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "OperatorNode":
        if not isinstance(payload, dict) or "name" not in payload:
            raise ValueError("operator node dict needs at least a 'name' key")
        return cls(
            name=payload["name"],
            attributes=dict(payload.get("attributes", {})),
            estimated_rows=float(payload.get("estimated_rows", 0.0)),
            estimated_cost=float(payload.get("estimated_cost", 0.0)),
            children=[cls.from_dict(child) for child in payload.get("children", [])],
        )


@dataclass
class OperatorTree:
    """A full QEP: the root operator plus provenance metadata.

    Trees handed out by a :class:`~repro.plans.registry.PlanRegistry`
    (``Lantern.parse_plan``, the service's and the router's ingest) are
    read-only: the registry's ingest memo returns the same tree object for
    every repeat of a text payload, so a mutation would reach every later
    request for that payload.  Narration never mutates a tree; a caller
    that wants to edit one edits a copy (``OperatorTree.from_dict(tree.to_dict())``).
    """

    root: OperatorNode
    source: str = "postgresql"
    query_text: str = ""

    def walk(self) -> Iterator[OperatorNode]:
        return self.root.walk()

    def post_order(self) -> Iterator[OperatorNode]:
        return self.root.post_order()

    def node_count(self) -> int:
        return self.root.node_count()

    def depth(self) -> int:
        return self.root.depth()

    def operator_names(self) -> list[str]:
        """Operator names in pre-order — useful for tests and act statistics."""
        return [node.name for node in self.walk()]

    def leaves(self) -> list[OperatorNode]:
        return [node for node in self.walk() if node.is_leaf]

    def relations(self) -> list[str]:
        """Base relations touched by the plan, in pre-order, without duplicates."""
        seen: list[str] = []
        for node in self.walk():
            if node.relation and node.relation not in seen:
                seen.append(node.relation)
        return seen

    # -- wire serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe form exchanged with LANTERN-SERVE clients.

        This is the ``operator-tree-json`` wire format of the plan-ingestion
        registry: a client that already holds a parsed :class:`OperatorTree`
        can ship it to ``/narrate`` without re-serializing to an engine
        dialect.
        """
        return {"source": self.source, "query_text": self.query_text, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "OperatorTree":
        if not isinstance(payload, dict) or not isinstance(payload.get("root"), dict):
            raise ValueError("operator tree dict needs a 'root' object")
        return cls(
            root=OperatorNode.from_dict(payload["root"]),
            source=payload.get("source", "postgresql"),
            query_text=payload.get("query_text", ""),
        )
