"""Act decomposition of a QEP (paper §6.2).

NEURAL-LANTERN does not translate a whole plan at once: the plan is cut into
*acts*, each being a single operator or an (auxiliary, critical) cluster, and
each act is translated independently.  The act is also the unit for training
data generation: its serialized form (operator tokens plus structural tags)
is the source sequence of the QEP2Seq model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.clustering import cluster, pair_for_critical
from repro.core.lot import LanguageAnnotatedTree, LotNode, build_lot
from repro.core.narration import Narration, NarrationStep
from repro.plans.operator_tree import OperatorTree
from repro.pool.poem import PoemStore, normalize_operator_name


@dataclass
class Act:
    """One act: an operator (or aux/critical pair) with its context."""

    operators: list[str]
    relations: list[str] = field(default_factory=list)
    has_filter: bool = False
    has_join_condition: bool = False
    has_index_condition: bool = False
    group_key_count: int = 0
    sort_key_count: int = 0
    has_limit: bool = False
    produces_intermediate: bool = True
    input_count: int = 1
    node: Optional[LotNode] = None
    step: Optional[NarrationStep] = None
    #: :attr:`signature` and :attr:`key`, computed on first use (an act's
    #: structure does not change after decomposition)
    _signature: Optional[tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    #: finished neural texts of this act, kept by NEURAL-LANTERN for the rule
    #: step they were worded for: ``(rule step, {candidate tokens: text})``.
    #: Memoized acts are reused by the rule memo, so the texts live and die
    #: with its entry
    wordings: Optional[tuple[NarrationStep, dict[tuple[str, ...], str]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def signature(self) -> tuple[str, ...]:
        """The source-sequence tokens fed to the QEP2Seq encoder.

        Operator names come first, then one ``<T>`` per input, then the
        structural tags describing which schema-dependent pieces are present.
        The vocabulary is therefore closed and small (paper: 36 tokens).
        """
        if self._signature is None:
            tokens = [normalize_operator_name(name) for name in self.operators]
            tokens.extend(["<T>"] * max(self.input_count, 1))
            if self.has_index_condition:
                tokens.append("<I>")
            if self.has_join_condition:
                tokens.append("<C>")
            if self.has_filter:
                tokens.append("<F>")
            if self.group_key_count:
                tokens.append("<G>")
            if self.sort_key_count:
                tokens.append("<A>")
            if self.has_limit:
                tokens.append("limit")
            if self.produces_intermediate:
                tokens.append("<TN>")
            self._signature = tuple(tokens)
        return self._signature

    def input_tokens(self) -> list[str]:
        """:attr:`signature` as a list."""
        return list(self.signature)

    @property
    def key(self) -> str:
        """A deduplication key describing the act's structure (not its values)."""
        if self._key is None:
            self._key = " ".join(self.signature)
        return self._key


def _act_from_node(node: LotNode, auxiliary: Optional[LotNode]) -> Act:
    operator = node.operator
    operators = [node.operator_name]
    if auxiliary is not None:
        operators.insert(0, auxiliary.operator_name)
    relations = [operator.relation] if operator.relation else []
    for child in node.children:
        if child.operator.relation and child.operator.relation not in relations:
            relations.append(child.operator.relation)
    produces_intermediate = True
    if not node.children and operator.relation:
        produces_intermediate = bool(operator.filter_condition or operator.index_condition)
    return Act(
        operators=operators,
        relations=relations,
        has_filter=bool(operator.filter_condition),
        has_join_condition=bool(operator.join_condition),
        has_index_condition=bool(operator.index_condition),
        group_key_count=len(operator.group_keys),
        sort_key_count=len(operator.sort_keys),
        has_limit=operator.attributes.get("limit") is not None,
        produces_intermediate=produces_intermediate,
        input_count=max(len(node.children), 1),
        node=node,
    )


def decompose_lot_into_acts(lot: LanguageAnnotatedTree) -> list[Act]:
    """Decompose an already-built LOT into acts, post-order."""
    pairs = cluster(lot)
    acts: list[Act] = []
    for node in lot.root.post_order():
        if node.is_auxiliary_member:
            continue
        pair = pair_for_critical(pairs, node)
        acts.append(_act_from_node(node, pair.auxiliary if pair else None))
    return acts


def decompose_into_acts(
    tree: OperatorTree, store: PoemStore, poem_source: str = "pg"
) -> list[Act]:
    """Decompose an operator tree into its acts."""
    lot = build_lot(tree, store, poem_source)
    return decompose_lot_into_acts(lot)


def align_acts_with_narration(acts: list[Act], narration: Narration) -> list[Act]:
    """Attach each narration step to the act it describes (same post-order)."""
    if len(acts) != len(narration.steps):
        # conservative: align the common prefix only
        for act, step in zip(acts, narration.steps):
            act.step = step
        return acts
    for act, step in zip(acts, narration.steps):
        act.step = step
    return acts
