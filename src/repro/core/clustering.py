"""Clustering of auxiliary and critical nodes in a LOT (paper §5.4).

An (auxiliary, critical) pair is an edge of the LOT whose child operator is
declared (through its POEM ``target`` attribute) to support the parent
operator — e.g. HASH→HASH JOIN, SORT→MERGE JOIN, SORT→GROUPAGGREGATE,
MATERIALIZE→NESTED LOOP.  The pair is narrated as a single step by composing
the two labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lot import LanguageAnnotatedTree, LotNode


@dataclass(frozen=True)
class ClusterPair:
    """One auxiliary/critical node pair of a LOT."""

    auxiliary: LotNode
    critical: LotNode


def cluster(tree: LanguageAnnotatedTree) -> list[ClusterPair]:
    """Return every (auxiliary, critical) edge of the LOT.

    The auxiliary role is declared in the POEM store, so the same code works
    for any engine whose operators were labelled with POOL.  Each critical
    node contributes at most one pair (the first matching child), matching
    the composition semantics of Algorithm 1.
    """
    pairs: list[ClusterPair] = []
    for node in tree.walk():
        for child in node.children:
            if child.poem is None or node.poem is None:
                continue
            if not child.poem.is_auxiliary:
                continue
            if node.poem.name in child.poem.targets:
                pairs.append(ClusterPair(auxiliary=child, critical=node))
                child.is_auxiliary_member = True
                break
    return pairs


def pair_for_critical(pairs: list[ClusterPair], node: LotNode) -> ClusterPair | None:
    """The cluster pair whose critical member is ``node``, if any."""
    for pair in pairs:
        if pair.critical is node:
            return pair
    return None
