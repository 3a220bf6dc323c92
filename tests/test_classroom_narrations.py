"""The classroom narrations stay byte-identical.

The 66 classroom payloads — the 22 TPC-H queries, each explained as
PostgreSQL JSON, SQL Server XML and MySQL JSON — are what a course's
learners read.  Rule narrations are pure Python, so their digest is pinned
outright.  Auto-mode narrations go through a trained model, whose floats may
round differently on other hardware, so they are pinned against reference
copies of the text-path kernels instead: the shipped kernels and the
references must produce the same bytes, cold and warm.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.core import Lantern, LanternConfig
from repro.core.tags import SPECIAL_TAGS, TagMapping
from repro.workloads import tpch_queries

DIALECTS = ("json", "xml", "mysql")

#: SHA-256 of the 66 rule narrations joined by newlines (seed-free facade)
RULE_DIGEST = "91d6bc832d20a4917802065013fffe0879119ca3a17808808def84a9cf19b932"


@pytest.fixture(scope="module")
def classroom_payloads(tpch_db) -> list[str]:
    return [
        tpch_db.explain(query.sql, output_format=dialect)
        for query in tpch_queries()
        for dialect in DIALECTS
    ]


def _digest(facade: Lantern, payloads: list[str], mode: str) -> str:
    texts = [facade.describe_plan(facade.parse_plan(payload), mode=mode).text for payload in payloads]
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def _reference_restore_step_text(abstracted: str, mapping: TagMapping) -> str:
    """``restore_step_text`` as it was first written: the tag pattern is
    compiled on every call."""
    counters: dict[str, int] = {}
    result: list[str] = []
    token_pattern = re.compile("|".join(re.escape(tag) for tag in SPECIAL_TAGS))
    position = 0
    for match in token_pattern.finditer(abstracted):
        result.append(abstracted[position : match.start()])
        tag = match.group()
        values = mapping.values_for(tag)
        index = counters.get(tag, 0)
        if index < len(values):
            result.append(values[index])
        else:
            result.append(values[-1] if values else tag)
        counters[tag] = index + 1
        position = match.end()
    result.append(abstracted[position:])
    return "".join(result)


def _reference_tree_signature(node) -> tuple:
    """The recursive memo key the iterative one replaced."""
    return (
        node.name,
        tuple(sorted((key, str(value)) for key, value in node.attributes.items())),
        tuple(_reference_tree_signature(child) for child in node.children),
    )


def _reference_normalize_operator_name(name: str) -> str:
    return "".join(character for character in name.lower() if character.isalnum())


def test_rule_narrations_are_pinned(classroom_payloads):
    assert len(classroom_payloads) == 66
    facade = Lantern(config=LanternConfig(seed=None))
    assert _digest(facade, classroom_payloads, "rule") == RULE_DIGEST
    # the second pass is served by the rule memo and reads the same
    assert _digest(facade, classroom_payloads, "rule") == RULE_DIGEST
    assert facade.rule_memo_stats()["hits"] >= 66


def test_auto_narrations_match_the_reference_kernels(
    classroom_payloads, trained_neural, monkeypatch
):
    import repro.core.acts
    import repro.core.lantern
    import repro.nlg.neural_lantern

    def cold_and_warm() -> tuple[str, str]:
        trained_neural._act_exposure.clear()
        trained_neural.decode_cache.clear()
        facade = Lantern(neural=trained_neural, config=LanternConfig(seed=None))
        return (
            _digest(facade, classroom_payloads, "auto"),
            _digest(facade, classroom_payloads, "auto"),
        )

    shipped = cold_and_warm()
    assert trained_neural.decode_cache.stats()["hits"] > 0  # the neural path ran
    monkeypatch.setattr(repro.nlg.neural_lantern, "restore_step_text", _reference_restore_step_text)
    monkeypatch.setattr(repro.core.lantern, "_tree_signature", _reference_tree_signature)
    monkeypatch.setattr(
        repro.core.acts, "normalize_operator_name", _reference_normalize_operator_name
    )
    reference = cold_and_warm()
    trained_neural._act_exposure.clear()
    trained_neural.decode_cache.clear()
    assert shipped == reference
