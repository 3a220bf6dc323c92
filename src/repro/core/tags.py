"""Special tags used to abstract schema-dependent values (paper Table 1).

Training the neural translator on literal relation names, predicates and
temporary-table identifiers would prevent generalization across databases, so
those values are replaced by tags in the training targets and restored after
decoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Table 1 of the paper: tag -> description.
SPECIAL_TAGS: dict[str, str] = {
    "<I>": "indexed column name",
    "<F>": "filtering condition",
    "<C>": "join condition",
    "<T>": "an existing temporary table or input relation name",
    "<TN>": "new temporary table name",
    "<A>": "column name for sort",
    "<G>": "column name for group by",
}

_INTERMEDIATE_RE = re.compile(r"\bT\d+\b")
#: any Table 1 tag, in ``SPECIAL_TAGS`` order (what :func:`restore_step_text` scans for)
_TAG_RE = re.compile("|".join(re.escape(tag) for tag in SPECIAL_TAGS))


@dataclass
class TagMapping:
    """The ordered substitutions performed while abstracting one step.

    ``slots`` holds (tag, original text) pairs in the order they appear in
    the abstracted sentence, which is all that is needed to restore them.
    """

    slots: list[tuple[str, str]] = field(default_factory=list)

    def add(self, tag: str, value: str) -> str:
        self.slots.append((tag, value))
        return tag

    def values_for(self, tag: str) -> list[str]:
        return [value for slot_tag, value in self.slots if slot_tag == tag]


def abstract_step_text(
    text: str,
    relations: list[str] | None = None,
    filter_condition: str | None = None,
    join_condition: str | None = None,
    group_keys: list[str] | None = None,
    sort_keys: list[str] | None = None,
    index_name: str | None = None,
) -> tuple[str, TagMapping]:
    """Replace schema-dependent fragments of a narration step with tags.

    Returns the abstracted sentence plus the mapping needed to restore it.
    Longer fragments are replaced first so that nested occurrences (a column
    name inside a predicate) do not clip the longer phrase.
    """
    mapping = TagMapping()
    replacements: list[tuple[str, str]] = []
    if join_condition:
        replacements.append((join_condition, "<C>"))
    if filter_condition:
        replacements.append((filter_condition, "<F>"))
    for key in sort_keys or []:
        replacements.append((key, "<A>"))
    for key in group_keys or []:
        replacements.append((key, "<G>"))
    if index_name:
        replacements.append((index_name, "<I>"))
    for relation in relations or []:
        replacements.append((relation, "<T>"))

    abstracted = text
    for original, tag in sorted(replacements, key=lambda pair: len(pair[0]), reverse=True):
        if original and original in abstracted:
            abstracted = abstracted.replace(original, tag)
            mapping.add(tag, original)

    def replace_intermediate(match: re.Match[str]) -> str:
        mapping.add("<TN>", match.group())
        return "<TN>"

    abstracted = _INTERMEDIATE_RE.sub(replace_intermediate, abstracted)
    return abstracted, mapping


def restore_step_text(abstracted: str, mapping: TagMapping) -> str:
    """Invert :func:`abstract_step_text` using the recorded slot order."""
    counters: dict[str, int] = {}
    result: list[str] = []
    position = 0
    for match in _TAG_RE.finditer(abstracted):
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


def contains_tags(text: str) -> bool:
    """Whether any Table 1 tag remains in ``text``."""
    return any(tag in text for tag in SPECIAL_TAGS)
