"""Narration data model (paper §5.1).

Following El Outa et al.'s four-layered narration model, a narration of a QEP
consists of a *factual* layer (the language-annotated operator tree), an
*intentional* layer (the content selected for each operator), a *structural*
layer (the ordered sequence of steps), and a *presentation* layer (how the
steps are shown — see :mod:`repro.core.presentation`).  This module defines
the structural-layer objects that the rest of the system exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.lot import LanguageAnnotatedTree


@dataclass
class NarrationStep:
    """One sentence of the narration, tied to the operators it describes."""

    index: int
    text: str
    operator_names: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)
    filter_condition: Optional[str] = None
    join_condition: Optional[str] = None
    index_name: Optional[str] = None
    group_keys: list[str] = field(default_factory=list)
    sort_keys: list[str] = field(default_factory=list)
    intermediate: Optional[str] = None
    is_final: bool = False
    generator: str = "rule"

    @property
    def token_count(self) -> int:
        return len(self.text.split())


@dataclass
class Narration:
    """The full natural-language description of one QEP."""

    steps: list[NarrationStep]
    source: str = "postgresql"
    query_text: str = ""
    lot: Optional[LanguageAnnotatedTree] = None
    generator: str = "rule"

    @property
    def text(self) -> str:
        """The document-style narration: one sentence per step."""
        return " ".join(step.text for step in self.steps)

    @property
    def token_count(self) -> int:
        return sum(step.token_count for step in self.steps)

# Layer descriptions, kept as data so documentation/examples can introspect the
# model rather than hard-coding strings.
NARRATION_LAYERS: dict[str, str] = {
    "factual": "models the QEP as a language-annotated operator tree",
    "intentional": "selects the content describing each operator for comprehension",
    "structural": "organizes the plot as an ordered sequence of steps",
    "presentation": "renders the story to the audience (document text or annotated tree)",
}
