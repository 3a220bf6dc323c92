"""The output check: what a correct narration is when wording depends on arrival order.

Neural wording legitimately varies between runs: ``NeuralLantern`` cycles
through beam alternatives per act exposure, and mode ``auto`` switches an
operator to neural only after enough sightings, counted separately by each
fleet worker.  So responses are not compared with golden text.  Each one is
compared with a reference facade built from the same checkpoint:

* same step count, and per step the same ``operator_names``, ``relations``
  and ``is_final`` as the reference rule narration;
* a ``rule`` step's text equals the reference rule text;
* a ``neural`` step's text is one of that act's admissible texts, collected
  by calling the reference ``translate_step`` once per beam position;
* mode ``rule`` yields no neural step and mode ``neural`` no rule step.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from repro.core import Lantern, LanternConfig
from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts


class Reference:
    """Expected narrations for a pool of plan payloads, computed lazily."""

    def __init__(self, checkpoint: Optional[Path]) -> None:
        if checkpoint is None:
            self.lantern = Lantern(config=LanternConfig(seed=None))
        else:
            self.lantern = Lantern.load(checkpoint)
        neural = self.lantern.neural
        self.beam_size = 0
        if neural is not None:
            self.beam_size = neural.beam_size or neural.model.config.beam_size
            # candidates do not depend on the cache; it only spares the
            # reference from decoding an act once per beam position
            neural.configure_cache(enabled=True)
        self._rule: dict[int, tuple[list[Any], list[Any]]] = {}
        self._admissible: dict[tuple[int, int], set[str]] = {}

    def rule_steps(self, index: int, payload: Any) -> tuple[list[Any], list[Any]]:
        """(reference rule steps, their acts) for one payload."""
        if index not in self._rule:
            narration = self.lantern.describe_plan(self.lantern.parse_plan(payload), mode="rule")
            acts = align_acts_with_narration(decompose_lot_into_acts(narration.lot), narration)
            self._rule[index] = (list(narration.steps), acts)
        return self._rule[index]

    def admissible(self, index: int, payload: Any, position: int) -> set[str]:
        key = (index, position)
        if key not in self._admissible:
            steps, acts = self.rule_steps(index, payload)
            texts = set()
            if self.lantern.neural is not None and position < len(acts):
                for _ in range(self.beam_size):
                    texts.add(self.lantern.neural.translate_step(acts[position], steps[position]))
            self._admissible[key] = texts
        return self._admissible[key]

    def mismatch(self, index: int, payload: Any, mode: str, body: dict[str, Any]) -> Optional[str]:
        """Why ``body`` is not a correct ``mode`` narration of the payload
        (None when it is)."""
        if body.get("mode") != mode:
            return f"mode {body.get('mode')!r} answered for {mode!r}"
        got = body.get("narration", {}).get("steps", [])
        expected, _ = self.rule_steps(index, payload)
        if len(got) != len(expected):
            return f"{len(got)} steps, reference has {len(expected)}"
        for position, (step, reference) in enumerate(zip(got, expected)):
            if (
                step.get("operator_names") != list(reference.operator_names)
                or step.get("relations") != list(reference.relations)
                or step.get("is_final") != reference.is_final
            ):
                return f"step {position}: operators, relations or finality differ"
            generator = step.get("generator")
            if generator == "rule":
                if mode == "neural":
                    return f"step {position}: rule step under mode neural"
                if step.get("text") != reference.text:
                    return f"step {position}: rule text differs from the reference"
            elif generator == "neural":
                if mode == "rule":
                    return f"step {position}: neural step under mode rule"
                if step.get("text") not in self.admissible(index, payload, position):
                    return f"step {position}: neural text is not an admissible candidate"
            else:
                return f"step {position}: unknown generator {generator!r}"
        return None
