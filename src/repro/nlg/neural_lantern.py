"""NEURAL-LANTERN: the neural description generator (paper §6).

The facade wraps a trained QEP2Seq model and plugs into
:class:`repro.core.Lantern` through the ``translate_steps`` hook: it serializes
the act, decodes an abstracted sentence with beam search, and restores the
Table 1 tags from the corresponding rule-generated step, so that relation
names, predicates and intermediate-result identifiers stay exact while the
wording varies.

Two mechanisms keep response times interactive at scale (the Table 6
bottleneck):

* **Plan-level batching** — :meth:`NeuralLantern.translate_steps` translates
  every neural-bound act of a plan in one call, encoding all acts in a single
  padded encoder forward and decoding all their beams as one fused tensor
  (:meth:`repro.nlg.seq2seq.QEP2Seq.beam_decode_batch`).
* **Act-signature caching** — ranked beam candidates are memoized in an LRU
  :class:`repro.nlg.cache.DecodeCache` keyed on the tag-abstracted act token
  sequence.  Because the *entire ranked list* is cached, the exposure-based
  cycling through beam alternatives (wording variability) survives cache
  hits unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.acts import Act
from repro.core.narration import NarrationStep
from repro.errors import NLGError
from repro.nlg.cache import DEFAULT_CACHE_SIZE, DecodeCache, make_key
from repro.nlg.dataset import TrainingDataset, abstract_step, build_dataset
from repro.nlg.embeddings.registry import build_embedding_matrix
from repro.nlg.metrics import corpus_bleu
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.tokenizer import detokenize, tokenize
from repro.nlg.training import Trainer, TrainingHistory
from repro.core.tags import restore_step_text


@dataclass
class NeuralLanternResult:
    """Everything produced by :meth:`NeuralLantern.fit`."""

    history: TrainingHistory
    dataset: TrainingDataset


class NeuralLantern:
    """The trained neural generator.

    The decode cache is keyed on (act signature, beam size, model
    precision) only — it does not observe the model's weights.  If you
    continue training the wrapped model after generating narrations, call
    ``self.decode_cache.clear()`` so stale pre-training candidates are not
    served.  (The precision component means toggling quantization never
    serves candidates decoded under a different numeric grid.)
    """

    def __init__(
        self,
        model: QEP2Seq,
        dataset: Optional[TrainingDataset] = None,
        beam_size: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_enabled: bool = True,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.beam_size = beam_size
        self._act_exposure: dict[str, int] = {}
        self.decode_cache = DecodeCache(max_size=cache_size, enabled=cache_enabled)

    # ------------------------------------------------------------------
    # construction / training
    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        workloads: Sequence[tuple[object, Sequence[str], str, str]],
        config: Optional[Seq2SeqConfig] = None,
        embedding_family: Optional[str] = None,
        pretrained_embeddings: bool = True,
        paraphrase: bool = True,
        epochs: int = 20,
        embedding_epochs: int = 2,
        seed: int = 7,
    ) -> tuple["NeuralLantern", NeuralLanternResult]:
        """Build the dataset, (optionally) pre-train embeddings, and train QEP2Seq."""
        dataset = build_dataset(workloads, paraphrase=paraphrase, seed=seed)
        if not dataset.train_samples:
            raise NLGError("the training dataset is empty")
        config = config if config is not None else Seq2SeqConfig()
        decoder_matrix = None
        if embedding_family is not None:
            config.embedding_name = embedding_family
            decoder_matrix = build_embedding_matrix(
                embedding_family,
                dataset.output_vocabulary,
                dataset.rule_sentences,
                pretrained=pretrained_embeddings,
                epochs=embedding_epochs,
                seed=seed,
            )
        model = QEP2Seq(
            dataset.input_vocabulary,
            dataset.output_vocabulary,
            config=config,
            decoder_pretrained=decoder_matrix,
        )
        trainer = Trainer(model, dataset.train_samples, dataset.validation_samples, seed=seed)
        history = trainer.train(epochs=epochs)
        return cls(model, dataset=dataset), NeuralLanternResult(history=history, dataset=dataset)

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------

    def configure_cache(
        self, size: Optional[int] = None, enabled: Optional[bool] = None
    ) -> None:
        """Adjust the decode cache (wired from ``LanternConfig`` knobs)."""
        self.decode_cache.configure(max_size=size, enabled=enabled)

    def _effective_beam_size(self) -> int:
        """The beam size actually used to decode (and to key the cache).

        Resolving ``None`` → the model's configured default *before* keying
        means ``NeuralLantern(model)`` and ``NeuralLantern(model,
        beam_size=model.config.beam_size)`` share cache entries, and a later
        change to ``model.config.beam_size`` can never serve stale candidate
        lists decoded under the old width.
        """
        return self.beam_size or self.model.config.beam_size

    def _ranked_candidates(self, source_tokens: list[str], beam_size: int) -> list[list[str]]:
        """Cached ranked beam candidates for one act signature."""
        key = make_key(source_tokens, beam_size, self.model.precision)
        cached = self.decode_cache.get(key)
        if cached is not None:
            return cached
        candidates = self.model.beam_decode_candidates(source_tokens, beam_size=beam_size)
        self.decode_cache.put(key, candidates)
        return candidates

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate_abstracted(self, act: Act) -> str:
        """Decode the tag-abstracted sentence for one act.

        When the same act structure recurs within a session, successive calls
        cycle through the surviving beam hypotheses, so repeated operators are
        described with varied wording (the anti-habituation behaviour of §6).
        """
        candidates = self._ranked_candidates(act.input_tokens(), self._effective_beam_size())
        return self._pick_candidate(act, candidates)

    def _pick_candidate(self, act: Act, candidates: list[list[str]]) -> str:
        candidates = [tokens for tokens in candidates if tokens]
        if not candidates:
            raise NLGError("the decoder produced an empty description")
        exposure = self._act_exposure.get(act.key, 0)
        self._act_exposure[act.key] = exposure + 1
        return detokenize(candidates[exposure % len(candidates)])

    def translate_step(self, act: Act, rule_step: NarrationStep) -> str:
        """Translate one step: :meth:`translate_steps` on a batch of one."""
        return self.translate_steps([act], [rule_step])[0]

    def translate_steps(
        self, acts: Sequence[Act], rule_steps: Sequence[NarrationStep]
    ) -> list[str]:
        """The :class:`repro.core.lantern.StepTranslator` hook: translate
        all neural-bound acts of a batch in one call.

        Cache lookups run first; the remaining *distinct* act signatures are
        decoded together through :meth:`QEP2Seq.beam_decode_batch` (one padded
        encoder forward, one fused beam tensor) and inserted into the cache.
        Each step then picks its candidate by exposure (the wording cycle)
        and gets the concrete values (relations, conditions, identifiers) of
        its rule step restored, so the output text is identical to
        translating the steps one at a time.
        """
        if len(acts) != len(rule_steps):
            raise NLGError("translate_steps needs one rule step per act")
        beam_size = self._effective_beam_size()
        precision = self.model.precision
        sources = [act.input_tokens() for act in acts]
        keys = [make_key(source, beam_size, precision) for source in sources]
        resolved: dict = {}
        pending_keys: list = []
        pending_sources: list[list[str]] = []
        # every per-act signature is looked up through the cache, so the
        # hit/miss counters reflect exactly the lookups the cache served:
        # in-plan duplicates of a still-pending decode count as misses (they
        # are served by the in-call dedup below, not by the cache)
        for key, source in zip(keys, sources):
            cached = self.decode_cache.get(key)
            if cached is not None:
                resolved[key] = cached
            elif key not in resolved:
                resolved[key] = None
                pending_keys.append(key)
                pending_sources.append(source)
        if pending_sources:
            decoded = self.model.beam_decode_batch(pending_sources, beam_size=beam_size)
            for key, candidates in zip(pending_keys, decoded):
                self.decode_cache.put(key, candidates)
                resolved[key] = candidates
        return [
            self._finalize(self._pick_candidate(act, resolved[key]), rule_step)
            for act, rule_step, key in zip(acts, rule_steps, keys)
        ]

    def _finalize(self, abstracted: str, rule_step: NarrationStep) -> str:
        """Restore concrete values into an abstracted sentence and punctuate."""
        _, mapping = abstract_step(rule_step)
        restored = restore_step_text(abstracted, mapping)
        restored = self._fill_unresolved_tags(restored, rule_step)
        restored = restored.strip()
        if not restored.endswith("."):
            restored += "."
        return restored

    @staticmethod
    def _fill_unresolved_tags(text: str, rule_step: NarrationStep) -> str:
        """Replace tags the decoder emitted but the rule step has no value for.

        These correspond to the "wrong token" errors audited in Exp 5 — the
        sentence stays readable, with a neutral phrase in place of the tag.
        """
        fallbacks = {
            "<T>": rule_step.intermediate or (rule_step.relations[0] if rule_step.relations else "its input"),
            "<TN>": rule_step.intermediate or "the intermediate relation",
            "<F>": rule_step.filter_condition or "the specified condition",
            "<C>": rule_step.join_condition or "the specified condition",
            "<A>": ", ".join(rule_step.sort_keys) or "the specified attribute",
            "<G>": ", ".join(rule_step.group_keys) or "the specified attribute",
            "<I>": rule_step.index_name or "the index",
        }
        for tag, replacement in fallbacks.items():
            if tag in text:
                text = text.replace(tag, replacement)
        return text

    # ------------------------------------------------------------------
    # persistence (LANTERN-PERSIST)
    # ------------------------------------------------------------------

    def save(self, path, include_cache: bool = True, weights_layout: str = "npz"):
        """Checkpoint this generator (weights, vocabularies, beam size,
        wording-cycle exposures, optionally the warm decode cache).

        ``weights_layout="mmap"`` writes the raw zero-copy layout that
        loads by memory-mapping (LANTERN-ZERO warm boot); ``"npz"`` is the
        classic fully-verified archive.  The training ``dataset`` is
        provenance, not serving state, and is not persisted; a loaded
        generator has ``dataset=None``.
        """
        # imported lazily: persistence imports this module at load time
        from repro.nlg.persistence import save_neural_lantern

        return save_neural_lantern(
            self, path, include_cache=include_cache, weights_layout=weights_layout
        )

    @classmethod
    def load(cls, path, verify: bool = False) -> "NeuralLantern":
        """Rebuild a generator from a checkpoint written by :meth:`save`."""
        from repro.nlg.persistence import load_neural_lantern

        return load_neural_lantern(path, verify=verify)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    def test_bleu(self, samples, beam_size: Optional[int] = None) -> float:
        """Corpus BLEU of decoded outputs against ground-truth target tokens."""
        samples = list(samples)
        if not samples:
            return 0.0
        ranked = self.model.beam_decode_batch(
            [sample.source_tokens for sample in samples],
            beam_size=beam_size or self.beam_size,
        )
        candidates = [candidate_list[0] for candidate_list in ranked]
        references = [sample.target_tokens for sample in samples]
        return corpus_bleu(candidates, references)

    def token_error_profile(
        self,
        samples,
        beam_size: Optional[int] = None,
        allow_paraphrases: bool = True,
    ) -> dict[str, int]:
        """Exp 5: how many test samples decode perfectly / with 1 wrong token / worse.

        The paper's audit judged *semantic* correctness, so by default a
        decoded sentence is scored against the reference **and** its accepted
        paraphrases (any of the wordings the training data treats as correct),
        taking the smallest token-error count.  Set ``allow_paraphrases=False``
        for strict exact-reference matching.
        """
        from repro.nlg.metrics import token_error_count
        from repro.nlg.paraphrase import ParaphraseEngine

        samples = list(samples)
        engine = ParaphraseEngine() if allow_paraphrases else None
        profile = {"correct": 0, "one_wrong_token": 0, "several_wrong_tokens": 0}
        if not samples:
            return profile
        ranked = self.model.beam_decode_batch(
            [sample.source_tokens for sample in samples],
            beam_size=beam_size or self.beam_size,
        )
        for sample, candidate_list in zip(samples, ranked):
            decoded = candidate_list[0]
            references = [sample.target_tokens]
            if engine is not None:
                references.extend(
                    tokenize(paraphrase)
                    for paraphrase in engine.expand(sample.abstracted_text).paraphrases
                )
            errors = min(token_error_count(decoded, reference) for reference in references)
            if errors == 0:
                profile["correct"] += 1
            elif errors == 1:
                profile["one_wrong_token"] += 1
            else:
                profile["several_wrong_tokens"] += 1
        return profile
