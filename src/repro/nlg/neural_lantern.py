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
  (:meth:`repro.nlg.seq2seq.QEP2Seq.beam_decode_batch`).  Streaming calls
  let the acts of later plans join that decode between steps.
* **Act-signature caching** — ranked beam candidates are memoized in an LRU
  :class:`repro.nlg.cache.DecodeCache` keyed on the tag-abstracted act token
  sequence.  Because the *entire ranked list* is cached, the exposure-based
  cycling through beam alternatives (wording variability) survives cache
  hits unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.acts import Act
from repro.core.lantern import StepFeed
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
        self,
        acts: Sequence[Act],
        rule_steps: Sequence[NarrationStep],
        feed: Optional[StepFeed] = None,
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

        With ``feed`` the call streams.  At every decode step boundary it
        calls ``feed(texts)`` with the texts finished since the last call,
        in act order, and the feed answers with more ``(acts, rule_steps)``
        to admit, or ``None`` when none arrived.  Admitted acts are
        looked up in the cache, deduplicated against signatures still in
        flight, and the rest join the running decode.  Texts are picked
        strictly in admission order, so wording cycles exactly as in
        sequential calls.  Texts not handed to the feed are returned.
        """
        beam_size = self._effective_beam_size()
        run = _Translation(self, beam_size)
        sources = run.admit(acts, rule_steps)
        if feed is None:
            if sources:
                run.absorb(enumerate(self.model.beam_decode_batch(sources, beam_size=beam_size)))
            return run.pick()

        def boundary(retired: list[tuple[int, list[list[str]]]]) -> list[list[str]]:
            run.absorb(retired)
            while True:
                arrivals = feed(run.pick())
                if arrivals is None:
                    return []
                joining = run.admit(*arrivals)
                if joining:
                    return joining

        if not sources:
            sources = boundary([])
        if sources:
            self.model.beam_decode_batch(sources, beam_size=beam_size, feed=boundary)
        return run.pick()

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



class _Translation:
    """The acts of one :meth:`NeuralLantern.translate_steps` call that are
    admitted but not yet translated, in admission order.

    ``resolved`` maps each signature those acts need to its ranked
    candidates, or to ``None`` while its decode is in flight; ``waiting``
    counts the acts per signature, so an entry is dropped with its last act
    and a streaming call holds only what is in flight.
    """

    def __init__(self, neural: NeuralLantern, beam_size: int) -> None:
        self.neural = neural
        self.beam_size = beam_size
        self.precision = neural.model.precision
        self.queue: deque[tuple[Act, NarrationStep, tuple]] = deque()
        self.resolved: dict[tuple, Optional[list[list[str]]]] = {}
        self.waiting: dict[tuple, int] = {}
        self.decoding: dict[int, tuple] = {}
        self.entered = 0

    def admit(
        self, acts: Sequence[Act], rule_steps: Sequence[NarrationStep]
    ) -> list[list[str]]:
        """Queue acts; returns the sources that need a decode, which the
        search indexes from ``entered`` on."""
        if len(acts) != len(rule_steps):
            raise NLGError("translate_steps needs one rule step per act")
        lookup = self.neural.decode_cache.get
        resolved, waiting = self.resolved, self.waiting
        sources: list[list[str]] = []
        # every act is looked up through the cache, so the hit/miss counters
        # reflect exactly the lookups the cache served: duplicates of a
        # still-pending decode count as misses (they are served by the
        # in-flight dedup, not by the cache)
        for act, rule_step in zip(acts, rule_steps):
            source = act.input_tokens()
            key = make_key(source, self.beam_size, self.precision)
            self.queue.append((act, rule_step, key))
            waiting[key] = waiting.get(key, 0) + 1
            cached = lookup(key)
            if cached is not None:
                resolved[key] = cached
            elif key not in resolved:
                resolved[key] = None
                self.decoding[self.entered + len(sources)] = key
                sources.append(source)
        self.entered += len(sources)
        return sources

    def absorb(self, retired: Iterable[tuple[int, list[list[str]]]]) -> None:
        """Take decoded candidates in: cache them and resolve their acts."""
        for index, candidates in retired:
            key = self.decoding.pop(index)
            self.neural.decode_cache.put(key, candidates)
            if key in self.waiting:
                self.resolved[key] = candidates

    def pick(self) -> list[str]:
        """Translate the queue's resolved head, in admission order."""
        texts: list[str] = []
        neural, queue, resolved, waiting = self.neural, self.queue, self.resolved, self.waiting
        while queue:
            act, rule_step, key = queue[0]
            candidates = resolved[key]
            if candidates is None:
                break
            queue.popleft()
            texts.append(neural._finalize(neural._pick_candidate(act, candidates), rule_step))
            if waiting[key] > 1:
                waiting[key] -= 1
            else:
                del waiting[key], resolved[key]
        return texts
