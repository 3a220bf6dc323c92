"""Batched beam-search parity and the act-signature decode cache.

The contract under test: the fused decoder (`beam_decode_batch`, where one
act is a batch of one) must produce token-for-token the same output as the
unbatched reference decoder (`beam_decode_candidates_sequential` in
`tests/oracles/seq2seq.py`) at a fixed seed, and caching must preserve the
exposure-based cycling through ranked beam alternatives.
"""

import numpy as np
import pytest

from oracles.seq2seq import beam_decode_candidates_sequential
from repro.core.acts import Act
from repro.core.narration import NarrationStep
from repro.nlg.cache import DecodeCache, make_key
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.vocab import Vocabulary


@pytest.fixture(scope="module")
def tiny_model() -> QEP2Seq:
    """A fixed-seed (untrained) model: decoding is still fully deterministic."""
    input_vocabulary = Vocabulary([f"op{i}" for i in range(10)] + ["<T>", "<F>", "<TN>"])
    output_vocabulary = Vocabulary([f"word{i}" for i in range(24)])
    return QEP2Seq(
        input_vocabulary,
        output_vocabulary,
        Seq2SeqConfig(hidden_dim=20, attention_dim=10, max_decode_length=14, seed=11),
    )


@pytest.fixture(scope="module")
def tiny_sources() -> list[list[str]]:
    rng = np.random.default_rng(29)
    sources = []
    for _ in range(7):
        length = int(rng.integers(2, 6))
        sources.append([f"op{int(rng.integers(0, 10))}" for _ in range(length)] + ["<TN>"])
    return sources


class TestBatchedBeamParity:
    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_single_act_matches_sequential(self, tiny_model, tiny_sources, beam_size):
        for source in tiny_sources:
            sequential = beam_decode_candidates_sequential(tiny_model, source, beam_size=beam_size)
            batched = tiny_model.beam_decode_batch([source], beam_size=beam_size)[0]
            assert batched == sequential

    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_plan_batch_matches_per_act_decode(self, tiny_model, tiny_sources, beam_size):
        batched = tiny_model.beam_decode_batch(tiny_sources, beam_size=beam_size)
        sequential = [
            beam_decode_candidates_sequential(tiny_model, source, beam_size=beam_size)
            for source in tiny_sources
        ]
        assert batched == sequential

    def test_greedy_decode_goes_through_batched_path(self, tiny_model, tiny_sources):
        for source in tiny_sources:
            assert (
                tiny_model.beam_decode_batch([source], beam_size=1)[0][0]
                == beam_decode_candidates_sequential(tiny_model, source, beam_size=1)[0]
            )

    def test_trained_model_parity(self, trained_neural):
        """Parity must also hold on a genuinely trained model (realistic logits)."""
        samples = trained_neural.dataset.validation_samples[:6]
        sources = [sample.source_tokens for sample in samples]
        batched = trained_neural.model.beam_decode_batch(sources, beam_size=4)
        for source, candidates in zip(sources, batched):
            assert candidates == beam_decode_candidates_sequential(
                trained_neural.model, source, beam_size=4
            )

    def test_empty_batch(self, tiny_model):
        assert tiny_model.beam_decode_batch([]) == []


def _decode_with_join(model, first, second, offset, beam_size):
    """Decode ``first`` through the joinable search, with ``second`` joining
    after ``offset`` steps (0: both enter at the first boundary).  Returns
    every act's candidates in entry order, and the number of feed calls."""
    results: dict = {}
    calls = []

    def feed(retired):
        results.update(retired)
        calls.append(len(retired))
        call = len(calls) - 1
        return (list(first) if call == 0 else []) + (list(second) if call == offset else [])

    assert model.beam_decode_batch([], beam_size=beam_size, feed=feed) == []
    return [results[index] for index in range(len(first) + len(second))], len(calls)


@pytest.fixture(scope="module", params=["none", "int8", "float16"])
def precision_model(request) -> QEP2Seq:
    """The tiny model's architecture at each inference precision."""
    input_vocabulary = Vocabulary([f"op{i}" for i in range(10)] + ["<T>", "<F>", "<TN>"])
    output_vocabulary = Vocabulary([f"word{i}" for i in range(24)])
    return QEP2Seq(
        input_vocabulary,
        output_vocabulary,
        Seq2SeqConfig(
            hidden_dim=20, attention_dim=10, max_decode_length=14, seed=11,
            quantize=request.param,
        ),
    )


class TestJoinableSearch:
    """Acts that join a running search decode exactly as they would alone."""

    @pytest.mark.parametrize("long_act_joins", [True, False])
    @pytest.mark.parametrize("beam_size", [1, 2, 4])
    def test_join_at_every_step_offset(
        self, precision_model, tiny_sources, beam_size, long_act_joins
    ):
        # one act is longer than every other: when it joins, the join widens
        # the padded encoder rows; when it runs, a join keeps them wide and
        # narrows them once it has left
        long_act = [[f"op{i % 10}" for i in range(11)]]
        first, second = tiny_sources[:4], tiny_sources[4:]
        if long_act_joins:
            second = second + long_act
        else:
            first = long_act + first
        expected = [
            beam_decode_candidates_sequential(precision_model, source, beam_size=beam_size)
            for source in first + second
        ]
        _, first_calls = _decode_with_join(precision_model, first, [], -1, beam_size)
        # offsets 0 .. the first group's last boundary, where nothing is
        # live any more and the second group restarts the search
        for offset in range(first_calls):
            decoded, _ = _decode_with_join(precision_model, first, second, offset, beam_size)
            assert decoded == expected, f"join after {offset} steps"

    def test_feed_sees_each_act_retire_once(self, tiny_model, tiny_sources):
        seen: list[int] = []
        joined: list[bool] = []

        def feed(retired):
            seen.extend(index for index, _ in retired)
            if seen and not joined:
                joined.append(True)
                return [tiny_sources[-1]]
            return []

        assert tiny_model.beam_decode_batch(tiny_sources, beam_size=2, feed=feed) == []
        assert sorted(seen) == list(range(len(tiny_sources) + 1))

    def test_decode_counters(self, tiny_sources):
        model = QEP2Seq(
            Vocabulary([f"op{i}" for i in range(10)] + ["<T>", "<F>", "<TN>"]),
            Vocabulary([f"word{i}" for i in range(24)]),
            Seq2SeqConfig(hidden_dim=8, attention_dim=4, max_decode_length=6, seed=3),
        )
        assert model.decode_stats() == {"steps": 0, "rows": 0, "joins": 0}
        _decode_with_join(model, tiny_sources[:3], tiny_sources[3:5], 2, 2)
        stats = model.decode_stats()
        assert stats["joins"] == 5  # all five entered through the feed
        assert 0 < stats["steps"] <= 2 * 6
        assert stats["steps"] <= stats["rows"] <= 2 * 5 * stats["steps"]

    @pytest.mark.parametrize("beam_size", [8, 30])
    def test_wide_beams_match_sequential(self, tiny_model, tiny_sources, beam_size):
        """The lean step at K = 8, and at K past the vocabulary (the full
        argsort branch of the top-k)."""
        batched = tiny_model.beam_decode_batch(tiny_sources, beam_size=beam_size)
        assert batched == [
            beam_decode_candidates_sequential(tiny_model, source, beam_size=beam_size)
            for source in tiny_sources
        ]


class TestDecodeCache:
    def test_lru_eviction_and_counters(self):
        cache = DecodeCache(max_size=2)
        key_a, key_b, key_c = (("a",), 2), (("b",), 2), (("c",), 2)
        assert cache.get(key_a) is None
        cache.put(key_a, [["x"]])
        cache.put(key_b, [["y"]])
        assert cache.get(key_a) == [["x"]]  # refreshes a's LRU position
        cache.put(key_c, [["z"]])  # evicts b, the least recently used
        assert key_b not in cache
        assert cache.get(key_b) is None
        assert cache.get(key_a) == [["x"]]
        assert cache.get(key_c) == [["z"]]
        assert cache.hits == 3 and cache.misses == 2
        assert cache.stats()["hit_rate"] == pytest.approx(3 / 5)

    def test_disabled_cache_never_stores(self):
        cache = DecodeCache(max_size=8, enabled=False)
        cache.put((("a",), 1), [["x"]])
        assert len(cache) == 0
        assert cache.get((("a",), 1)) is None
        assert cache.misses == 1

    def test_hit_returns_fresh_lists(self):
        cache = DecodeCache()
        key = make_key(["a", "b"], 2)
        cache.put(key, [["x", "y"]])
        first = cache.get(key)
        first[0].append("mutated")
        assert cache.get(key) == [["x", "y"]]


def _act_and_step(index: int = 0) -> tuple[Act, NarrationStep]:
    act = Act(operators=["Seq Scan"], relations=["publication"], has_filter=True)
    step = NarrationStep(
        index=index,
        text="the publication table is scanned",
        operator_names=["Seq Scan"],
        relations=["publication"],
        filter_condition="year > 2010",
    )
    return act, step


class TestCachedGeneration:
    def test_cache_hit_preserves_candidate_cycling(self, tiny_model):
        """Repeated exposures must cycle through ranked beam alternatives
        even when every decode after the first is a cache hit."""
        lantern = NeuralLantern(tiny_model, beam_size=4)
        act, step = _act_and_step()
        uncached = NeuralLantern(tiny_model, beam_size=4, cache_enabled=False)
        cycle_length = len(tiny_model.beam_decode_batch([act.input_tokens()], beam_size=4)[0])
        exposures = cycle_length + 2
        cached_outputs = [lantern.translate_step(act, step) for _ in range(exposures)]
        uncached_outputs = [uncached.translate_step(act, step) for _ in range(exposures)]
        assert cached_outputs == uncached_outputs
        if cycle_length > 1:
            assert len(set(cached_outputs)) > 1  # wording actually varies
        assert cached_outputs[0] == cached_outputs[cycle_length]  # and cycles
        assert lantern.decode_cache.misses == 1
        assert lantern.decode_cache.hits == exposures - 1

    def test_translate_steps_matches_per_step_hook(self, tiny_model):
        acts_steps = [_act_and_step(i) for i in range(4)]
        acts = [act for act, _ in acts_steps]
        steps = [step for _, step in acts_steps]
        batched_lantern = NeuralLantern(tiny_model, beam_size=3)
        looped_lantern = NeuralLantern(tiny_model, beam_size=3)
        batched = batched_lantern.translate_steps(acts, steps)
        looped = [looped_lantern.translate_step(act, step) for act, step in acts_steps]
        assert batched == looped
        # four identical act signatures: every lookup missed the (empty)
        # cache, but in-plan dedup means only ONE signature was decoded
        assert batched_lantern.decode_cache.misses == 4
        assert batched_lantern.decode_cache.hits == 0
        assert len(batched_lantern.decode_cache) == 1
        # a second identical plan is now served entirely from the cache
        batched_lantern.translate_steps(acts, steps)
        assert batched_lantern.decode_cache.hits == 4

    def test_lantern_config_cache_knobs_reach_the_generator(self, tiny_model, poem_store):
        from repro.core.lantern import Lantern, LanternConfig

        neural = NeuralLantern(tiny_model, beam_size=2)
        Lantern(
            store=poem_store,
            neural=neural,
            config=LanternConfig(decode_cache_size=3, decode_cache_enabled=False),
        )
        assert neural.decode_cache.max_size == 3
        assert not neural.decode_cache.enabled

    def test_describe_plan_batched_neural_output(self, dblp_db, poem_store, trained_neural):
        """End to end: MODE_NEURAL narration through the batched path equals
        the per-step hook narration (fresh exposure state on both sides)."""
        from repro.core.lantern import Lantern

        sql = (
            "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
            "WHERE i.paper_key = p.pub_key GROUP BY i.venue"
        )
        # snapshot + restore the session fixture's mutable state so this
        # test never changes what later tests observe (order independence)
        exposure_before = dict(trained_neural._act_exposure)
        try:
            batched_facade = Lantern(store=poem_store, neural=trained_neural)
            tree = batched_facade.plan_for_sql(dblp_db, sql)
            trained_neural._act_exposure.clear()
            trained_neural.decode_cache.clear()
            batched = batched_facade.describe_plan(tree, mode="neural")

            trained_neural._act_exposure.clear()
            trained_neural.decode_cache.clear()
            from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts

            rule = batched_facade.describe_plan(tree, mode="rule")
            acts = align_acts_with_narration(decompose_lot_into_acts(rule.lot), rule)
            looped = [
                trained_neural.translate_step(act, step)
                for act, step in zip(acts, rule.steps)
            ]
            assert [step.text for step in batched.steps] == looped
            assert all(step.generator == "neural" for step in batched.steps)
        finally:
            trained_neural.decode_cache.clear()
            trained_neural._act_exposure.clear()
            trained_neural._act_exposure.update(exposure_before)


class TestWordingMemo:
    """Finished texts are kept per (rule step, candidate) on the act, and a
    replaced candidate list is never served the texts of the old one."""

    SQL = (
        "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
        "WHERE i.paper_key = p.pub_key AND p.year > 2001 GROUP BY i.venue"
    )

    def test_replaced_candidates_are_worded_afresh(self, dblp_db, trained_neural):
        from repro.core.lantern import Lantern, LanternConfig
        from repro.nlg.tokenizer import detokenize

        neural = NeuralLantern(trained_neural.model, beam_size=2)
        facade = Lantern(neural=neural, config=LanternConfig(seed=None))
        tree = facade.plan_for_sql(dblp_db, self.SQL)
        facade.describe_plan(tree, mode="neural")  # cold: decodes every signature
        warm = facade.describe_plan(tree, mode="neural")
        ((_, memo_entry),) = facade._rule_memo._entries.items()
        acts = memo_entry.acts
        target = acts[0]
        positions = [i for i, act in enumerate(acts) if act.key == target.key]
        replacement = [["the", "first", "new", "wording", "of", "<T>"], ["a", "second", "one"]]
        cache = neural.decode_cache
        cache.import_rows(
            [[list(target.signature), 2, trained_neural.model.precision, replacement]],
            legacy_precision=trained_neural.model.precision,
        )
        for _ in range(3):  # the new list is used, then cycled through
            exposure = neural._act_exposure[target.key]
            lookups = cache.hits + cache.misses
            narration = facade.describe_plan(tree, mode="neural")
            assert cache.hits + cache.misses == lookups + len(acts)
            for offset, position in enumerate(positions):
                step = memo_entry.steps[position]
                chosen = replacement[(exposure + offset) % len(replacement)]
                expected = neural._finalize(detokenize(chosen), step)
                assert narration.steps[position].text == expected
                assert narration.steps[position].text != warm.steps[position].text

    def test_texts_are_kept_per_rule_step(self, tiny_model):
        neural = NeuralLantern(tiny_model, beam_size=1)
        act, step = _act_and_step()
        _, other = _act_and_step()
        other.relations = ["inproceedings"]
        other.filter_condition = "venue = 'VLDB'"
        reference = NeuralLantern(tiny_model, beam_size=1)
        for rule_step in (step, other, step, other):
            text = neural.translate_step(act, rule_step)
            fresh_act, _ = _act_and_step()  # same structure, no kept texts
            assert text == reference.translate_step(fresh_act, rule_step)
        assert act.wordings is not None and act.wordings[0] is other

    def test_a_repeated_act_is_worded_once_per_candidate(self, tiny_model, monkeypatch):
        neural = NeuralLantern(tiny_model, beam_size=3)
        act, step = _act_and_step()
        calls = []
        finalize = neural._finalize
        monkeypatch.setattr(
            neural, "_finalize", lambda text, rule_step: calls.append(text) or finalize(text, rule_step)
        )
        texts = [neural.translate_step(act, step) for _ in range(9)]
        candidates = [c for c in tiny_model.beam_decode_batch([act.input_tokens()], beam_size=3)[0] if c]
        assert len(calls) == len({tuple(c) for c in candidates})
        assert texts[: len(candidates)] == texts[len(candidates) : 2 * len(candidates)]

