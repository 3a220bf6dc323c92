"""Tests for the QEP2Seq model, the dataset builder, training, and NEURAL-LANTERN integration."""

import numpy as np
import pytest

from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts
from repro.core.lantern import Lantern
from repro.core.tags import contains_tags
from repro.nlg.dataset import abstract_step, build_dataset, samples_for_database
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.training import Trainer
from repro.nlg.vocab import Vocabulary


def _copy_task_samples():
    """A tiny synthetic task: copy the source tokens — ideal for convergence tests."""
    from repro.nlg.dataset import TrainingSample

    tokens = ["alpha", "beta", "gamma", "delta"]
    samples = []
    for first in tokens:
        for second in tokens:
            samples.append(
                TrainingSample(
                    source_tokens=[first, second],
                    target_tokens=[first, second],
                    abstracted_text=f"{first} {second}",
                )
            )
    return samples


class TestQEP2SeqModel:
    def test_default_config_matches_paper(self):
        config = Seq2SeqConfig()
        assert config.hidden_dim == 256
        assert config.encoder_embedding_dim == 16
        assert config.decoder_embedding_dim == 32
        assert config.batch_size == 4
        assert config.learning_rate == 0.001
        assert config.beam_size == 4

    def test_parameter_count_scales_with_embedding_dimension(self):
        input_vocabulary = Vocabulary([f"i{i}" for i in range(30)])
        output_vocabulary = Vocabulary([f"o{i}" for i in range(56)])
        small = QEP2Seq(input_vocabulary, output_vocabulary, Seq2SeqConfig(hidden_dim=64, decoder_embedding_dim=32))
        pretrained = np.zeros((len(output_vocabulary), 128))
        large = QEP2Seq(
            input_vocabulary, output_vocabulary,
            Seq2SeqConfig(hidden_dim=64), decoder_pretrained=pretrained,
        )
        assert large.parameter_count() > small.parameter_count()
        _, decoder_small = small.recurrent_connection_counts()
        _, decoder_large = large.recurrent_connection_counts()
        assert decoder_large > decoder_small

    def test_weight_sharing_uses_one_lstm(self):
        input_vocabulary = Vocabulary(["a", "b"])
        output_vocabulary = Vocabulary(["x", "y"])
        shared = QEP2Seq(input_vocabulary, output_vocabulary, Seq2SeqConfig(hidden_dim=16, share_weights=True))
        unshared = QEP2Seq(input_vocabulary, output_vocabulary, Seq2SeqConfig(hidden_dim=16, share_weights=False))
        assert shared.encoder is shared.decoder
        assert unshared.encoder is not unshared.decoder
        assert shared.parameter_count() < unshared.parameter_count()

    def test_pretrained_embeddings_must_cover_vocabulary(self):
        from repro.errors import ModelConfigError

        with pytest.raises(ModelConfigError):
            QEP2Seq(Vocabulary(["a"]), Vocabulary(["x"]), decoder_pretrained=np.zeros((2, 8)))

    def test_make_batch_padding_and_masks(self):
        model = QEP2Seq(Vocabulary(["a", "b"]), Vocabulary(["x", "y"]), Seq2SeqConfig(hidden_dim=8))
        batch = model.make_batch([["a"], ["a", "b", "b"]], [["x", "y"], ["y"]])
        assert batch.encoder_ids.shape == (2, 3)
        assert batch.encoder_mask.sum() == 4
        assert batch.decoder_targets.shape[1] == 3  # longest target + END
        assert batch.decoder_inputs[0, 0] == model.output_vocabulary.bos_id

    def test_train_batch_reduces_loss(self):
        samples = _copy_task_samples()
        vocabulary = Vocabulary.from_sequences([s.source_tokens for s in samples])
        model = QEP2Seq(
            vocabulary, vocabulary,
            Seq2SeqConfig(hidden_dim=24, attention_dim=12, learning_rate=0.02, seed=0),
        )
        batch = model.make_batch([s.source_tokens for s in samples], [s.target_tokens for s in samples])
        first_loss, _ = model.evaluate_batch(batch)
        for _ in range(60):
            model.train_batch(batch)
        final_loss, final_accuracy = model.evaluate_batch(batch)
        assert final_loss < first_loss * 0.5
        assert final_accuracy > 0.8

    def test_greedy_decode_learns_copy_task(self):
        samples = _copy_task_samples()
        vocabulary = Vocabulary.from_sequences([s.source_tokens for s in samples])
        model = QEP2Seq(
            vocabulary, vocabulary,
            Seq2SeqConfig(hidden_dim=32, attention_dim=16, learning_rate=0.02, seed=1),
        )
        trainer = Trainer(model, samples, samples[:4], seed=1)
        trainer.train(epochs=40, batch_size=8, early_stopping_threshold=None)
        decoded = model.beam_decode_batch([["alpha", "delta"]], beam_size=1)[0][0]
        assert decoded == ["alpha", "delta"]

    def test_beam_decode_terminates_and_strips_control_tokens(self):
        model = QEP2Seq(Vocabulary(["a"]), Vocabulary(["x"]), Seq2SeqConfig(hidden_dim=8, max_decode_length=5))
        decoded = model.beam_decode_batch([["a"]], beam_size=2)[0][0]
        assert len(decoded) <= 5
        assert all(not token.startswith("<PAD") for token in decoded)


class TestDatasetAndTraining:
    def test_samples_for_database_tags_and_structure(self, dblp_db, poem_store):
        queries = ["SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
                   "WHERE i.paper_key = p.pub_key AND p.year > 2010 GROUP BY i.venue ORDER BY n DESC LIMIT 5"]
        groups, sentences = samples_for_database(dblp_db, queries, store=poem_store, origin="dblp")
        assert groups and sentences
        for group in groups:
            assert contains_tags(group.original.abstracted_text) or group.original.abstracted_text
            for sample in group.samples:
                assert sample.source_tokens and sample.target_tokens

    def test_abstract_step_replaces_values(self, dblp_db, lantern):
        narration = lantern.describe_sql(
            dblp_db, "SELECT p.title FROM publication p WHERE p.year > 2015"
        )
        step = narration.steps[0]
        abstracted, mapping = abstract_step(step)
        assert "publication" not in abstracted
        assert "<T>" in abstracted
        assert mapping.slots

    def test_build_dataset_split_and_vocabularies(self, dblp_db, poem_store):
        queries = [
            "SELECT count(*) FROM publication p WHERE p.year > 2012",
            "SELECT i.venue, count(*) AS n FROM inproceedings i GROUP BY i.venue",
            "SELECT p.title FROM publication p, inproceedings i WHERE i.paper_key = p.pub_key LIMIT 3",
        ]
        dataset = build_dataset([(dblp_db, queries, "postgresql", "dblp")], store=poem_store, seed=3)
        assert dataset.size == len(dataset.train_samples) + len(dataset.validation_samples)
        assert len(dataset.validation_samples) >= 1
        assert "<T>" in dataset.output_vocabulary.tokens
        assert all(token in dataset.input_vocabulary for sample in dataset.samples for token in sample.source_tokens)

    def test_paraphrasing_enlarges_dataset(self, dblp_db, poem_store):
        queries = ["SELECT count(*) FROM publication p WHERE p.year > 2012"]
        with_paraphrase = build_dataset([(dblp_db, queries, "postgresql", "dblp")], store=poem_store)
        without = build_dataset([(dblp_db, queries, "postgresql", "dblp")], store=poem_store, paraphrase=False)
        assert with_paraphrase.size > without.size
        assert without.size == len(without.groups)

    def test_partial_final_batch_is_weighted_by_chunk_size(self):
        """Regression: epoch metrics must weight per-batch means by chunk size.

        5 samples at batch_size=4 split into chunks of 4 and 1.  The stub
        reports loss 0.0 / accuracy 1.0 for the full chunk and loss 10.0 /
        accuracy 0.0 for the single-sample remainder; the epoch metric must
        be the per-sample mean (2.0 / 0.8), not the unweighted per-batch
        mean (5.0 / 0.5) that overweights the partial batch.
        """

        class _StubModel:
            def encode_pair(self, source_tokens, target_tokens):
                return (source_tokens, target_tokens)

            def make_batch_encoded(self, pairs):
                return len(pairs)

            def train_batch(self, chunk_size):
                return (0.0, 1.0) if chunk_size == 4 else (10.0, 0.0)

            evaluate_batch = train_batch

        samples = _copy_task_samples()[:5]
        trainer = Trainer(_StubModel(), samples, [], seed=0)
        loss, accuracy = trainer._run_batches(samples, batch_size=4, train=True)
        assert loss == pytest.approx(2.0)
        assert accuracy == pytest.approx(0.8)
        assert trainer._run_batches([], batch_size=4, train=False) == (0.0, 0.0)

    def test_trainer_records_history_and_early_stops(self):
        samples = _copy_task_samples()
        vocabulary = Vocabulary.from_sequences([s.source_tokens for s in samples])
        model = QEP2Seq(vocabulary, vocabulary, Seq2SeqConfig(hidden_dim=16, attention_dim=8, seed=2))
        history = Trainer(model, samples, samples[:4], seed=2).train(
            epochs=60, batch_size=8, early_stopping_threshold=0.05, early_stopping_window=4
        )
        assert history.epochs <= 60
        assert history.records[0].train_loss > history.records[-1].train_loss
        assert history.average_epoch_seconds > 0
        assert history.stopped_early or history.epochs == 60


class TestNeuralLanternIntegration:
    def test_translate_step_restores_concrete_values(self, dblp_db, poem_store, trained_neural):
        facade = Lantern(store=poem_store, neural=trained_neural)
        sql = ("SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
               "WHERE i.paper_key = p.pub_key GROUP BY i.venue")
        tree = facade.plan_for_sql(dblp_db, sql)
        rule = facade.describe_plan(tree, mode="rule")
        neural = facade.describe_plan(tree, mode="neural")
        assert neural.generator == "neural"
        assert len(neural.steps) == len(rule.steps)
        # concrete schema values must survive tag restoration
        assert any("inproceedings" in step.text or "publication" in step.text for step in neural.steps)
        assert not any(contains_tags(step.text) for step in neural.steps)

    def test_auto_mode_switches_after_threshold(self, dblp_db, poem_store, trained_neural):
        from repro.core.lantern import LanternConfig

        facade = Lantern(store=poem_store, neural=trained_neural, config=LanternConfig(frequency_threshold=2))
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        first = facade.describe_sql(dblp_db, sql, mode="auto")
        assert all(step.generator == "rule" for step in first.steps)
        facade.describe_sql(dblp_db, sql, mode="auto")
        third = facade.describe_sql(dblp_db, sql, mode="auto")
        assert any(step.generator == "neural" for step in third.steps)

    def test_bleu_and_error_profile_on_validation_data(self, trained_neural):
        samples = trained_neural.dataset.validation_samples[:8]
        bleu = trained_neural.test_bleu(samples, beam_size=2)
        assert 0.0 <= bleu <= 100.0
        profile = trained_neural.token_error_profile(samples, beam_size=2)
        assert sum(profile.values()) == len(samples)

    def test_acts_align_with_narration_for_neural_input(self, dblp_db, poem_store, lantern):
        tree = lantern.plan_for_sql(
            dblp_db,
            "SELECT p.title FROM publication p, inproceedings i WHERE i.paper_key = p.pub_key LIMIT 4",
        )
        narration = lantern.describe_plan(tree)
        acts = align_acts_with_narration(decompose_lot_into_acts(narration.lot), narration)
        assert [act.step.index for act in acts] == [step.index for step in narration.steps]
