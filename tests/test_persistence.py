"""LANTERN-PERSIST: checkpoint round trips, integrity checking, and the train CLI.

The load-bearing contract: a narrator saved in one process and loaded in
another produces **token-identical** narrations for the same plan sequence —
weights, vocabulary ids, wording-cycle exposures, habituation counters, the
warm decode cache, and even a seeded rule narrator's rng stream position all
survive the round trip.  Corrupt or incompatible checkpoints fail with
structured :class:`~repro.errors.CheckpointError` subclasses, never with
silently wrong narrations.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles.neural import cached_candidates
from repro.core import Lantern, LanternConfig
from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointVersionError,
)
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.persistence import (
    MANIFEST_FILE,
    WEIGHTS_FILE,
    load_lantern,
    load_qep2seq,
    save_lantern,
    save_qep2seq,
)

SQLS = [
    "SELECT count(*) FROM publication p WHERE p.year > 2005",
    "SELECT p.venue_key FROM publication p WHERE p.year > 1999 ORDER BY p.venue_key",
    (
        "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
        "WHERE i.paper_key = p.pub_key GROUP BY i.venue"
    ),
]


class TestModelRoundTrip:
    def test_qep2seq_weights_and_decodes_survive(self, trained_neural, tmp_path):
        model = trained_neural.model
        save_qep2seq(model, tmp_path / "model")
        loaded = load_qep2seq(tmp_path / "model")

        assert loaded.input_vocabulary.tokens == model.input_vocabulary.tokens
        assert loaded.output_vocabulary.tokens == model.output_vocabulary.tokens
        assert loaded.config == model.config
        originals = {p.name: p.value for p in model.parameters()}
        for parameter in loaded.parameters():
            np.testing.assert_array_equal(parameter.value, originals[parameter.name])

        sources = [s.source_tokens for s in trained_neural.dataset.samples[:5]]
        assert loaded.beam_decode_batch(sources, beam_size=2) == model.beam_decode_batch(
            sources, beam_size=2
        )

    @pytest.mark.parametrize("variant", ["shared", "pretrained"])
    def test_constructor_edge_cases_round_trip(self, variant, tmp_path):
        """share_weights couples the LSTMs; pre-trained embeddings change the
        decoder width — both must rebuild with correct shapes on load."""
        from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
        from repro.nlg.vocab import Vocabulary

        input_vocabulary = Vocabulary([f"i{i}" for i in range(10)])
        output_vocabulary = Vocabulary([f"o{i}" for i in range(14)])
        if variant == "shared":
            model = QEP2Seq(
                input_vocabulary,
                output_vocabulary,
                Seq2SeqConfig(hidden_dim=12, attention_dim=6, share_weights=True, seed=3),
            )
        else:
            pretrained = np.random.default_rng(0).normal(size=(len(output_vocabulary), 20))
            model = QEP2Seq(
                input_vocabulary,
                output_vocabulary,
                Seq2SeqConfig(hidden_dim=12, attention_dim=6, seed=3),
                decoder_pretrained=pretrained,
            )
        save_qep2seq(model, tmp_path / variant)
        loaded = load_qep2seq(tmp_path / variant)
        assert (loaded.decoder is loaded.encoder) == (model.decoder is model.encoder)
        assert loaded.parameter_count() == model.parameter_count()
        source = ["i1", "i2", "i3"]
        assert loaded.beam_decode_batch([source], beam_size=3) == (
            model.beam_decode_batch([source], beam_size=3)
        )

    def test_neural_lantern_state_survives(self, trained_neural, tmp_path):
        # a fresh facade around the shared trained model, so this test owns
        # (and may freely mutate) the exposure and cache state it asserts on
        neural = NeuralLantern(trained_neural.model, beam_size=2)
        sources = [s.source_tokens for s in trained_neural.dataset.samples[:4]]
        for source in sources * 2:  # cycle exposures, fill the cache
            cached_candidates(neural, source, neural._effective_beam_size())
        neural._act_exposure = {"scan|filter": 3, "join": 1}

        neural.save(tmp_path / "neural")
        loaded = NeuralLantern.load(tmp_path / "neural")

        assert loaded.beam_size == 2
        assert loaded.dataset is None
        assert loaded._act_exposure == neural._act_exposure
        assert loaded.decode_cache.max_size == neural.decode_cache.max_size
        assert loaded.decode_cache.export_entries() == neural.decode_cache.export_entries()

    def test_cache_can_be_excluded(self, trained_neural, tmp_path):
        neural = NeuralLantern(trained_neural.model, beam_size=2, cache_size=17)
        cached_candidates(neural, trained_neural.dataset.samples[0].source_tokens, 2)
        assert len(neural.decode_cache) == 1
        neural.save(tmp_path / "cold", include_cache=False)
        loaded = NeuralLantern.load(tmp_path / "cold")
        assert len(loaded.decode_cache) == 0  # entries dropped ...
        assert loaded.decode_cache.max_size == 17  # ... configuration kept
        assert loaded.decode_cache.enabled is True


class TestLanternFacadeRoundTrip:
    def test_continuation_parity_neural_and_auto(self, dblp_db, trained_neural, tmp_path):
        lantern = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None, frequency_threshold=2),
        )
        trees = [lantern.plan_for_sql(dblp_db, sql) for sql in SQLS]
        for tree in trees:  # build up exposure + habituation state
            lantern.describe_plan(tree, mode="neural")

        lantern.save(tmp_path / "facade")
        loaded = Lantern.load(tmp_path / "facade")

        # both facades continue from the saved state: narrations must match
        # token for token, in both neural and habituation-routed auto mode
        for mode in ("neural", "auto"):
            expected = [lantern.describe_plan(t, mode=mode).text for t in trees]
            actual = [loaded.describe_plan(t, mode=mode).text for t in trees]
            assert actual == expected

    def test_habituation_counters_survive(self, dblp_db, tmp_path):
        lantern = Lantern(config=LanternConfig(seed=None))
        tree = lantern.plan_for_sql(dblp_db, SQLS[0])
        for _ in range(3):
            lantern.describe_plan(tree)
        lantern.save(tmp_path / "rule-only")
        loaded = Lantern.load(tmp_path / "rule-only")

        assert not (tmp_path / "rule-only" / WEIGHTS_FILE).exists()
        assert loaded.neural is None
        assert loaded._operator_counts == lantern._operator_counts
        assert sum(loaded._operator_counts.values()) > 0

    def test_pool_customized_store_survives(self, dblp_db, tmp_path):
        """Regression: a POOL-edited POEM catalog must travel with the
        checkpoint — reverting to the default wording would silently break
        the token-identical contract."""
        from repro.pool import build_default_store
        from repro.pool.interpreter import PoolSession

        store = build_default_store()
        PoolSession(store).execute(
            "UPDATE pg SET desc = 'read one after another every row of' "
            "WHERE pg.name = 'seqscan'"
        )
        lantern = Lantern(store=store, config=LanternConfig(seed=None))
        tree = lantern.plan_for_sql(dblp_db, SQLS[0])
        expected = lantern.describe_plan(tree).text
        assert "read one after another" in expected

        lantern.save(tmp_path / "custom-store")
        loaded = Lantern.load(tmp_path / "custom-store")
        assert loaded.describe_plan(tree).text == expected

    def test_seeded_rule_rng_stream_survives(self, dblp_db, tmp_path):
        """A seeded narrator's wording cycle continues across the restart
        instead of replaying from the seed."""
        lantern = Lantern(config=LanternConfig(seed=23))
        tree = lantern.plan_for_sql(dblp_db, SQLS[2])
        for _ in range(2):  # advance the description-picking rng stream
            lantern.describe_plan(tree)
        lantern.save(tmp_path / "seeded")
        loaded = Lantern.load(tmp_path / "seeded")

        expected = [lantern.describe_plan(tree).text for _ in range(4)]
        actual = [loaded.describe_plan(tree).text for _ in range(4)]
        assert actual == expected


class TestCheckpointValidation:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="not a LANTERN-PERSIST"):
            Lantern.load(tmp_path / "nowhere")

    def test_garbage_manifest(self, tmp_path):
        target = tmp_path / "bad"
        target.mkdir()
        (target / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(CheckpointFormatError, match="unreadable"):
            Lantern.load(target)

    def test_unsupported_schema_version(self, tmp_path):
        lantern = Lantern(config=LanternConfig(seed=None))
        target = save_lantern(lantern, tmp_path / "versioned")
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        manifest["schema_version"] = 99
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointVersionError, match="version 99"):
            Lantern.load(target)

    def test_kind_mismatch(self, trained_neural, tmp_path):
        target = save_qep2seq(trained_neural.model, tmp_path / "model")
        with pytest.raises(CheckpointVersionError, match="holds a 'qep2seq'"):
            Lantern.load(target)

    def test_corrupt_weights_detected(self, trained_neural, tmp_path):
        target = save_qep2seq(trained_neural.model, tmp_path / "model")
        weights_path = target / WEIGHTS_FILE
        blob = bytearray(weights_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte mid-archive
        weights_path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
            load_qep2seq(target)

    def test_missing_weight_array_detected(self, trained_neural, tmp_path):
        target = save_qep2seq(trained_neural.model, tmp_path / "model")
        weights = dict(
            np.load(target / WEIGHTS_FILE, allow_pickle=False)
        )
        weights.pop("output.bias")
        with open(target / WEIGHTS_FILE, "wb") as handle:
            np.savez(handle, **weights)
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        manifest["weights_sha256"] = hashlib.sha256(
            (target / WEIGHTS_FILE).read_bytes()
        ).hexdigest()
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointIntegrityError, match="output.bias"):
            load_qep2seq(target)

    def test_malformed_manifest_numbers_are_structured_errors(self, tmp_path):
        """Hand-edited/bit-rotted numeric fields must surface as
        CheckpointFormatError, never a raw ValueError traceback."""
        lantern = Lantern(config=LanternConfig(seed=None))
        target = save_lantern(lantern, tmp_path / "numbers")
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        manifest["lantern"]["operator_counts"] = {"scan": "three"}
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError, match="must be a number"):
            Lantern.load(target)

    def test_overwriting_with_rule_only_removes_stale_weights(
        self, dblp_db, trained_neural, tmp_path
    ):
        neural_facade = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        target = tmp_path / "reused"
        neural_facade.save(target)
        assert (target / WEIGHTS_FILE).exists()
        Lantern(config=LanternConfig(seed=None)).save(target)
        assert not (target / WEIGHTS_FILE).exists()  # no orphaned model
        assert Lantern.load(target).neural is None

    def test_foreign_translator_refused(self, tmp_path):
        class _NotANeuralLantern:
            def translate_step(self, act, rule_step):
                return "nope"

        lantern = Lantern(neural=_NotANeuralLantern(), config=LanternConfig(seed=None))
        with pytest.raises(CheckpointError, match="only NeuralLantern"):
            lantern.save(tmp_path / "foreign")


class TestRetiredConfigKeys:
    """Manifests written while ``Seq2SeqConfig`` still had a ``turbo``
    training-path knob (every one so far: ``asdict`` recorded it) keep
    loading; any other unknown config key is still refused."""

    @pytest.fixture()
    def saved(self, dblp_db, trained_neural, tmp_path):
        lantern = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        trees = [lantern.plan_for_sql(dblp_db, sql) for sql in SQLS]
        for tree in trees:  # warm the decode cache and the wording cycle
            lantern.describe_plan(tree, mode="neural")
        target = lantern.save(tmp_path / "current")
        assert "turbo" not in json.loads((target / MANIFEST_FILE).read_text())["model"]["config"]
        return target, trees

    @staticmethod
    def _with_model_config(target, destination, **extra):
        destination.mkdir()
        for path in target.iterdir():
            (destination / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((destination / MANIFEST_FILE).read_text())
        manifest["model"]["config"].update(extra)
        (destination / MANIFEST_FILE).write_text(json.dumps(manifest))
        return destination

    @pytest.mark.parametrize("turbo", [True, False])
    def test_turbo_key_loads_identically(self, saved, tmp_path, turbo):
        target, trees = saved
        legacy = self._with_model_config(target, tmp_path / "legacy", turbo=turbo)
        current = Lantern.load(target)
        loaded = Lantern.load(legacy)
        assert not hasattr(loaded.neural.model.config, "turbo")
        assert (
            loaded.neural.decode_cache.export_entries()
            == current.neural.decode_cache.export_entries()
        )
        expected = [current.describe_plan(tree, mode="neural").text for tree in trees]
        assert [loaded.describe_plan(tree, mode="neural").text for tree in trees] == expected

    def test_other_unknown_config_keys_still_raise(self, saved, tmp_path):
        target, _ = saved
        bogus = self._with_model_config(target, tmp_path / "bogus", turbo=True, warp_drive=1)
        with pytest.raises(CheckpointFormatError, match="warp_drive"):
            Lantern.load(bogus)


class TestFloat32Checkpoints:
    """``Seq2SeqConfig.dtype`` must survive the manifest round trip: a
    float32 model saves float32 arrays, loads back as float32, and narrates
    identically — including from a completely fresh process, the way the
    service boots with ``--checkpoint``."""

    @staticmethod
    def _float32_model(trained_neural):
        from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
        from repro.nlg.training import Trainer

        dataset = trained_neural.dataset
        model = QEP2Seq(
            dataset.input_vocabulary,
            dataset.output_vocabulary,
            Seq2SeqConfig(
                hidden_dim=16, attention_dim=8, batch_size=8, seed=21, dtype="float32"
            ),
        )
        Trainer(
            model, dataset.train_samples[:48], dataset.validation_samples[:8], seed=21
        ).train(epochs=1, early_stopping_threshold=None)
        return model

    def test_round_trip_preserves_dtype_and_decodes(self, trained_neural, tmp_path):
        model = self._float32_model(trained_neural)
        target = save_qep2seq(model, tmp_path / "f32")

        manifest = json.loads((target / MANIFEST_FILE).read_text())
        assert manifest["model"]["config"]["dtype"] == "float32"
        with np.load(target / WEIGHTS_FILE, allow_pickle=False) as archive:
            assert all(archive[name].dtype == np.float32 for name in archive.files)

        loaded = load_qep2seq(target)
        assert loaded.config.dtype == "float32"
        assert all(p.value.dtype == np.float32 for p in loaded.parameters())
        originals = {p.name: p.value for p in model.parameters()}
        for parameter in loaded.parameters():
            np.testing.assert_array_equal(parameter.value, originals[parameter.name])

        sources = [s.source_tokens for s in trained_neural.dataset.samples[:5]]
        assert loaded.beam_decode_batch(sources, beam_size=2) == model.beam_decode_batch(
            sources, beam_size=2
        )

    def test_service_checkpoint_narrates_identically_across_processes(
        self, dblp_db, trained_neural, tmp_path
    ):
        """The --checkpoint boot contract for float32: a fresh process loads
        the facade and reproduces the saved state's next narrations token
        for token."""
        from repro.nlg.neural_lantern import NeuralLantern

        lantern = Lantern(
            neural=NeuralLantern(self._float32_model(trained_neural), beam_size=2),
            config=LanternConfig(seed=None),
        )
        payloads = [dblp_db.explain(sql, output_format="json") for sql in SQLS]
        target = tmp_path / "svc-f32"
        lantern.save(target)
        # narrated AFTER the save: the checkpoint is the starting point for
        # exactly these narrations (the --parity-sample convention)
        expected = [
            lantern.describe_plan(lantern.parse_plan(payload), mode="neural").text
            for payload in payloads
        ]
        payload_file = tmp_path / "payloads.json"
        payload_file.write_text(json.dumps(payloads))

        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.core import Lantern\n"
            "lantern = Lantern.load(sys.argv[1])\n"
            "assert all(p.value.dtype == np.float32 for p in lantern.neural.model.parameters())\n"
            "payloads = json.loads(open(sys.argv[2]).read())\n"
            "texts = [lantern.describe_plan(lantern.parse_plan(p), mode='neural').text"
            " for p in payloads]\n"
            "print(json.dumps(texts))\n"
        )
        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_root) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script, str(target), str(payload_file)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout.strip().splitlines()[-1]) == expected


class TestTrainCLI:
    def test_parity_sample_requires_lantern_kind(self, tmp_path, capsys):
        """A bare NeuralLantern checkpoint cannot reproduce facade-level
        narrations, so the combination is refused up front."""
        from repro.nlg.train import main

        with pytest.raises(SystemExit):
            main(
                [
                    "--kind", "neural",
                    "--parity-sample", str(tmp_path / "parity.json"),
                    "--out", str(tmp_path / "ckpt"),
                ]
            )
        assert "--parity-sample requires --kind lantern" in capsys.readouterr().err

    def test_cli_trains_saves_and_reloads_with_parity(self, tmp_path, capsys):
        from repro.nlg.train import main

        out = tmp_path / "ckpt"
        sample_path = tmp_path / "parity.json"
        main(
            [
                "--workload", "dblp",
                "--queries", "3",
                "--epochs", "1",
                "--hidden-dim", "16",
                "--attention-dim", "8",
                "--train-cap", "40",
                "--validation-cap", "8",
                "--no-paraphrase",
                "--warm-cache",
                "--parity-sample", str(sample_path),
                "--out", str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert "checkpoint written" in printed

        loaded = Lantern.load(out)
        assert loaded.neural is not None
        assert len(loaded.neural.decode_cache) > 0  # --warm-cache shipped hot

        sample = json.loads(sample_path.read_text())
        for payload, expected in zip(sample["payloads"], sample["texts"]):
            tree = loaded.parse_plan(payload)
            assert loaded.describe_plan(tree, mode=sample["mode"]).text == expected
