"""LANTERN-ZERO compiled narration cache: offline pre-decode, zero-matmul serving.

``python -m repro.nlg.compile`` walks a workload through the *live* neural
narration path and freezes the ranked beam candidates into a sorted-key
file.  Contracts: a mounted compiled cache serves those signatures without
touching the model (zero matmuls), the served text is token-identical to a
live decode, beam/precision mismatches fall through to live decoding, and
the file round-trips across processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles.neural import cached_candidates
from repro.core import Lantern, LanternConfig
from repro.errors import NLGError
from repro.nlg.cache import (
    DEFAULT_PRECISION,
    CompiledCache,
    DecodeCache,
    make_key,
)
from repro.nlg.compile import compile_plans
from repro.nlg.neural_lantern import NeuralLantern

SQLS = [
    "SELECT count(*) FROM publication p WHERE p.year > 2005",
    "SELECT p.venue_key FROM publication p WHERE p.year > 1999 ORDER BY p.venue_key",
    (
        "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
        "WHERE i.paper_key = p.pub_key GROUP BY i.venue"
    ),
]

ENTRIES = [
    (["scan", "<T>"], [["read", "<T>", "rows"], ["scan", "<T>"]]),
    (["join", "<T>", "<TN>"], [["join", "them"]]),
    (["sort", "<A>"], [["order", "by", "<A>"]]),
]


class TestCompiledCacheUnit:
    def test_lookup_and_misses(self):
        cache = CompiledCache(ENTRIES, beam_size=2, precision=DEFAULT_PRECISION)
        assert len(cache) == 3
        hit = cache.lookup(make_key(["scan", "<T>"], 2))
        assert hit == [["read", "<T>", "rows"], ["scan", "<T>"]]
        assert cache.lookup(make_key(["scan", "<T>", "x"], 2)) is None
        # beam / precision mismatches miss instead of serving foreign decodes
        assert cache.lookup(make_key(["scan", "<T>"], 3)) is None
        assert cache.lookup(make_key(["scan", "<T>"], 2, "float64:int8")) is None
        assert make_key(["join", "<T>", "<TN>"], 2) in cache

    def test_lookup_returns_shared_read_only_snapshot(self):
        """Hits cost the binary search alone: every lookup hands back the
        same prebuilt snapshot (the tier is mounted read-only — callers
        never mutate candidate lists)."""
        cache = CompiledCache(ENTRIES, beam_size=2)
        key = make_key(["scan", "<T>"], 2)
        assert cache.lookup(key) is cache.lookup(key)
        assert cache.lookup(key) == [["read", "<T>", "rows"], ["scan", "<T>"]]

    def test_file_round_trip(self, tmp_path):
        cache = CompiledCache(ENTRIES, beam_size=2, precision="float64:int8")
        path = tmp_path / "compiled.json"
        cache.save(path)
        loaded = CompiledCache.load(path)
        assert loaded.beam_size == 2
        assert loaded.precision == "float64:int8"
        assert len(loaded) == len(cache)
        for tokens, candidates in ENTRIES:
            key = make_key(tokens, 2, "float64:int8")
            assert loaded.lookup(key) == cache.lookup(key)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"format": "something-else"}, "not a compiled"),
            ({"format": "lantern-compiled-cache", "version": 99}, "version"),
            (
                {"format": "lantern-compiled-cache", "version": 1, "entries": [[1]]},
                "malformed",
            ),
            ("not even a dict", "not a compiled"),
        ],
    )
    def test_malformed_payloads_are_structured_errors(self, payload, match):
        with pytest.raises(NLGError, match=match):
            CompiledCache.from_payload(payload)


class TestDecodeCacheMount:
    def test_fallthrough_and_counters(self):
        cache = DecodeCache(max_size=4)
        compiled = CompiledCache(ENTRIES, beam_size=2)
        cache.mount_compiled(compiled)
        key = make_key(["scan", "<T>"], 2)
        assert cache.get(key) == [["read", "<T>", "rows"], ["scan", "<T>"]]
        assert cache.hits == 1 and cache.compiled_hits == 1
        # compiled hits are NOT promoted into the LRU tier
        assert len(cache) == 0
        assert cache.get(make_key(["unknown"], 2)) is None
        assert cache.misses == 1
        stats = cache.stats()
        assert stats["compiled_hits"] == 1 and stats["compiled_size"] == 3

    def test_lru_shadows_compiled(self):
        """A dynamic LRU entry for the same key wins (it is newer)."""
        cache = DecodeCache(max_size=4)
        cache.mount_compiled(CompiledCache(ENTRIES, beam_size=2))
        key = make_key(["scan", "<T>"], 2)
        cache.put(key, [["fresher", "decode"]])
        assert cache.get(key) == [["fresher", "decode"]]
        assert cache.compiled_hits == 0

    def test_clear_preserves_compiled_tier(self):
        cache = DecodeCache(max_size=4)
        cache.mount_compiled(CompiledCache(ENTRIES, beam_size=2))
        cache.put(make_key(["dynamic"], 2), [["x"]])
        cache.clear()
        assert len(cache) == 0
        assert cache.compiled is not None
        assert cache.get(make_key(["scan", "<T>"], 2)) is not None

    def test_unmount(self):
        cache = DecodeCache(max_size=4)
        cache.mount_compiled(CompiledCache(ENTRIES, beam_size=2))
        cache.unmount_compiled()
        assert cache.get(make_key(["scan", "<T>"], 2)) is None
        assert "compiled_hits" not in cache.stats()


@pytest.fixture()
def facade(trained_neural):
    return Lantern(
        neural=NeuralLantern(trained_neural.model, beam_size=2),
        config=LanternConfig(seed=None),
    )


class TestCompilePlans:
    def test_compile_covers_workload_and_restores_state(self, facade, dblp_db):
        trees = [facade.plan_for_sql(dblp_db, sql) for sql in SQLS]
        neural = facade.neural
        before_entries = neural.decode_cache.export_entries()
        before_exposure = dict(neural._act_exposure)

        compiled = compile_plans(facade, trees)
        assert len(compiled) > 0
        assert compiled.beam_size == 2
        assert compiled.precision == neural.model.precision
        # compiling leaves the lantern exactly as it found it
        assert neural.decode_cache.export_entries() == before_entries
        assert neural._act_exposure == before_exposure

    def test_compiled_serving_is_token_identical_and_decode_free(
        self, facade, dblp_db, trained_neural, monkeypatch
    ):
        trees = [facade.plan_for_sql(dblp_db, sql) for sql in SQLS]
        compiled = compile_plans(facade, trees)
        # live (uncached) narrations from a parallel fresh facade
        live = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        expected = [live.describe_plan(tree, mode="neural").text for tree in trees]

        served = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        served.neural.decode_cache.mount_compiled(compiled)

        def _no_decodes(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("compiled-cache serving must not decode")

        monkeypatch.setattr(trained_neural.model, "beam_decode_batch", _no_decodes)
        actual = [served.describe_plan(tree, mode="neural").text for tree in trees]
        assert actual == expected
        assert served.neural.decode_cache.compiled_hits > 0

    def test_precision_mismatch_falls_through_to_live_decode(
        self, facade, dblp_db, trained_neural
    ):
        trees = [facade.plan_for_sql(dblp_db, SQLS[0])]
        compiled = compile_plans(facade, trees)
        served = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        served.neural.decode_cache.mount_compiled(compiled)
        trained_neural.model.quantize("int8")
        try:
            narration = served.describe_plan(trees[0], mode="neural")
        finally:
            trained_neural.model.dequantize()
        assert narration.text
        assert served.neural.decode_cache.compiled_hits == 0  # wrong precision
        assert served.neural.decode_cache.misses > 0

    def test_rule_only_lantern_refused(self):
        with pytest.raises(NLGError, match="no neural generator"):
            compile_plans(Lantern(config=LanternConfig(seed=None)), [])


class TestCompiledCacheCrossProcess:
    def test_cli_compile_then_serve_parity(self, facade, dblp_db, tmp_path):
        """The full LANTERN-ZERO loop: checkpoint → compile CLI in a fresh
        process → mount the file here → narrations match live decoding."""
        trees = [facade.plan_for_sql(dblp_db, sql) for sql in SQLS]
        checkpoint = tmp_path / "ckpt"
        facade.save(checkpoint, include_cache=False, weights_layout="mmap")
        # narrated AFTER the save (the --parity-sample convention): the
        # checkpoint's exposure state is the starting point for exactly
        # these narrations
        expected = [facade.describe_plan(tree, mode="neural").text for tree in trees]
        compiled_path = tmp_path / "workload.cache.json"

        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_root) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.nlg.compile",
                "--checkpoint", str(checkpoint),
                "--workload", "dblp",
                "--queries", "3",
                "--seed", "9",
                "--out", str(compiled_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "compiled" in completed.stdout

        compiled = CompiledCache.load(compiled_path)
        assert len(compiled) > 0
        # the file was compiled in another process from the same checkpoint:
        # every signature it knows must hold exactly the candidates this
        # process would decode live
        model = facade.neural.model
        for tokens, candidates in zip(compiled._keys, compiled._values):
            live = model.beam_decode_batch([list(tokens)], beam_size=compiled.beam_size)[0]
            assert [list(c) for c in candidates] == live

        # and a facade serving from the file narrates the plans identically
        served = Lantern.load(checkpoint)
        served.neural.decode_cache.mount_compiled(compiled)
        actual = [served.describe_plan(tree, mode="neural").text for tree in trees]
        assert actual == expected
        assert served.neural.decode_cache.compiled_hits > 0


class TestLegacyCacheEntries:
    def test_three_element_checkpoint_entries_get_model_precision(
        self, trained_neural, tmp_path
    ):
        """Checkpoints written before precision-aware keys store 3-element
        cache entries; they load under the model's current precision tag."""
        neural = NeuralLantern(trained_neural.model, beam_size=2)
        source = trained_neural.dataset.samples[0].source_tokens
        cached_candidates(neural, source, 2)
        target = neural.save(tmp_path / "legacy")

        from repro.nlg.persistence import MANIFEST_FILE

        manifest = json.loads((target / MANIFEST_FILE).read_text())
        entries = manifest["neural"]["cache"]["entries"]
        manifest["neural"]["cache"]["entries"] = [
            [tokens, beam, candidates] for tokens, beam, _, candidates in entries
        ]
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))

        loaded = NeuralLantern.load(target)
        [(key, _)] = loaded.decode_cache.export_entries()
        assert key == make_key(source, 2, loaded.model.precision)
        # and the entry is actually served
        assert loaded.decode_cache.get(key) is not None
