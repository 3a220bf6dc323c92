"""The one decode-cache row codec: ``DecodeCache.export_rows`` / ``import_rows``.

Checkpoints and the fleet's ``/admin/cache`` both carry these rows, so a
row is checked the same way on both paths: a round trip through JSON
restores the entries in LRU order, and each way of corrupting one row is
rejected by the checkpoint loader and by the worker alike.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Lantern
from repro.core.lantern import LanternConfig
from repro.errors import CacheFormatError, CheckpointFormatError
from repro.nlg.cache import DecodeCache
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.persistence import MANIFEST_FILE
from repro.service.client import LanternClient
from repro.service.fleet import WorkerService
from repro.service.server import ServiceConfig

# a small alphabet makes repeated keys (LRU refreshes) likely
_tokens = st.lists(st.sampled_from(["scan", "<R>", "join", "ü", ""]), max_size=4)
_entries = st.lists(
    st.tuples(
        _tokens,
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["float64:none", "float32:int8"]),
        st.lists(st.lists(st.text(max_size=5), max_size=4), max_size=3),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(entries=_entries, max_size=st.integers(min_value=1, max_value=16))
def test_rows_round_trip_through_json_in_lru_order(entries, max_size):
    cache = DecodeCache(max_size=max_size)
    for tokens, beam, precision, candidates in entries:
        cache.put((tuple(tokens), beam, precision), candidates)
    restored = DecodeCache(max_size=max_size)
    rows = json.loads(json.dumps(cache.export_rows()))
    assert restored.import_rows(rows, "float64:none") == len(cache)
    assert restored.export_entries() == cache.export_entries()


#: one corrupted row per way a row can be malformed
CORRUPTIONS = {
    "string-for-list": lambda row: [row[0], row[1], row[2], "xyz"],
    "int-token": lambda row: [[1] + row[0], row[1], row[2], row[3]],
    "missing-field": lambda row: row[:2],
    "non-int-beam": lambda row: [row[0], "2", row[2], row[3]],
    "non-list-row": lambda row: {"tokens": row[0]},
}


@pytest.fixture()
def warm_neural(trained_neural):
    """A fresh facade over the trained model with a two-entry warm cache."""
    neural = NeuralLantern(trained_neural.model, beam_size=2)
    sources = {tuple(sample.source_tokens) for sample in trained_neural.dataset.samples}
    for source in sorted(sources)[:2]:
        neural._ranked_candidates(list(source), 2)
    assert len(neural.decode_cache) == 2
    return neural


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_row_is_rejected_by_checkpoint_and_worker(warm_neural, tmp_path, corruption):
    rows = warm_neural.decode_cache.export_rows()
    rows[-1] = CORRUPTIONS[corruption](rows[-1])
    with pytest.raises(CacheFormatError):
        DecodeCache().import_rows(rows, "float64:none")

    target = warm_neural.save(tmp_path / "ckpt")
    manifest = json.loads((target / MANIFEST_FILE).read_text())
    manifest["neural"]["cache"]["entries"] = rows
    (target / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointFormatError, match="malformed cache entry"):
        NeuralLantern.load(target)

    before = warm_neural.decode_cache.export_entries()
    facade = Lantern(neural=warm_neural, config=LanternConfig(seed=None))
    service = WorkerService(facade, config=ServiceConfig(port=0, instance_id="wC"))
    host, port = service.start()
    client = LanternClient(f"http://{host}:{port}")
    try:
        status, reply = client.request_json("POST", "/admin/cache", {"entries": rows})
    finally:
        client.close()
        service.stop()
    assert (status, reply["error"]) == (400, "bad_request")
    assert warm_neural.decode_cache.export_entries() == before

