"""Decode-cache helpers for tests that warm a generator by act signature."""

from __future__ import annotations

from repro.nlg.cache import make_key
from repro.nlg.neural_lantern import NeuralLantern


def cached_candidates(
    neural: NeuralLantern, source_tokens: list[str], beam_size: int
) -> list[list[str]]:
    """Ranked candidates for one act signature, served from ``neural``'s
    decode cache or decoded with ``beam_decode_batch`` and put there.

    Keys carry the model precision, as ``translate_steps`` keys them.
    """
    key = make_key(source_tokens, beam_size, neural.model.precision)
    candidates = neural.decode_cache.get(key)
    if candidates is None:
        candidates = neural.model.beam_decode_batch([source_tokens], beam_size=beam_size)[0]
        neural.decode_cache.put(key, candidates)
    return candidates
