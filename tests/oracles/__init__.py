"""Test-only reference oracles for the shipped fused and batched kernels.

The shipped modules carry one training path (the fused forward/backward of
:mod:`repro.nlg.nn.lstm`, :mod:`repro.nlg.nn.attention` and
:mod:`repro.nlg.seq2seq`) and one decode path
(:meth:`repro.nlg.seq2seq.QEP2Seq.beam_decode_batch`).  The slow,
obviously-correct twins they are checked against live here, where only the
tests and the benchmarks import them:

* :mod:`oracles.lstm` — the step-wise LSTM ``forward``/``backward``;
* :mod:`oracles.attention` — per-decoder-step attention
  ``forward``/``backward``;
* :mod:`oracles.seq2seq` — the step-wise model forward/backward, a
  :class:`~oracles.seq2seq.StepwiseQEP2Seq` that trains through them, and
  the unbatched beam-search decoder;
* :mod:`oracles.neural` — a cache-then-decode helper for warming a
  generator's decode cache by act signature.

Each twin is a module-level function whose first parameter is annotated
with the shipped class it mirrors (``def forward(lstm: LSTM, ...)``); the
``parity-pair`` rule of ``python -m repro.analysis`` resolves every
``*_fused``/``*_turbo`` kernel to its twin by that name and annotation.
The twins compute through the shipped private kernels
(``LSTM._gates``, ``AdditiveAttention._score_and_mix``) rather than copies,
so the reference math cannot drift from what ships.

The package is importable as ``oracles`` from ``tests/`` (pytest puts that
directory on ``sys.path``) and from ``benchmarks/`` (its ``conftest.py``
adds it).  No module under ``src/`` may import it.
"""
