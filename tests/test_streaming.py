"""Streaming narration: plans that join a running decode narrate exactly as
sequential ``describe_plan`` calls in arrival order.

Two drivers of the streaming :meth:`Lantern.describe_plans`:

* a hypothesis state machine, in-process and without threads, whose rules
  submit plans, let the decoder advance some steps, and drain; and
* the :class:`MicroBatcher`, where a request queued while another decodes
  must join that decode rather than wait for it.

Both compare against a twin facade fed the same plans one at a time, down to
the habituation counters and the wording-cycle exposures.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import Lantern, LanternConfig
from repro.nlg.dataset import build_dataset
from repro.nlg.neural_lantern import NeuralLantern
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.service import BatcherConfig, MicroBatcher, ServiceTelemetry
from repro.workloads import build_dblp_database
from repro.workloads.dblp import DBLP_JOIN_GRAPH
from repro.workloads.generator import RandomQueryGenerator

MODES = ("rule", "neural", "auto")
ENGINES = ("postgresql", "sqlserver", "mysql")


def _build_world():
    """An untrained but deterministic model and a pool of plans in all three
    dialects (decoding mechanics are exact without training)."""
    db = build_dblp_database(publication_count=150, seed=3)
    queries = [generated.sql for generated in RandomQueryGenerator(db, DBLP_JOIN_GRAPH, seed=5).generate(6)]
    dataset = build_dataset([(db, queries, "postgresql", "dblp")], seed=5)
    model = QEP2Seq(
        dataset.input_vocabulary,
        dataset.output_vocabulary,
        Seq2SeqConfig(hidden_dim=16, attention_dim=8, max_decode_length=10, seed=2),
    )
    planner = Lantern()
    plans = [
        planner.plan_for_sql(db, sql, engine)
        for index, sql in enumerate(queries)
        for engine in (ENGINES[index % 3],)
    ]
    return model, plans


MODEL, PLANS = _build_world()


def _facade(cache_enabled: bool = True) -> Lantern:
    return Lantern(
        neural=NeuralLantern(MODEL, beam_size=2, cache_enabled=cache_enabled),
        config=LanternConfig(seed=None, frequency_threshold=2),
    )


def _digest(narration) -> tuple:
    return narration.generator, [(step.text, step.generator) for step in narration.steps]


TICK = object()


class StreamingNarration(RuleBasedStateMachine):
    """Rules script when plans arrive relative to decode steps; ``drain``
    plays the script through the streaming facade the way the batcher's
    worker does (a run per burst, arrivals joining at step boundaries)."""

    def __init__(self) -> None:
        super().__init__()
        # no decode cache on the streamed side, so every neural act decodes
        # (joining whatever search runs) or is deduplicated against one in
        # flight; neither may change a single word
        self.streamed = _facade(cache_enabled=False)
        self.twin = _facade()
        self.script: list = []

    @rule(plan=st.integers(0, len(PLANS) - 1), mode=st.sampled_from(MODES))
    def submit(self, plan: int, mode: str) -> None:
        self.script.append((PLANS[plan], mode))

    @rule(steps=st.integers(1, 4))
    def advance(self, steps: int) -> None:
        self.script.extend([TICK] * steps)

    @rule()
    def drain(self) -> None:
        submitted = [op for op in self.script if op is not TICK]
        ops = deque(self.script)
        self.script = []
        retired: list = []
        clock = [MODEL.decode_stats()["steps"]]

        def feed(results: list) -> list:
            retired.extend(results)
            steps = MODEL.decode_stats()["steps"]
            elapsed, clock[0] = steps - clock[0], steps
            while ops and ops[0] is TICK and elapsed > 0:
                ops.popleft()
                elapsed -= 1
            arrivals = []
            while ops and ops[0] is not TICK:
                arrivals.append(ops.popleft())
            return arrivals

        while ops:
            while ops and ops[0] is TICK:  # nothing runs: no steps to wait for
                ops.popleft()
            burst = []
            while ops and ops[0] is not TICK:
                burst.append(ops.popleft())
            if not burst:
                continue
            clock[0] = MODEL.decode_stats()["steps"]
            retired.extend(
                self.streamed.describe_plans(
                    [tree for tree, _ in burst],
                    [mode for _, mode in burst],
                    collect_errors=True,
                    feed=feed,
                )
            )
        expected = [self.twin.describe_plan(tree, mode) for tree, mode in submitted]
        assert [_digest(n) for n in retired] == [_digest(n) for n in expected]

    @invariant()
    def session_state_matches(self) -> None:
        assert self.streamed._operator_counts == self.twin._operator_counts
        for name in self.twin._operator_counts:
            assert self.streamed.operator_exposure(name) == self.twin.operator_exposure(name)
        assert self.streamed.neural._act_exposure == self.twin.neural._act_exposure

    def teardown(self) -> None:
        self.drain()


StreamingNarration.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=14,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStreamingNarration = StreamingNarration.TestCase


def _neural_plans() -> tuple:
    """Two plans whose neural acts do not all share signatures."""
    facade = _facade()
    for first in PLANS:
        for second in PLANS:
            ours = {act.key for act in _acts(facade, first)}
            theirs = {act.key for act in _acts(facade, second)}
            if ours and theirs - ours:
                return first, second
    pytest.fail("the plan pool has no two plans with distinct acts")


def _acts(facade, tree):
    from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts

    narration = facade.describe_plan(tree)
    return align_acts_with_narration(decompose_lot_into_acts(narration.lot), narration)


def test_request_queued_mid_decode_joins_the_running_search():
    """Gate the worker at its first decode step boundary, queue B, release:
    B must be admitted into A's search (one describe_plans run, acts joined),
    and both narrations must equal sequential ones."""
    first, second = _neural_plans()
    streamed, twin = _facade(), _facade()
    telemetry = ServiceTelemetry()
    batcher = MicroBatcher(streamed, BatcherConfig(max_batch_size=8), telemetry)
    entered, release, enqueued = threading.Event(), threading.Event(), threading.Event()

    collect = batcher._collect_batch

    def gated_collect(room=None, wait_s=0.1):
        if wait_s == 0 and not entered.is_set():  # the first step boundary
            entered.set()
            assert release.wait(10)
        return collect(room, wait_s)

    put = batcher._queue.put_nowait

    def put_and_signal(request) -> None:
        put(request)
        enqueued.set()

    runs: list[int] = []
    describe = streamed.describe_plans

    def counted(*args, **kwargs):
        runs.append(1)
        return describe(*args, **kwargs)

    batcher._collect_batch = gated_collect
    batcher._queue.put_nowait = put_and_signal
    streamed.describe_plans = counted
    joins_before = MODEL.decode_stats()["joins"]
    outcomes: dict = {}
    batcher.start()
    try:
        a = threading.Thread(target=lambda: outcomes.update(a=batcher.submit(first, "neural")))
        a.start()
        assert entered.wait(10), "A never reached a decode step boundary"
        enqueued.clear()
        b = threading.Thread(target=lambda: outcomes.update(b=batcher.submit(second, "neural")))
        b.start()
        assert enqueued.wait(10), "B was never queued"
        release.set()
        a.join(10)
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
    finally:
        release.set()
        batcher.stop()
    assert runs == [1]  # one streaming run served both requests
    assert MODEL.decode_stats()["joins"] > joins_before  # B's acts joined A's search
    assert telemetry.snapshot()["batching"]["max_batch_size"] == 2  # both in flight at once
    assert _digest(outcomes["a"]) == _digest(twin.describe_plan(first, "neural"))
    assert _digest(outcomes["b"]) == _digest(twin.describe_plan(second, "neural"))
    assert streamed.neural._act_exposure == twin.neural._act_exposure


def test_decode_exception_fails_every_request_in_flight():
    """A decode that raises after B joined fails A and B alike and counts
    one batch failure."""
    first, second = _neural_plans()
    streamed = _facade()
    telemetry = ServiceTelemetry()
    batcher = MicroBatcher(streamed, BatcherConfig(max_batch_size=8), telemetry)
    queued: list = []
    both_queued = threading.Event()
    put = batcher._queue.put_nowait

    def put_and_signal(request) -> None:
        put(request)
        queued.append(request)
        if len(queued) == 2:
            both_queued.set()

    translate = streamed.neural.translate_steps

    def exploding(acts, steps, feed=None):
        def failing_feed(texts):
            # the first step boundary: admit B, then blow up
            assert both_queued.wait(10)
            feed(texts)
            raise RuntimeError("decoder fell over")

        return translate(acts, steps, feed=failing_feed)

    streamed.neural.translate_steps = exploding
    batcher._queue.put_nowait = put_and_signal
    outcomes: dict = {}
    batcher.start()
    try:
        threads = [
            threading.Thread(target=lambda key=key, tree=tree: outcomes.update(
                {key: batcher.submit_many([tree], ["neural"])[0]}
            ))
            for key, tree in (("a", first), ("b", second))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        batcher.stop()
    assert isinstance(outcomes["a"], RuntimeError)
    assert isinstance(outcomes["b"], RuntimeError)
    batching = telemetry.snapshot()["batching"]
    assert batching["batches_failed"] == 1
    assert batching["batch_errors"] == {"RuntimeError": 1}


def test_concurrent_submitters_lose_no_admission():
    """More submitters than cores, with a short switch interval: every
    request is answered once, and the session counters account for exactly
    the narrations returned (a lost or doubled admission would break it)."""
    facade = _facade(cache_enabled=False)
    batcher = MicroBatcher(facade, BatcherConfig(max_batch_size=4))
    outcomes: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    batcher.start()
    try:
        def submit(offset: int) -> None:
            for index in range(5):
                tree = PLANS[(offset + index) % len(PLANS)]
                outcomes.append(batcher.submit(tree, MODES[(offset + index) % 3], timeout_s=30))

        threads = [threading.Thread(target=submit, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        batcher.stop()
    assert len(outcomes) == 30
    operators = Counter(
        name.lower() for narration in outcomes for step in narration.steps for name in step.operator_names
    )
    assert facade._operator_counts == operators
    neural_steps = sum(
        step.generator == "neural" for narration in outcomes for step in narration.steps
    )
    assert sum(facade.neural._act_exposure.values()) == neural_steps
