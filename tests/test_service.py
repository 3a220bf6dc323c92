"""LANTERN-SERVE: concurrent serving, micro-batching, admission control.

The load-bearing contracts: narrations served over HTTP under thread
contention are identical to direct ``Lantern`` calls; all wire formats go
through the auto-detecting registry; malformed payloads come back as
structured 400s; a full queue answers 429; and the shared decode cache keeps
hitting under contention.
"""

import json
import threading
import time

import pytest

from repro.core import Lantern, LanternConfig
from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts
from repro.core.narration import Narration
from repro.errors import ServiceOverloadError, ServiceTimeoutError
from repro.nlg.tokenizer import detokenize
from repro.service import (
    BatcherConfig,
    LanternClient,
    LanternServiceError,
    MicroBatcher,
    ServiceTelemetry,
    build_service,
)
from repro.service.telemetry import percentile

SQLS = [
    "SELECT count(*) FROM publication p WHERE p.year > 2003",
    "SELECT p.venue_key FROM publication p WHERE p.year > 1999 ORDER BY p.venue_key",
    (
        "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
        "WHERE i.paper_key = p.pub_key GROUP BY i.venue"
    ),
    "SELECT DISTINCT p.venue_key FROM publication p",
]

FORMATS = ("json", "xml", "mysql")


@pytest.fixture(scope="module")
def payloads(dblp_db) -> list[str]:
    """Mixed pg/mssql/mysql serializations of several plans."""
    produced = []
    for i, sql in enumerate(SQLS * 3):
        produced.append(dblp_db.explain(sql, output_format=FORMATS[i % 3]))
    return produced


@pytest.fixture(scope="module")
def rule_service(payloads):
    service = build_service(port=0)
    host, port = service.start()
    yield service, LanternClient(f"http://{host}:{port}")
    service.stop()


class TestEndpoints:
    def test_healthz(self, rule_service):
        _, client = rule_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert "mysql-json" in health["formats"]
        assert health["neural_attached"] is False

    def test_narrate_all_wire_formats(self, rule_service, payloads, dblp_db):
        service, client = rule_service
        for payload in payloads[:6]:
            result = client.narrate(payload)
            assert result["narration"]["steps"]
            assert result["narration"]["steps"][-1]["is_final"]
        # the parsed-tree wire format
        tree = service.lantern.plan_for_sql(dblp_db, SQLS[0])
        result = client.narrate(tree.to_dict())
        assert result["format"] == "operator-tree-json"
        assert result["narration"]["text"]

    def test_explicit_format_and_presentation(self, rule_service, payloads):
        _, client = rule_service
        result = client.narrate(payloads[0], plan_format="postgres-json", presentation="document")
        assert result["format"] == "postgres-json"
        assert result["rendered"].startswith("The query is executed as follows.")

    def test_malformed_plan_is_structured_400(self, rule_service):
        _, client = rule_service
        with pytest.raises(LanternServiceError) as excinfo:
            client.narrate("EXPLAIN says no")
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"] == "plan_format"
        assert "postgres-json" in excinfo.value.body["attempted_formats"]

    def test_malformed_plan_with_explicit_format_is_400(self, rule_service):
        _, client = rule_service
        for plan, plan_format in (
            ({"root": {}}, "operator-tree-json"),
            ("garbage", "tree"),
            ("{not json", "postgres-json"),
        ):
            with pytest.raises(LanternServiceError) as excinfo:
                client.narrate(plan, plan_format=plan_format)
            assert excinfo.value.status == 400
            assert excinfo.value.body["error"] == "plan_format"

    @pytest.mark.parametrize(
        "body, detail",
        [
            ({}, "plan"),
            ({"plan": "[]", "mode": "telepathic"}, "mode"),
            ({"plan": "[]", "presentation": "interpretive-dance"}, "presentation"),
        ],
    )
    def test_invalid_request_bodies(self, rule_service, body, detail):
        _, client = rule_service
        with pytest.raises(LanternServiceError) as excinfo:
            client._request("POST", "/narrate", body)
        assert excinfo.value.status == 400
        assert detail in excinfo.value.body["message"]

    def test_oversized_body_closes_the_connection(self, rule_service):
        """413 without draining the body must not desync a keep-alive
        stream: the server says Connection: close and means it."""
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        service, _ = rule_service
        host, port = service._httpd.server_address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/narrate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 10))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_post_path_query_string_is_ignored(self, rule_service, payloads):
        _, client = rule_service
        result = client._request(
            "POST", "/narrate?client=classroom-7", {"plan": payloads[0]}
        )
        assert result["narration"]["steps"]

    def test_unknown_paths_404(self, rule_service):
        _, client = rule_service
        for method, path in (("POST", "/decant"), ("GET", "/narrate")):
            with pytest.raises(LanternServiceError) as excinfo:
                client._request(method, path, {"plan": "[]"} if method == "POST" else None)
            assert excinfo.value.status == 404

    def test_metrics_shape(self, rule_service):
        _, client = rule_service
        metrics = client.metrics()
        assert metrics["requests"]["total"] >= 1
        assert {"p50", "p90", "p99"} <= metrics["latency_ms"].keys()
        assert metrics["batching"]["batches"] >= 1
        assert "rule_memo" in metrics  # deterministic default narrator


class TestConcurrentRuleServing:
    THREADS = 8
    ROUNDS = 4

    def test_contended_narrations_match_direct_calls(self, rule_service, payloads):
        """N threads hammering mixed formats get exactly what a direct,
        single-threaded Lantern would have produced for each payload."""
        service, client = rule_service
        reference = Lantern(config=LanternConfig(seed=None))
        expected = {
            payload: reference.describe_plan(reference.parse_plan(payload)).text
            for payload in payloads
        }
        failures: list[str] = []

        def hammer(offset: int) -> None:
            mine = payloads[offset::2] * self.ROUNDS
            for payload in mine:
                served = client.narrate(payload)["narration"]["text"]
                if served != expected[payload]:
                    failures.append(f"mismatch for payload[{offset}]")

        threads = [
            threading.Thread(target=hammer, args=(i % 2,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        metrics = client.metrics()
        assert metrics["requests"]["by_status"].get("500", 0) == 0
        assert metrics["rule_memo"]["hit_rate"] > 0.5  # repeated shapes memoize


@pytest.fixture(scope="module")
def neural_service(trained_neural, payloads):
    """A service with the trained generator attached (fresh shared state)."""
    exposure_before = dict(trained_neural._act_exposure)
    trained_neural._act_exposure.clear()
    trained_neural.decode_cache.clear()
    facade = Lantern(neural=trained_neural, config=LanternConfig(seed=None))
    service = build_service(lantern=facade, port=0)
    host, port = service.start()
    yield service, LanternClient(f"http://{host}:{port}")
    service.stop()
    trained_neural.decode_cache.clear()
    trained_neural._act_exposure.clear()
    trained_neural._act_exposure.update(exposure_before)


class TestNeuralServing:
    def test_sequential_neural_parity_with_direct_calls(
        self, neural_service, payloads, trained_neural
    ):
        """One client, fixed order: served neural narrations are
        token-identical to direct describe_plan calls from fresh state."""
        service, client = neural_service
        trained_neural._act_exposure.clear()
        trained_neural.decode_cache.clear()
        served = [
            client.narrate(payload, mode="neural")["narration"]["text"]
            for payload in payloads
        ]
        trained_neural._act_exposure.clear()
        trained_neural.decode_cache.clear()
        reference = Lantern(neural=trained_neural, config=LanternConfig(seed=None))
        direct = [
            reference.describe_plan(reference.parse_plan(payload), mode="neural").text
            for payload in payloads
        ]
        assert served == direct

    def test_contended_neural_serving_hits_cache(
        self, neural_service, payloads, trained_neural
    ):
        """Under contention the exact wording depends on arrival order (the
        anti-boredom cycle), so each served step must equal one of the ranked
        beam finalizations for that step — and the shared decode cache must
        keep serving hits."""
        service, client = neural_service
        reference = Lantern(config=LanternConfig(seed=None))
        acceptable: dict[str, list[set[str]]] = {}
        for payload in payloads:
            narration = reference.describe_plan(reference.parse_plan(payload))
            acts = align_acts_with_narration(
                decompose_lot_into_acts(narration.lot), narration
            )
            per_step = []
            for act, step in zip(acts, narration.steps):
                candidates = trained_neural.model.beam_decode_candidates(
                    act.input_tokens(), beam_size=trained_neural._effective_beam_size()
                )
                per_step.append(
                    {
                        trained_neural._finalize(detokenize(tokens), step)
                        for tokens in candidates
                        if tokens
                    }
                )
            acceptable[payload] = per_step

        trained_neural.decode_cache.clear()
        failures: list[str] = []

        def hammer(offset: int) -> None:
            for payload in payloads[offset::2] * 3:
                steps = client.narrate(payload, mode="neural")["narration"]["steps"]
                for index, step in enumerate(steps):
                    if step["text"] not in acceptable[payload][index]:
                        failures.append(f"step {index} off-beam for payload[{offset}]")

        threads = [threading.Thread(target=hammer, args=(i % 2,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        cache_stats = client.metrics()["decode_cache"]
        assert cache_stats["hit_rate"] > 0
        assert cache_stats["hits"] > 0


    def test_decode_counters_in_metrics(self, neural_service, payloads, trained_neural):
        """``/metrics`` carries the decoder's steps, rows and joins, in JSON
        and as Prometheus counters; a rule-only service reports none."""
        from repro.obs import validate_exposition

        _, client = neural_service
        trained_neural.decode_cache.clear()
        before = client.metrics()["decode"]
        client.narrate(payloads[0], mode="neural")
        decode = client.metrics()["decode"]
        assert set(decode) == {"steps", "rows", "joins"}
        assert decode["steps"] > before["steps"]
        assert decode["rows"] - before["rows"] >= decode["steps"] - before["steps"]
        text = client.prometheus_metrics()
        validate_exposition(text)
        for name in ("steps", "rows", "joins"):
            assert f"lantern_decode_{name}_total " in text
        rule_only = build_service(port=0)
        assert "decode" not in rule_only.metrics()
        assert "lantern_decode_steps_total" not in rule_only.prometheus_metrics()


class _BlockingLantern:
    """Stands in for a Lantern whose narration blocks until released."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.calls = 0

    def describe_plans(self, trees, mode, collect_errors=True, feed=None):
        self.calls += 1
        assert self.release.wait(timeout=30)
        return [Narration(steps=[]) for _ in trees]


class TestAdmissionControl:
    def test_full_queue_rejects_with_overload(self):
        lantern = _BlockingLantern()
        batcher = MicroBatcher(
            lantern, BatcherConfig(max_batch_size=1, max_queue_depth=2)
        )
        batcher.start()
        try:
            submitters = [
                threading.Thread(target=lambda: batcher.submit(object()), daemon=True)
                for _ in range(3)
            ]
            for submitter in submitters:
                submitter.start()
            deadline = time.monotonic() + 5
            # worker holds one request; two more fill the bounded queue
            while batcher.queue_depth < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert batcher.queue_depth == 2
            with pytest.raises(ServiceOverloadError, match="queue is full"):
                batcher.submit(object())
        finally:
            lantern.release.set()
            for submitter in submitters:
                submitter.join(timeout=5)
            batcher.stop()

    def test_slow_narration_times_out(self):
        lantern = _BlockingLantern()
        batcher = MicroBatcher(lantern, BatcherConfig(request_timeout_s=0.05))
        batcher.start()
        try:
            with pytest.raises(ServiceTimeoutError, match="not produced within"):
                batcher.submit(object())
        finally:
            lantern.release.set()
            batcher.stop()

    def test_submit_without_worker_fails_fast(self):
        batcher = MicroBatcher(_BlockingLantern())
        with pytest.raises(ServiceTimeoutError, match="not running"):
            batcher.submit(object())


class TestShutdown:
    def test_stop_fails_pending_requests_promptly(self):
        """Regression: requests that miss the drain window must not block
        their submitters for the full request_timeout_s."""
        lantern = _BlockingLantern()
        batcher = MicroBatcher(
            lantern, BatcherConfig(max_batch_size=1, request_timeout_s=30.0)
        )
        batcher.start()
        outcomes: list[object] = []

        def call() -> None:
            try:
                outcomes.append(batcher.submit(object()))
            except Exception as error:  # noqa: BLE001 - recorded for assertions
                outcomes.append(error)

        submitters = [threading.Thread(target=call, daemon=True) for _ in range(3)]
        for submitter in submitters:
            submitter.start()
        deadline = time.monotonic() + 5
        # the worker holds one request in flight; two more sit in the queue
        while (
            lantern.calls < 1 or batcher.queue_depth < 2
        ) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lantern.calls == 1
        assert batcher.queue_depth == 2

        started = time.monotonic()
        batcher.stop(drain_timeout_s=0.2)  # worker is blocked; drain expires
        stop_elapsed = time.monotonic() - started
        lantern.release.set()  # let the in-flight narration finish
        for submitter in submitters:
            submitter.join(timeout=5)
        assert not any(submitter.is_alive() for submitter in submitters)

        assert stop_elapsed < 5  # nowhere near request_timeout_s
        shutdown_errors = [
            outcome
            for outcome in outcomes
            if isinstance(outcome, ServiceTimeoutError) and "shut down" in str(outcome)
        ]
        assert len(shutdown_errors) == 2  # both queued requests failed promptly

    def test_start_does_not_resurrect_a_stuck_worker(self):
        """A worker stuck past the drain window keeps its slot: start() must
        not run a second worker alongside it (the facade's state is only
        safe under a single narration thread)."""
        lantern = _BlockingLantern()
        batcher = MicroBatcher(lantern, BatcherConfig(max_batch_size=1))
        batcher.start()
        first_worker = batcher._worker
        submitter = threading.Thread(
            target=lambda: batcher.submit(object()), daemon=True
        )
        submitter.start()
        deadline = time.monotonic() + 5
        while lantern.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lantern.calls == 1  # worker is now blocked mid-narration

        batcher.stop(drain_timeout_s=0.1)  # join expires; worker still stuck
        assert batcher._worker is first_worker  # reference kept ...
        batcher.start()
        assert batcher._worker is first_worker  # ... so start() is a no-op

        lantern.release.set()
        submitter.join(timeout=5)
        first_worker.join(timeout=5)
        assert not first_worker.is_alive()  # exits on its own once unblocked

    def test_submit_rechecks_liveness_after_enqueue(self):
        """Regression: a worker dying between the aliveness check and the
        enqueue must not strand the request until its timeout."""
        lantern = _BlockingLantern()
        batcher = MicroBatcher(lantern)
        hold = threading.Event()
        fake_worker = threading.Thread(target=hold.wait, daemon=True)
        fake_worker.start()
        batcher._worker = fake_worker  # alive at the pre-check ...

        real_put = batcher._queue.put_nowait

        def racing_put(request):
            real_put(request)
            hold.set()  # ... dead right after the enqueue
            fake_worker.join(timeout=5)

        batcher._queue.put_nowait = racing_put
        started = time.monotonic()
        with pytest.raises(ServiceTimeoutError, match="worker exited"):
            batcher.submit(object(), timeout_s=10.0)
        assert time.monotonic() - started < 5  # failed fast, not at timeout_s

        # the orphan is still queued but already answered: a restarted worker
        # must drain it WITHOUT narrating it for a submitter that left
        batcher._queue.put_nowait = real_put
        lantern.release.set()
        batcher.start()
        deadline = time.monotonic() + 5
        while batcher.queue_depth and time.monotonic() < deadline:
            time.sleep(0.005)
        assert batcher.queue_depth == 0
        assert lantern.calls == 0  # skipped, not decoded
        batcher.stop()


class TestMemoryMetrics:
    def test_rss_reported_for_rule_service(self, rule_service):
        _, client = rule_service
        memory = client.metrics()["memory"]
        assert memory["rss_bytes"] > 0
        assert "weights_bytes" not in memory  # no neural generator attached

    def test_weights_footprint_and_mmap_flag(self, trained_neural, tmp_path):
        """LANTERN-ZERO observability: /metrics must say how big the model
        is and whether its pages are mmap-shared with the checkpoint file."""
        from repro.nlg.neural_lantern import NeuralLantern
        from repro.nlg.persistence import load_qep2seq, save_qep2seq
        from repro.service.server import LanternService

        facade = Lantern(
            neural=NeuralLantern(trained_neural.model, beam_size=2),
            config=LanternConfig(seed=None),
        )
        private = LanternService(lantern=facade).memory_info()
        assert private["weights_bytes"] > 0
        assert private["weights_parameter_count"] == trained_neural.model.parameter_count()
        assert private["weights_mmap_shared"] is False

        target = save_qep2seq(trained_neural.model, tmp_path / "mapped", weights_layout="mmap")
        mapped_facade = Lantern(
            neural=NeuralLantern(load_qep2seq(target), beam_size=2),
            config=LanternConfig(seed=None),
        )
        shared = LanternService(lantern=mapped_facade).memory_info()
        assert shared["weights_mmap_shared"] is True
        assert shared["weights_bytes"] == private["weights_bytes"]


class TestKeepAliveClient:
    def test_connection_is_reused_across_requests(self, rule_service, payloads):
        service, _ = rule_service
        host, port = service._httpd.server_address
        with LanternClient(f"http://{host}:{port}") as client:
            client.healthz()
            first_socket = client._connection.sock
            assert first_socket is not None
            client.narrate(payloads[0])
            client.metrics()
            assert client._connection.sock is first_socket  # same TCP stream

    def test_keep_alive_false_closes_per_request(self, rule_service):
        service, _ = rule_service
        host, port = service._httpd.server_address
        client = LanternClient(f"http://{host}:{port}", keep_alive=False)
        client.healthz()
        assert client._connection is None

    def test_stale_connection_is_retried_transparently(self, rule_service, payloads):
        """A kept-alive socket the peer (or an idle timeout) tore down must
        not surface as an error — the request is replayed on a fresh
        connection, exactly once, and only because it never reached a live
        server socket."""
        service, _ = rule_service
        host, port = service._httpd.server_address
        with LanternClient(f"http://{host}:{port}") as client:
            client.healthz()
            client._connection.sock.close()  # simulate server-side teardown
            result = client.narrate(payloads[0])
            assert result["narration"]["text"]

    def test_fresh_connection_failure_is_not_retried(self):
        """Against a dead endpoint the first attempt is on a FRESH
        connection, so the client fails immediately with ServiceError."""
        from repro.errors import ServiceError

        client = LanternClient("http://127.0.0.1:9")  # discard port: nothing listens
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_close_is_idempotent_and_reopens_lazily(self, rule_service):
        service, _ = rule_service
        host, port = service._httpd.server_address
        client = LanternClient(f"http://{host}:{port}")
        client.close()
        client.close()
        assert client.healthz()["status"] == "ok"  # reconnects on demand
        client.close()


def _heavy_plan() -> dict:
    """A 13-relation hash-join chain under Sort+Aggregate: enough narration
    work that the traced stages dominate the request's fixed overheads."""

    def scan(relation: str) -> dict:
        return {"Node Type": "Seq Scan", "Relation Name": relation}

    plan = scan("author")
    for index, relation in enumerate(
        ["publication", "writes", "venue", "cite", "domain", "conference",
         "journal", "keyword", "affiliation", "topic", "citation", "series"]
    ):
        plan = {
            "Node Type": "Hash Join",
            "Hash Cond": f"(t{index}.id = {relation}.id)",
            "Plans": [plan, {"Node Type": "Hash", "Plans": [scan(relation)]}],
        }
    return {
        "Plan": {
            "Node Type": "Aggregate",
            "Strategy": "Hashed",
            "Plans": [{"Node Type": "Sort", "Sort Key": ["x"], "Plans": [plan]}],
        }
    }


class TestTracing:
    REQUIRED_STAGES = {"admission", "queue_wait", "batch_assembly", "decode", "respond"}

    def test_single_narrate_yields_complete_trace(self):
        """Acceptance: one POST /narrate produces a retrievable span tree
        covering admission → queue wait → batch assembly → decode (with
        cache and precision tags) → respond, whose stage durations tile the
        recorded end-to-end latency to within 10%."""
        service = build_service(port=0)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            traces = []
            for _ in range(3):  # the ratio check keeps the best of three
                result = client.narrate(_heavy_plan())
                assert result["narration"]["steps"]
                trace_id = result["trace_id"]
                document = client.trace()
                assert document["enabled"] is True
                (trace,) = [
                    candidate
                    for candidate in document["slowest"]
                    if candidate["trace_id"] == trace_id
                ]
                traces.append(trace)

            ratios = []
            for trace in traces:
                assert trace["name"] == "POST /narrate"
                assert trace["tags"]["status"] == 200
                children = {child["name"]: child for child in trace["children"]}
                assert self.REQUIRED_STAGES <= children.keys()
                decode = children["decode"]["tags"]
                assert decode["batch_size"] >= 1
                assert decode["mode"] == "rule"
                assert decode["precision"] == "rule"  # no neural generator
                assert decode["cache_hits"] >= 0 and decode["cache_misses"] >= 0
                stage_sum = sum(child["duration_ms"] for child in trace["children"])
                assert stage_sum <= trace["duration_ms"] * 1.001  # stages nest inside
                ratios.append(stage_sum / trace["duration_ms"])
            assert max(ratios) >= 0.90, f"stage coverage too low: {ratios}"
        finally:
            client.close()
            service.stop()

    def test_trace_endpoint_shape_and_limit(self, rule_service, payloads):
        _, client = rule_service
        client.narrate(payloads[0])
        client.narrate(payloads[1])
        document = client.trace(limit=1)
        assert document["completed"] >= 2
        assert len(document["slowest"]) == 1
        root = document["slowest"][0]
        assert root["trace_id"] and root["children"]

    def test_tracing_can_be_disabled(self, payloads):
        service = build_service(port=0, tracing_enabled=False)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            result = client.narrate(payloads[0])
            assert "trace_id" not in result
            document = client.trace()
            assert document["enabled"] is False
            assert document["slowest"] == []
        finally:
            client.close()
            service.stop()

    def test_trace_log_writes_sampled_jsonl(self, payloads, tmp_path):
        from repro.obs import read_events

        log_path = tmp_path / "traces.jsonl"
        service = build_service(port=0, trace_log=str(log_path), trace_log_every=2)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            for _ in range(4):
                client.narrate(payloads[0])
        finally:
            client.close()
            service.stop()  # closes the log
        events = list(read_events(log_path))
        assert len(events) == 2  # every 2nd of 4
        assert all(event["event"] == "trace" for event in events)
        assert all(event["name"] == "POST /narrate" for event in events)


class TestObservabilityEndpoints:
    def test_prometheus_exposition_parses(self, rule_service, payloads):
        from repro.obs import validate_exposition

        _, client = rule_service
        client.narrate(payloads[0])
        text = client.prometheus_metrics()
        assert validate_exposition(text) > 20
        for needle in (
            'lantern_requests_total{endpoint="/narrate"}',
            'lantern_request_latency_seconds_bucket{endpoint="/narrate",le="+Inf"}',
            'lantern_stage_latency_seconds_bucket{stage="decode"',
            "lantern_batches_total",
            "lantern_batches_failed_total 0",
            "lantern_queue_depth 0",
            'lantern_rule_memo_lookups_total{outcome="hit"}',
        ):
            assert needle in text, f"missing {needle}"

    def test_endpoint_breakdown_keeps_narrate_percentiles_clean(
        self, rule_service, payloads
    ):
        _, client = rule_service
        client.narrate(payloads[0])
        client.healthz()
        client.metrics()  # a scrape is itself recorded — visible next scrape
        metrics = client.metrics()
        by_endpoint = metrics["requests"]["by_endpoint"]
        assert by_endpoint["/narrate"] >= 1
        assert by_endpoint["/healthz"] >= 1
        assert by_endpoint["/metrics"] >= 1
        # the headline latency document counts only /narrate successes
        assert 1 <= metrics["latency_ms"]["count"] <= by_endpoint["/narrate"]
        assert metrics["latency_ms"] == metrics["latency_ms_by_endpoint"]["/narrate"]
        assert "/healthz" in metrics["latency_ms_by_endpoint"]
        assert set(metrics["stages"]) >= {"admission", "decode", "respond"}
        assert metrics["tracing"]["enabled"] is True

    def test_batch_failures_are_counted_by_error_class(self, payloads):
        class _ExplodingLantern(Lantern):
            def describe_plans(self, trees, mode, collect_errors=True, feed=None):
                raise RuntimeError("decoder fell over")

        service = build_service(lantern=_ExplodingLantern(), port=0)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            with pytest.raises(LanternServiceError) as excinfo:
                client.narrate(payloads[0])
            assert excinfo.value.status == 500
            metrics = client.metrics()
            assert metrics["batching"]["batches_failed"] == 1
            assert metrics["batching"]["batch_errors"] == {"RuntimeError": 1}
            assert "lantern_batches_failed_total 1" in client.prometheus_metrics()
        finally:
            client.close()
            service.stop()


class TestTelemetry:
    def test_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == pytest.approx(50.5)
        assert percentile(values, 0.99) == pytest.approx(99.01)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.9) == 7.0

    def test_snapshot_aggregates(self):
        telemetry = ServiceTelemetry()
        telemetry.record_request(200, 0.010, plan_format="postgres-json", mode="rule")
        telemetry.record_request(429, 0.001)
        telemetry.record_batch(4)
        snapshot = telemetry.snapshot(decode_cache_stats={"hits": 1}, queue_depth=3)
        assert snapshot["requests"]["total"] == 2
        assert snapshot["requests"]["rejected_overload"] == 1
        assert snapshot["requests"]["by_format"] == {"postgres-json": 1}
        assert snapshot["latency_ms"]["count"] == 1  # only 200s count
        assert snapshot["batching"]["avg_batch_size"] == 4
        assert snapshot["batching"]["queue_depth"] == 3
        assert snapshot["decode_cache"] == {"hits": 1}


def _unknown_source_plan() -> dict:
    """An operator-tree wire plan that parses but cannot be narrated (no
    POEM catalog for its source)."""
    return {
        "source": "oracle",
        "root": {"name": "Seq Scan", "attributes": {"relation": "a"}, "children": []},
    }


def _plan_outcome(client, plan, batch: bool) -> tuple[int, dict]:
    """(status, error body) a client sees for one plan, sent alone or as the
    only item of a batch (a batch refused whole reports the envelope)."""
    body = {"plans": [plan]} if batch else {"plan": plan}
    status, payload = client.request_json("POST", "/narrate", body)
    if batch and status == 200:
        (item,) = payload["results"]
        return item.pop("status", 200), item
    return status, payload


class TestErrorContractParity:
    """A single request and the same plan as a batch item answer with the
    same status and error code: one pipeline, one error table."""

    @pytest.mark.parametrize(
        "plan, status, error",
        [
            ("EXPLAIN says no", 400, "plan_format"),
            ({"Plan": {"Node Type": 5}}, 400, "plan_format"),
            (_unknown_source_plan(), 400, "narration"),
        ],
    )
    def test_bad_plans(self, rule_service, plan, status, error):
        _, client = rule_service
        single = _plan_outcome(client, plan, batch=False)
        item = _plan_outcome(client, plan, batch=True)
        assert single[0] == item[0] == status
        assert single[1]["error"] == item[1]["error"] == error

    def test_draining(self):
        service = build_service(port=0)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            service.begin_drain()
            plan = {"Plan": {"Node Type": "Seq Scan", "Relation Name": "author"}}
            single = _plan_outcome(client, plan, batch=False)
            item = _plan_outcome(client, plan, batch=True)
            assert single[0] == item[0] == 503
            assert single[1]["error"] == item[1]["error"] == "draining"
        finally:
            client.close()
            service.stop()

    def test_full_queue(self):
        """Overload is a 429 with ``retry_after_s`` both ways, and the
        single response also carries the ``Retry-After`` header."""
        import http.client

        service = build_service(port=0, max_batch_size=1, max_queue_depth=1)
        gate = threading.Event()
        entered = threading.Event()
        original = service.lantern.describe_plans

        def gated(*args, **kwargs):
            entered.set()
            gate.wait(timeout=10.0)
            return original(*args, **kwargs)

        service.lantern.describe_plans = gated
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        plan = {"Plan": {"Node Type": "Seq Scan", "Relation Name": "author"}}
        blocked = [
            threading.Thread(
                target=lambda: LanternClient(f"http://{host}:{port}").request_json(
                    "POST", "/narrate", {"plan": plan}
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        try:
            blocked[0].start()
            assert entered.wait(timeout=5.0), "request never reached the decode worker"
            blocked[1].start()
            deadline = time.monotonic() + 5.0
            while service.batcher.queue_depth < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.batcher.queue_depth == 1  # the queue is now full

            single = _plan_outcome(client, plan, batch=False)
            item = _plan_outcome(client, plan, batch=True)
            assert single[0] == item[0] == 429
            assert single[1]["error"] == item[1]["error"] == "overloaded"
            assert single[1]["retry_after_s"] == item[1]["retry_after_s"] == 1

            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request(
                    "POST", "/narrate", body=json.dumps({"plan": plan}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                assert response.getheader("Retry-After") == "1"
            finally:
                connection.close()
        finally:
            gate.set()
            for thread in blocked:
                thread.join(timeout=10.0)
            service.lantern.describe_plans = original
            client.close()
            service.stop()

    def test_batch_items_carry_the_single_response_fields(self, rule_service, payloads):
        _, client = rule_service
        single = client.narrate(payloads[0], presentation="document")
        envelope = client.narrate_batch([payloads[0]], presentation="document")
        (item,) = envelope["results"]
        assert set(single) - {"trace_id"} == set(item)
        assert set(item) == {"narration", "format", "mode", "latency_ms", "rendered"}


def _post_raw(host: str, port: int, data: bytes) -> tuple[int, dict]:
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", "/narrate", body=data, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


#: a JSON body nested deeper than the decoder can recurse
DEEP_BODY = ("[" * 50000 + "]" * 50000).encode("ascii")


def test_deeply_nested_body_is_a_bad_request(rule_service):
    service, client = rule_service
    host, port = service._httpd.server_address
    status, body = _post_raw(host, port, DEEP_BODY)
    assert status == 400
    assert body["error"] == "bad_request"
    assert client.healthz()["status"] == "ok"
