"""LANTERN-FLEET tests: routing invariants, lifecycle, and the live fleet.

Three layers, cheapest first:

* pure-function tests of the consistent-hash ring and the routing
  signature (stickiness, minimal key movement under churn, cross-
  serialization stability);
* in-process fleet-worker :class:`LanternService` tests (draining health, the
  ``/admin/*`` surface, the decode-cache handoff wire format);
* a real two-worker fleet over HTTP: shard stickiness, batch
  split/rejoin, trace grafting, metric aggregation, worker kill →
  reroute → respawn, and draining rolling restarts.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Lantern
from repro.core.lantern import LanternConfig
from repro.nlg.cache import DecodeCache
from repro.errors import CacheFormatError, ServiceError
from repro.plans.registry import default_registry
from repro.service.client import LanternClient, LanternServiceError
from repro.service.fleet import (
    ConsistentHashRing,
    FleetConfig,
    LanternFleet,
    plan_routing_signature,
)
from repro.service.server import LanternService, ServiceConfig, build_service


def _scan(relation: str, **extra) -> dict:
    node = {"Node Type": "Seq Scan", "Relation Name": relation}
    node.update(extra)
    return node


def _join_plan(left: str = "author", right: str = "publication") -> dict:
    """PostgreSQL EXPLAIN JSON: filtered scan ⋈ scan under a hash join."""
    return {
        "Plan": {
            "Node Type": "Hash Join",
            "Hash Cond": f"({left}.id = {right}.id)",
            "Plans": [
                _scan(left, Filter="(year > 2000)"),
                {"Node Type": "Hash", "Plans": [_scan(right)]},
            ],
        }
    }


def _sort_plan(relation: str = "venue") -> dict:
    return {
        "Plan": {
            "Node Type": "Sort",
            "Sort Key": [f"{relation}.name"],
            "Plans": [_scan(relation)],
        }
    }


# ---------------------------------------------------------------------------
# routing signature
# ---------------------------------------------------------------------------


class TestRoutingSignature:
    def test_serialization_independent(self):
        """The same logical plan hashes identically whether it arrives as
        PostgreSQL EXPLAIN JSON or as the operator-tree wire dict."""
        registry = default_registry()
        tree = registry.parse(_join_plan())
        from_pg = plan_routing_signature(tree)
        from_wire = plan_routing_signature(registry.parse(tree.to_dict()))
        assert from_pg == from_wire

    def test_relations_are_abstracted(self):
        """Plans with the same shape over different tables share a signature
        (they share decode-cache entries, so they must share a shard)."""
        registry = default_registry()
        one = plan_routing_signature(registry.parse(_join_plan("author", "publication")))
        other = plan_routing_signature(registry.parse(_join_plan("cite", "venue")))
        assert one == other

    def test_structure_is_not_abstracted(self):
        """Different structural tags (an extra filter) change the signature."""
        registry = default_registry()
        filtered = plan_routing_signature(registry.parse(_join_plan()))
        plain = _join_plan()
        del plain["Plan"]["Plans"][0]["Filter"]
        unfiltered = plan_routing_signature(registry.parse(plain))
        assert filtered != unfiltered
        assert plan_routing_signature(
            registry.parse(_sort_plan())
        ) != plan_routing_signature(registry.parse(_join_plan()))

    def test_router_computes_a_repeated_text_plans_signature_once(self, monkeypatch):
        """The router keeps the signature of each tree the ingest memo hands
        out; decoded plans are signed afresh every time."""
        import json

        from repro.service.fleet import router

        fleet = LanternFleet(FleetConfig(num_workers=1))
        text = json.dumps(_join_plan())
        expected = plan_routing_signature(default_registry().parse(text))
        calls = []

        def counting(tree):
            calls.append(tree)
            return plan_routing_signature(tree)

        monkeypatch.setattr(router, "plan_routing_signature", counting)
        assert [fleet.signature_of(text) for _ in range(3)] == [expected] * 3
        assert len(calls) == 1
        assert fleet.signature_of(json.loads(text)) == expected
        assert fleet.signature_of(json.loads(text)) == expected
        assert len(calls) == 3
        assert len(fleet._signatures) == 1


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------


KEYS = [f"signature-{i}" for i in range(400)]


class TestConsistentHashRing:
    def test_routing_is_deterministic_across_instances(self):
        """Two independently built rings agree on every key — a restarted
        router reconstructs the same shard map."""
        a = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        b = ConsistentHashRing(["w3", "w1", "w0", "w2"])  # insertion order differs
        assert [a.route(key) for key in KEYS] == [b.route(key) for key in KEYS]

    def test_minimal_movement_on_leave(self):
        """Removing one worker moves ONLY the keys it owned; every other
        key keeps its worker (warm caches stay warm)."""
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        before = {key: ring.route(key) for key in KEYS}
        ring.remove("w1")
        after = {key: ring.route(key) for key in KEYS}
        for key in KEYS:
            if before[key] != "w1":
                assert after[key] == before[key]
            else:
                assert after[key] != "w1"

    def test_minimal_movement_on_join(self):
        """Adding a worker steals keys only FOR the new worker — no key
        moves between two surviving workers."""
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        before = {key: ring.route(key) for key in KEYS}
        ring.add("w3")
        after = {key: ring.route(key) for key in KEYS}
        moved = [key for key in KEYS if after[key] != before[key]]
        assert moved, "a new worker must take over part of the keyspace"
        assert all(after[key] == "w3" for key in moved)

    def test_rejoin_restores_original_assignment(self):
        """leave + rejoin is a no-op: a respawned worker (same id) gets back
        exactly its old shard, which is what makes the cache handoff to a
        same-id successor coherent."""
        ring = ConsistentHashRing(["w0", "w1", "w2"])
        before = {key: ring.route(key) for key in KEYS}
        ring.remove("w2")
        ring.add("w2")
        assert {key: ring.route(key) for key in KEYS} == before

    def test_distribution_is_roughly_balanced(self):
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        counts = ring.distribution(KEYS)
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        for node, count in counts.items():
            share = count / len(KEYS)
            assert 0.05 <= share <= 0.55, f"{node} owns {share:.0%} of the keyspace"

    def test_empty_ring_and_idempotent_topology(self):
        ring = ConsistentHashRing()
        assert ring.route("anything") is None
        ring.add("w0")
        ring.add("w0")  # idempotent
        assert len(ring) == 1
        assert ring.route("anything") == "w0"
        ring.remove("missing")  # idempotent
        ring.remove("w0")
        assert ring.route("anything") is None


# ---------------------------------------------------------------------------
# draining health (satellite fix: /healthz must expose drain as 503)
# ---------------------------------------------------------------------------


class TestDrainingHealth:
    def test_begin_drain_flips_healthz_to_503_and_refuses_narrations(self):
        service = build_service(port=0)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            assert client.healthz()["status"] == "ok"
            service.begin_drain()
            status, health = client.request_json("GET", "/healthz")
            assert status == 503
            assert health["status"] == "draining"
            with pytest.raises(LanternServiceError) as excinfo:
                client.narrate(_join_plan())
            assert excinfo.value.status == 503
            assert excinfo.value.body["error"] == "draining"
        finally:
            client.close()
            service.stop()

    def test_batcher_drain_reports_draining_while_finishing_queue(self):
        """During MicroBatcher drain (stop requested, worker still finishing
        queued narrations) /healthz must say draining, not ok — the fleet
        router takes the worker out of rotation before it goes silent."""
        service = build_service(port=0)
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
        submitted = threading.Thread(
            target=lambda: client.request_json("POST", "/narrate", {"plan": _join_plan()})
        )
        submitted.start()
        try:
            assert entered.wait(timeout=5.0), "request never reached the decode worker"
            service.batcher._stopping.set()  # what stop() does first
            assert service.healthz()["status"] == "draining"
            assert service.batcher.draining
        finally:
            gate.set()
            submitted.join(timeout=10.0)
            service.lantern.describe_plans = original
            client.close()
            service.stop()


# ---------------------------------------------------------------------------
# worker admin surface (in-process LanternService with an instance_id, over HTTP)
# ---------------------------------------------------------------------------


class TestWorkerAdmin:
    @pytest.fixture()
    def worker(self):
        service = build_service(port=0, instance_id="wx")
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        yield service, client
        client.close()
        service.stop()

    def test_identity_in_health_and_metrics(self, worker):
        _, client = worker
        assert client.healthz()["worker_id"] == "wx"
        assert client.metrics()["worker_id"] == "wx"

    def test_admin_drain(self, worker):
        _, client = worker
        status, body = client.request_json("POST", "/admin/drain", {})
        assert (status, body["status"], body["worker_id"]) == (200, "draining", "wx")
        status, health = client.request_json("GET", "/healthz")
        assert (status, health["status"]) == (503, "draining")

    def test_admin_cache_without_neural(self, worker):
        _, client = worker
        status, exported = client.request_json("GET", "/admin/cache")
        assert status == 200
        assert exported["entries"] == [] and exported["neural_attached"] is False
        status, summary = client.request_json("POST", "/admin/cache", {"entries": []})
        assert status == 200 and summary["imported"] == 0

    @pytest.mark.parametrize("body", [[1], "x", 5])
    def test_admin_cache_non_object_body_is_a_bad_request(self, worker, body):
        _, client = worker
        status, reply = client.request_json("POST", "/admin/cache", body)
        assert (status, reply["error"]) == (400, "bad_request")

    def test_unknown_admin_paths_404(self, worker):
        _, client = worker
        assert client.request_json("POST", "/admin/bogus", {})[0] == 404
        assert client.request_json("GET", "/admin/bogus")[0] == 404

    def test_a_service_without_instance_id_serves_no_admin_routes(self):
        """The admin routes are a fleet worker's: a plain service 404s them."""
        service = build_service(port=0)
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            for method, path in (
                ("POST", "/admin/drain"),
                ("GET", "/admin/cache"),
                ("POST", "/admin/cache"),
            ):
                body = {} if method == "POST" else None
                status, reply = client.request_json(method, path, body)
                assert (status, reply["error"]) == (404, "not_found"), (method, path)
            assert client.healthz()["status"] == "ok"
        finally:
            client.close()
            service.stop()


# ---------------------------------------------------------------------------
# decode-cache handoff (the predecessor→successor snapshot protocol)
# ---------------------------------------------------------------------------


class TestCacheHandoff:
    def test_export_import_round_trip_restores_warm_entries(self, trained_neural):
        """A successor importing its predecessor's snapshot serves the same
        workload from cache — the handoff preserves keys, candidates, and
        LRU order across the JSON wire format."""
        exposure_before = dict(trained_neural._act_exposure)
        trained_neural._act_exposure.clear()
        trained_neural.decode_cache.clear()
        facade = Lantern(neural=trained_neural, config=LanternConfig(seed=None))
        service = LanternService(facade, config=ServiceConfig(port=0, instance_id="wA"))
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            for payload in (_join_plan(), _sort_plan()):
                client.narrate(payload, mode="neural")
            status, snapshot = client.request_json("GET", "/admin/cache")
            assert status == 200 and snapshot["worker_id"] == "wA"
            assert snapshot["count"] == len(snapshot["entries"]) > 0
            exported = trained_neural.decode_cache.export_entries()

            # simulate the cold successor: same model, empty cache
            trained_neural.decode_cache.clear()
            assert len(trained_neural.decode_cache) == 0
            status, summary = client.request_json("POST", "/admin/cache", snapshot)
            assert status == 200
            assert summary["imported"] == snapshot["count"]
            assert trained_neural.decode_cache.export_entries() == exported

            # the warmed successor answers the same workload from cache
            before = trained_neural.decode_cache.stats()["hits"]
            client.narrate(_join_plan(), mode="neural")
            assert trained_neural.decode_cache.stats()["hits"] > before
        finally:
            client.close()
            service.stop()
            trained_neural.decode_cache.clear()
            trained_neural._act_exposure.clear()
            trained_neural._act_exposure.update(exposure_before)

    def test_import_rejects_malformed_entries(self):
        cache = DecodeCache()
        cache.put((("seqscan",), 2, "float64:none"), [["rows", "are", "read"]])
        before = cache.export_entries()
        valid = [["hashjoin"], 2, "float64:none", [["rows", "are", "joined"]]]
        with pytest.raises(CacheFormatError):
            # the first row is valid: an import is all-or-nothing
            cache.import_rows([valid, ["bad"], 42], "float64:none")
        assert cache.export_entries() == before

    @pytest.mark.parametrize("poison", ["xyz", [[1, 2]]], ids=["string", "int-tokens"])
    def test_poisoned_snapshot_is_rejected_and_serving_unchanged(self, trained_neural, poison):
        """Candidates that are not lists of strings once imported and then
        narrated as ``"x. x. x."`` or failed with a 500; now the snapshot is
        a 400 and the next narration is the one served before the POST."""
        exposure_before = dict(trained_neural._act_exposure)
        trained_neural._act_exposure.clear()
        trained_neural.decode_cache.clear()
        facade = Lantern(neural=trained_neural, config=LanternConfig(seed=None))
        service = LanternService(facade, config=ServiceConfig(port=0, instance_id="wP"))
        host, port = service.start()
        client = LanternClient(f"http://{host}:{port}")
        try:
            expected = client.narrate(_join_plan(), mode="neural")["narration"]
            _, snapshot = client.request_json("GET", "/admin/cache")
            exported = trained_neural.decode_cache.export_entries()
            poisoned = [row[:3] + [poison] for row in snapshot["entries"]]
            status, reply = client.request_json("POST", "/admin/cache", {"entries": poisoned})
            assert (status, reply["error"]) == (400, "bad_request")
            assert trained_neural.decode_cache.export_entries() == exported
            trained_neural._act_exposure.clear()
            assert client.narrate(_join_plan(), mode="neural")["narration"] == expected
        finally:
            client.close()
            service.stop()
            trained_neural.decode_cache.clear()
            trained_neural._act_exposure.clear()
            trained_neural._act_exposure.update(exposure_before)


# ---------------------------------------------------------------------------
# the live fleet
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_fleet():
    """One real router + two spawned worker processes (rule narration)."""
    fleet = LanternFleet(
        FleetConfig(num_workers=2, port=0, heartbeat_interval_s=0.2, snapshot_every=0)
    )
    host, port = fleet.start()
    client = LanternClient(f"http://{host}:{port}", timeout_s=60.0)
    yield fleet, client
    client.close()
    fleet.stop()


class TestFleetRouting:
    def test_single_narrate_carries_worker_and_trace(self, live_fleet):
        _, client = live_fleet
        result = client.narrate(_join_plan())
        assert result["narration"]["text"]
        assert result["worker_id"] in {"w0", "w1"}
        assert result["trace_id"]

    def test_same_signature_is_sticky(self, live_fleet):
        fleet, client = live_fleet
        owners = {client.narrate(_join_plan())["worker_id"] for _ in range(4)}
        assert len(owners) == 1
        # the reported worker is exactly the ring's assignment
        signature = plan_routing_signature(fleet.registry.parse(_join_plan()))
        assert owners == {fleet.ring.route(signature)}

    def test_batch_split_rejoin_preserves_order_and_trace(self, live_fleet):
        fleet, client = live_fleet
        plans = [_join_plan(), _sort_plan(), _join_plan(), {"bogus": 1}, _sort_plan()]
        envelope = client.narrate_batch(plans)
        assert envelope["count"] == 5
        results = envelope["results"]
        assert len(results) == 5
        # order: items 0/2 are the join shape, 1/4 the sort shape, 3 the error
        join_owner = fleet.ring.route(plan_routing_signature(fleet.registry.parse(_join_plan())))
        sort_owner = fleet.ring.route(plan_routing_signature(fleet.registry.parse(_sort_plan())))
        for index in (0, 2):
            assert results[index]["worker_id"] == join_owner
            relations = {
                relation
                for step in results[index]["narration"]["steps"]
                for relation in step["relations"]
            }
            assert {"author", "publication"} <= relations
        for index in (1, 4):
            assert results[index]["worker_id"] == sort_owner
            assert "venue" in results[index]["narration"]["text"]
        assert results[3]["error"] == "plan_format" and results[3]["status"] == 400
        assert sum(envelope["workers"].values()) == 4
        # every shard adopted the router's trace id: the grafted span trees
        # under GET /trace carry the same id as the envelope
        trace_id = envelope["trace_id"]
        document = client.trace(limit=fleet.config.trace_window)
        (router_trace,) = [
            trace for trace in document["slowest"] if trace["trace_id"] == trace_id
        ]
        grafted = router_trace.get("worker_spans", [])
        assert grafted, "worker span trees must be grafted under the router trace"
        assert {span["trace_id"] for span in grafted} == {trace_id}
        assert {span["worker_id"] for span in grafted} <= {"w0", "w1"}

    def test_router_healthz_and_aggregated_metrics(self, live_fleet):
        _, client = live_fleet
        health = client.healthz()
        assert health["status"] == "ok" and health["role"] == "router"
        assert set(health["workers"]) == {"w0", "w1"}
        assert all(doc["alive"] and doc["in_ring"] for doc in health["workers"].values())

        metrics = client.metrics()
        assert metrics["router"]["requests"]["total"] >= 1
        assert set(metrics["workers"]) == {"w0", "w1"}
        for worker_id, document in metrics["workers"].items():
            assert document["worker_id"] == worker_id
        per_shard = metrics["fleet"]["per_shard"]
        assert sum(shard["routed"] for shard in per_shard.values()) >= 1
        assert all("rule_memo_hit_rate" in shard for shard in per_shard.values())

        text = client.prometheus_metrics()
        for name in ("lantern_fleet_workers", "lantern_fleet_respawns_total",
                     "lantern_fleet_routed_total", "lantern_requests_total"):
            assert name in text

    def test_invalid_payloads_get_the_service_error_contract(self, live_fleet):
        _, client = live_fleet
        for body, expected_error in (
            ({"no_plan": 1}, "bad_request"),
            ({"plan": {"bogus": True}}, "plan_format"),
            ({"plans": []}, "bad_request"),
        ):
            status, payload = client.request_json("POST", "/narrate", body)
            assert status == 400
            assert payload["error"] == expected_error
        assert client.request_json("POST", "/elsewhere", {})[0] == 404


class TestFleetLifecycle:
    def test_kill_reroute_respawn_and_rolling_restart(self):
        """The full lifecycle story on one fleet: a killed worker's traffic
        is rerouted without a lost request, the heartbeat respawns it into
        the same shard, and a draining rolling restart bumps generations
        while the fleet keeps answering."""
        fleet = LanternFleet(
            FleetConfig(num_workers=2, port=0, heartbeat_interval_s=0.2, snapshot_every=2)
        )
        host, port = fleet.start()
        client = LanternClient(f"http://{host}:{port}", timeout_s=60.0)
        try:
            owner = client.narrate(_join_plan())["worker_id"]
            victim = fleet.workers[owner]
            victim.process.kill()
            victim.process.wait(timeout=10.0)

            # the very next request for that shard is rerouted, not lost
            rerouted = client.narrate(_join_plan())
            assert rerouted["narration"]["text"]
            assert rerouted["worker_id"] != owner

            # heartbeat respawns the worker id into the same shard
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                handle = fleet.workers.get(owner)
                if handle is not None and handle.generation == 2 and handle.alive:
                    if owner in fleet.ring:
                        break
                time.sleep(0.1)
            handle = fleet.workers[owner]
            assert handle.generation == 2 and handle.alive and owner in fleet.ring
            assert client.narrate(_join_plan())["worker_id"] == owner
            assert client.metrics()["fleet"]["respawns"] == 1

            # draining rolling restart of the whole fleet
            status, payload = client.request_json("POST", "/admin/restart", {})
            assert status == 200
            assert sorted(payload["restarted"]) == ["w0", "w1"]
            generations = {
                worker_id: handle.generation for worker_id, handle in fleet.workers.items()
            }
            assert generations[owner] == 3  # respawned once, restarted once
            assert client.narrate(_join_plan())["narration"]["text"]
            assert client.healthz()["status"] == "ok"

            # restarting an unknown worker is a 400, not a crash
            status, payload = client.request_json(
                "POST", "/admin/restart", {"worker": "w9"}
            )
            assert status == 400
        finally:
            client.close()
            fleet.stop()


class TestFleetErrorContract:
    """Through the router, a single plan and the same plan as a batch item
    get the same status and error code — whether the router refuses it
    (unparseable) or the worker does (parsed, but cannot be narrated)."""

    @pytest.mark.parametrize(
        "plan, error",
        [
            ({"Plan": {"Node Type": 5}}, "plan_format"),
            (
                {
                    "source": "oracle",
                    "root": {"name": "Seq Scan", "attributes": {}, "children": []},
                },
                "narration",
            ),
        ],
    )
    def test_single_and_batch_item_agree(self, live_fleet, plan, error):
        _, client = live_fleet
        status, single = client.request_json("POST", "/narrate", {"plan": plan})
        envelope_status, envelope = client.request_json("POST", "/narrate", {"plans": [plan]})
        assert envelope_status == 200
        (item,) = envelope["results"]
        assert status == item["status"] == 400
        assert single["error"] == item["error"] == error
        assert single["trace_id"]

    @pytest.mark.parametrize(
        "body",
        [[1], "x", 5, {"workers": 5}, {"workers": "w0"}, {"workers": ["w0", 1]},
         {"worker": 5}, {"worker": ["w0"]}, {"workers": []}],
    )
    def test_bad_restart_order_is_a_bad_request(self, live_fleet, body):
        """A restart order that is not an object, or whose ``workers`` is not
        a non-empty list of worker ids (``worker``: not one id), is a 400
        that restarts nothing — refused for its shape, not looked up
        (``"w0"`` was split into the unknown workers ``['w', '0']``, and
        ``[]`` rolled the whole fleet)."""
        fleet, client = live_fleet
        generations = {wid: handle.generation for wid, handle in fleet.workers.items()}
        status, reply = client.request_json("POST", "/admin/restart", body)
        assert (status, reply["error"]) == (400, "bad_request")
        assert "unknown workers" not in reply["message"]
        assert {wid: handle.generation for wid, handle in fleet.workers.items()} == generations
        assert client.metrics()["fleet"]["restarts"] == 0

    def test_deeply_nested_body_is_a_bad_request(self, live_fleet):
        import http.client
        import json

        fleet, client = live_fleet
        host, port = fleet._httpd.server_address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST", "/narrate", body=("[" * 50000 + "]" * 50000).encode("ascii"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"] == "bad_request"
        assert client.healthz()["status"] == "ok"
