"""Plan-format auto-ingestion: the registry, the MySQL adapter, and the
batched multi-plan facade API.

Contracts under test: every supported serialization auto-detects and parses
to an equivalent operator tree; malformed payloads raise a structured
``PlanDetectionError`` naming the attempted formats; ``describe_plans``
produces token-identical narrations to sequential ``describe_plan`` calls;
and the rule-phase memo is transparent (same texts, fewer narrations).
"""

import json

import pytest

from repro.core import Lantern, LanternConfig
from repro.errors import PlanDetectionError, PlanFormatError
from repro.plans import (
    OperatorTree,
    PlanRegistry,
    default_registry,
    parse_mysql_json,
)
from repro.plans.registry import (
    FORMAT_MINI_ENGINE,
    FORMAT_MYSQL_JSON,
    FORMAT_OPERATOR_TREE,
    FORMAT_POSTGRES_JSON,
    FORMAT_SQLSERVER_XML,
    FORMAT_TREE_JSON,
    INGEST_MEMO_MAX_CHARS,
    INGEST_MEMO_SIZE,
    PlanFormat,
)

#: a hand-written document in real MySQL 8 ``EXPLAIN FORMAT=JSON`` shape
MYSQL_EXPLAIN = {
    "query_block": {
        "select_id": 1,
        "cost_info": {"query_cost": "212.40"},
        "ordering_operation": {
            "using_filesort": True,
            "grouping_operation": {
                "using_temporary_table": True,
                "nested_loop": [
                    {
                        "table": {
                            "table_name": "publication",
                            "access_type": "ALL",
                            "rows_examined_per_scan": 400,
                            "attached_condition": "(publication.year > 2005)",
                            "cost_info": {"read_cost": "40.00", "eval_cost": "8.00"},
                        }
                    },
                    {
                        "table": {
                            "table_name": "inproceedings",
                            "access_type": "eq_ref",
                            "key": "PRIMARY",
                            "used_key_parts": ["paper_key"],
                            "ref": ["dblp.publication.pub_key"],
                            "rows_examined_per_scan": 1,
                            "index_condition": "(inproceedings.paper_key = publication.pub_key)",
                        }
                    },
                ],
            },
        },
    }
}


class TestMysqlAdapter:
    def test_parses_realistic_document(self):
        tree = parse_mysql_json(MYSQL_EXPLAIN)
        assert tree.source == "mysql"
        assert tree.operator_names() == [
            "Sort",
            "HashAggregate",
            "Nested Loop",
            "Seq Scan",
            "Index Scan",
        ]
        scan = tree.root.find("Seq Scan")[0]
        assert scan.relation == "publication"
        assert scan.filter_condition == "(publication.year > 2005)"
        lookup = tree.root.find("Index Scan")[0]
        assert lookup.attributes["index"] == "PRIMARY"
        assert lookup.index_condition == "(inproceedings.paper_key = publication.pub_key)"
        join = tree.root.find("Nested Loop")[0]
        assert "PRIMARY" in (join.join_condition or "")

    def test_accepts_serialized_text(self):
        tree = parse_mysql_json(json.dumps(MYSQL_EXPLAIN))
        assert tree.node_count() == 5

    @pytest.mark.parametrize(
        "document, complaint",
        [
            ("not json {", "invalid MySQL EXPLAIN JSON"),
            ({"no_query_block": 1}, "query_block"),
            ({"query_block": {"nested_loop": []}}, "empty"),
            ({"query_block": {"table": {"access_type": "ALL"}}}, "table_name"),
            (
                {"query_block": {"table": {"table_name": "t", "access_type": "warp"}}},
                "access_type",
            ),
            ({"query_block": {"select_id": 1}}, "no recognized access"),
        ],
    )
    def test_malformed_documents_rejected(self, document, complaint):
        with pytest.raises(PlanFormatError, match=complaint):
            parse_mysql_json(document)

    def test_engine_roundtrip_narrates(self, dblp_db, lantern):
        sql = (
            "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
            "WHERE i.paper_key = p.pub_key AND p.year > 2000 GROUP BY i.venue"
        )
        payload = dblp_db.explain(sql, output_format="mysql")
        tree = lantern.parse_plan(payload)
        assert tree.source == "mysql"
        assert "Nested Loop" in tree.operator_names()  # MySQL joins are NL-only
        narration = lantern.describe_plan(tree)
        assert narration.steps
        assert "nested loop" in narration.text
        assert narration.steps[-1].is_final


class TestRegistry:
    @pytest.fixture(scope="class")
    def payloads(self, dblp_db):
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        return {
            FORMAT_POSTGRES_JSON: dblp_db.explain(sql, output_format="json"),
            FORMAT_SQLSERVER_XML: dblp_db.explain(sql, output_format="xml"),
            FORMAT_MYSQL_JSON: dblp_db.explain(sql, output_format="mysql"),
            FORMAT_MINI_ENGINE: dblp_db.plan(sql),
        }

    def test_sniffs_every_builtin_format(self, payloads):
        registry = default_registry()
        for name, payload in payloads.items():
            assert registry.sniff(payload) == name

    def test_sniffs_tree_and_tree_dict(self, payloads):
        registry = default_registry()
        tree = registry.parse(payloads[FORMAT_POSTGRES_JSON])
        assert registry.sniff(tree) == FORMAT_OPERATOR_TREE
        assert registry.sniff(tree.to_dict()) == FORMAT_TREE_JSON

    def test_auto_parse_agrees_with_explicit(self, payloads):
        registry = default_registry()
        for name, payload in payloads.items():
            auto = registry.parse(payload)
            explicit = registry.parse(payload, name)
            assert auto.operator_names() == explicit.operator_names()

    def test_aliases_resolve(self, payloads):
        registry = default_registry()
        assert (
            registry.parse(payloads[FORMAT_POSTGRES_JSON], "json").operator_names()
            == registry.parse(payloads[FORMAT_POSTGRES_JSON], "pg").operator_names()
        )
        registry.parse(payloads[FORMAT_SQLSERVER_XML], "xml")
        registry.parse(payloads[FORMAT_MYSQL_JSON], "mysql")

    def test_unknown_format_lists_known_ones(self, payloads):
        registry = default_registry()
        with pytest.raises(PlanDetectionError, match="registered formats"):
            registry.parse(payloads[FORMAT_POSTGRES_JSON], "oracle-plan-table")

    def test_explicit_format_with_malformed_payload_is_structured(self):
        """A named format whose parser rejects the payload must still raise
        the structured detection error (the service's 400), never a bare
        ValueError/TypeError — including for the pass-through formats."""
        registry = default_registry()
        for payload, plan_format in (
            ({"root": {}}, FORMAT_TREE_JSON),  # node dict without a name
            ("garbage", FORMAT_OPERATOR_TREE),  # not a tree instance
            ("garbage", FORMAT_MINI_ENGINE),
            ("{not json", FORMAT_POSTGRES_JSON),
        ):
            with pytest.raises(PlanDetectionError) as excinfo:
                registry.parse(payload, plan_format)
            assert excinfo.value.attempted_formats == [plan_format]

    def test_ingest_reports_the_format_that_parsed(self, payloads):
        registry = default_registry()
        for name, payload in payloads.items():
            tree, resolved = registry.ingest(payload)
            assert resolved == name
            assert tree.operator_names()

    def test_undetectable_payload_reports_attempts(self):
        registry = default_registry()
        with pytest.raises(PlanDetectionError) as excinfo:
            registry.parse("SELECT this is not a plan")
        assert excinfo.value.attempted_formats == registry.formats()

    def test_matching_detector_failing_parser_keeps_probing(self):
        """A dict that looks vaguely pg-ish but parses as nothing reports the
        formats that were actually attempted."""
        registry = default_registry()
        with pytest.raises(PlanDetectionError) as excinfo:
            registry.parse({"Plan": "not an object"})
        assert FORMAT_POSTGRES_JSON in excinfo.value.attempted_formats

    def test_custom_format_registration(self):
        registry = default_registry()
        sentinel = OperatorTree.from_dict(
            {"source": "pg", "root": {"name": "Seq Scan", "attributes": {"relation": "t"}}}
        )
        registry.register(
            PlanFormat(
                name="tuple-plan",
                detector=lambda payload: isinstance(payload, tuple),
                parser=lambda payload: sentinel,
            ),
            index=0,
        )
        assert registry.formats()[0] == "tuple-plan"
        assert registry.parse(("anything",)) is sentinel
        with pytest.raises(ValueError, match="already registered"):
            registry.register(PlanFormat("tuple-plan", lambda p: False, lambda p: None))

    def test_tree_dict_roundtrip_preserves_narration(self, dblp_db, lantern):
        sql = (
            "SELECT p.venue_key FROM publication p "
            "WHERE p.year > 2001 ORDER BY p.venue_key"
        )
        tree = lantern.plan_for_sql(dblp_db, sql)
        rebuilt = OperatorTree.from_dict(
            json.loads(json.dumps(tree.to_dict()))  # through real JSON text
        )
        assert rebuilt.operator_names() == tree.operator_names()
        fresh = Lantern(config=LanternConfig(seed=None))
        assert (
            fresh.describe_plan(rebuilt).text
            == Lantern(config=LanternConfig(seed=None)).describe_plan(tree).text
        )

    def test_lantern_owns_a_registry(self, lantern):
        assert isinstance(lantern.registry, PlanRegistry)
        assert FORMAT_MYSQL_JSON in lantern.registry.formats()


class TestIngestMemo:
    """Repeated text payloads are parsed once per registry."""

    @pytest.fixture(scope="class")
    def text(self, dblp_db):
        return dblp_db.explain(
            "SELECT count(*) FROM publication p WHERE p.year > 2005", output_format="json"
        )

    @staticmethod
    def _kept(registry: PlanRegistry) -> int:
        return registry._memo.cache_info().currsize

    def test_same_text_and_format_give_the_same_tree(self, text):
        registry = default_registry()
        tree, plan_format = registry.ingest(text)
        assert registry.ingest(text) == (tree, plan_format)
        assert registry.parse(text) is tree
        assert self._kept(registry) == 1
        named = registry.parse(text, "json")
        assert named is not tree and registry.parse(text, "json") is named
        assert registry.parse(text, "pg") is not named  # the requested name keys
        assert self._kept(registry) == 3

    def test_a_failing_payload_is_not_kept(self):
        registry = default_registry()
        for payload, plan_format in (("SELECT this is not a plan", None), ("{not json", "json")):
            errors = []
            for _ in range(2):
                with pytest.raises(PlanDetectionError) as excinfo:
                    registry.ingest(payload, plan_format)
                errors.append(excinfo.value)
            assert errors[0] is not errors[1]
            assert str(errors[0]) == str(errors[1])
            assert errors[0].attempted_formats == errors[1].attempted_formats
        assert self._kept(registry) == 0

    def test_a_format_that_is_not_a_string_is_still_a_detection_error(self, text):
        registry = default_registry()
        with pytest.raises(PlanDetectionError, match="unknown plan format"):
            registry.ingest(text, ["json"])

    def test_register_empties_the_memo(self, text):
        registry = default_registry()
        tree = registry.parse(text)
        sentinel = OperatorTree.from_dict({"root": {"name": "Seq Scan"}})
        registry.register(
            PlanFormat("everything", detector=lambda payload: True, parser=lambda payload: sentinel),
            index=0,
        )
        assert self._kept(registry) == 0
        assert registry.ingest(text) == (sentinel, "everything")
        assert registry.parse(text) is not tree

    def test_the_memo_is_bounded(self, text):
        registry = default_registry()
        # leading whitespace makes distinct payloads that parse the same
        for padding in range(INGEST_MEMO_SIZE + 10):
            registry.parse(" " * padding + text)
            assert self._kept(registry) <= INGEST_MEMO_SIZE
        assert self._kept(registry) == INGEST_MEMO_SIZE
        oversized = text + " " * INGEST_MEMO_MAX_CHARS
        first, second = registry.parse(oversized), registry.parse(oversized)
        assert first is not second
        assert first.to_dict() == second.to_dict() == registry.parse(text).to_dict()
        at_cap = text + " " * (INGEST_MEMO_MAX_CHARS - len(text))
        assert registry.parse(at_cap) is registry.parse(at_cap)

    def test_decoded_payloads_bypass_the_memo(self, text):
        registry = default_registry()
        document = json.loads(text)
        first, second = registry.parse(document), registry.parse(document)
        assert first is not second and first.to_dict() == second.to_dict()
        assert registry.parse(first) is first  # trees pass through as before
        assert self._kept(registry) == 0

    def test_concurrent_ingests_get_their_own_payloads_tree(self, text):
        """Handler threads share one memo: under evictions and frequent
        thread switches every ingest still gets the tree of its payload."""
        import sys
        import threading

        from repro.service.fleet import FleetConfig, LanternFleet, plan_routing_signature

        registry = default_registry()
        fleet = LanternFleet(FleetConfig(num_workers=1))
        # more distinct payloads than the memo holds, so entries are evicted
        # while other threads read them; each padding is a different plan
        payloads = [" " * padding + text for padding in range(INGEST_MEMO_SIZE + 32)]
        expected = json.dumps(registry.parse(text).to_dict(), sort_keys=True)
        signature = plan_routing_signature(registry.parse(text))
        failures: list[str] = []

        def hammer(offset: int) -> None:
            for index in range(400):
                payload = payloads[(offset * 37 + index * 11) % len(payloads)]
                tree = registry.parse(payload)
                if json.dumps(tree.to_dict(), sort_keys=True) != expected:
                    failures.append("tree")
                if fleet.signature_of(payload) != signature:
                    failures.append("signature")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert self._kept(registry) <= INGEST_MEMO_SIZE
        assert len(fleet._signatures) <= INGEST_MEMO_SIZE

    def test_narration_leaves_memoized_trees_unchanged(self, tpch_db, trained_neural):
        """Every classroom payload, narrated in every mode and presentation
        through the service, leaves the tree its memo holds as it was."""
        from repro.core.presentation import PRESENTATION_MODES
        from repro.nlg.neural_lantern import NeuralLantern
        from repro.service.server import LanternService
        from repro.workloads import tpch_queries

        payloads = [
            tpch_db.explain(query.sql, output_format=dialect)
            for query in tpch_queries()
            for dialect in ("json", "xml", "mysql")
        ]
        neural = NeuralLantern(trained_neural.model, beam_size=2)
        service = LanternService(Lantern(neural=neural, config=LanternConfig(seed=None)))
        registry = service.lantern.registry
        trees = [registry.parse(payload) for payload in payloads]
        before = [json.dumps(tree.to_dict(), sort_keys=True) for tree in trees]
        service.batcher.start()
        try:
            for mode in ("rule", "neural", "auto"):
                for presentation in (None, *PRESENTATION_MODES):
                    body = {"plans": payloads, "mode": mode}
                    if presentation is not None:
                        body["presentation"] = presentation
                    items = service.narrate_items(body)
                    assert all("narration" in item for item in items), mode
        finally:
            service.batcher.stop()
        assert self._kept(registry) == len(set(payloads))
        for payload, tree, document in zip(payloads, trees, before):
            assert registry.parse(payload) is tree
            assert json.dumps(tree.to_dict(), sort_keys=True) == document


def _deep_postgres(levels: int) -> list:
    """A decoded PostgreSQL plan ``levels`` operators deep (built without
    recursion, so any depth can be made)."""
    node = {"Node Type": "Seq Scan", "Relation Name": "publication"}
    for _ in range(levels - 1):
        node = {"Node Type": "Sort", "Sort Key": ["year"], "Plans": [node]}
    return [{"Plan": node}]


def _deep_postgres_text(levels: int) -> str:
    """The same plan as EXPLAIN JSON text (``json.dumps`` itself recurses)."""
    leaf = '{"Node Type": "Seq Scan", "Relation Name": "publication"}'
    wrap = '{"Node Type": "Sort", "Sort Key": ["year"], "Plans": ['
    return '[{"Plan": ' + wrap * (levels - 1) + leaf + "]}" * (levels - 1) + "}]"


class TestDeepPlans:
    """A plan nested deeper than the interpreter's stack is a malformed
    payload: a typed 400 ``plan_format``, never a raw RecursionError."""

    @pytest.mark.parametrize("payload", [_deep_postgres, _deep_postgres_text])
    def test_3000_levels_raise_plan_detection_error(self, payload):
        from repro.service.frontend import error_response

        with pytest.raises(PlanDetectionError) as excinfo:
            default_registry().ingest(payload(3000))
        assert error_response(excinfo.value) == (
            400,
            {
                "error": "plan_format",
                "message": str(excinfo.value),
                "attempted_formats": excinfo.value.attempted_formats,
            },
        )
        facade = Lantern(config=LanternConfig(seed=None))
        with pytest.raises(PlanDetectionError):
            facade.describe_plan(facade.parse_plan(payload(3000)))

    def test_900_levels_still_narrate(self):
        facade = Lantern()
        tree, plan_format = facade.registry.ingest(_deep_postgres(900))
        assert plan_format == FORMAT_POSTGRES_JSON
        narration = facade.describe_plan(tree)
        assert narration.steps and "publication" in narration.text

    def test_900_level_tree_narrates_with_the_rule_memo(self):
        """The memo key of a hand-built tree deeper than the interpreter's
        stack allows a recursive walk to keep is computed without recursion:
        the memo narrates it as the memo-less facade does, and the second
        call is a memo hit."""
        from repro.plans.operator_tree import OperatorNode, OperatorTree

        node = OperatorNode(
            "Seq Scan", attributes={"relation": "publication", "alias": "publication"}
        )
        for _ in range(899):
            node = OperatorNode("Sort", children=[node], attributes={"sort_keys": ["year"]})
        tree = OperatorTree(node)
        memo = Lantern(config=LanternConfig(seed=None))
        plain = Lantern(config=LanternConfig(seed=None, rule_memo_enabled=False))
        first = memo.describe_plan(tree)
        assert first.text == plain.describe_plan(tree).text
        assert "publication" in first.text
        assert memo.describe_plan(tree).text == first.text
        assert memo.rule_memo_stats()["hits"] == 1


class TestDescribePlansBatched:
    def _mixed_trees(self, db, lantern, count: int = 9):
        sqls = [
            "SELECT count(*) FROM publication p WHERE p.year > 2003",
            "SELECT p.venue_key FROM publication p ORDER BY p.venue_key",
            (
                "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
                "WHERE i.paper_key = p.pub_key GROUP BY i.venue"
            ),
        ]
        engines = ("pg", "mssql", "mysql")
        return [
            lantern.plan_for_sql(db, sqls[i % len(sqls)], engine=engines[i % 3])
            for i in range(count)
        ]

    def test_rule_mode_parity(self, dblp_db):
        batched_facade = Lantern(config=LanternConfig(seed=None))
        sequential_facade = Lantern(config=LanternConfig(seed=None))
        trees = self._mixed_trees(dblp_db, batched_facade)
        batched = batched_facade.describe_plans(trees)
        sequential = [sequential_facade.describe_plan(tree) for tree in trees]
        assert [n.text for n in batched] == [n.text for n in sequential]
        assert batched_facade._operator_counts == sequential_facade._operator_counts

    def test_neural_mode_parity(self, dblp_db, poem_store, trained_neural):
        """Fused cross-plan decode ≡ per-plan describe_plan calls, token for
        token, including exposure-based wording cycling across repeats."""
        exposure_before = dict(trained_neural._act_exposure)
        try:
            batched_facade = Lantern(store=poem_store, neural=trained_neural)
            trees = self._mixed_trees(dblp_db, batched_facade, count=6)
            trees = trees + trees[:3]  # repeats exercise the wording cycle

            trained_neural._act_exposure.clear()
            trained_neural.decode_cache.clear()
            batched = batched_facade.describe_plans(trees, mode="neural")

            trained_neural._act_exposure.clear()
            trained_neural.decode_cache.clear()
            sequential_facade = Lantern(store=poem_store, neural=trained_neural)
            sequential = [
                sequential_facade.describe_plan(tree, mode="neural") for tree in trees
            ]
            assert [n.text for n in batched] == [n.text for n in sequential]
            assert all(
                step.generator == "neural" for n in batched for step in n.steps
            )
        finally:
            trained_neural.decode_cache.clear()
            trained_neural._act_exposure.clear()
            trained_neural._act_exposure.update(exposure_before)

    def test_collect_errors_isolates_bad_trees(self, dblp_db):
        facade = Lantern(config=LanternConfig(seed=None))
        good = facade.plan_for_sql(dblp_db, "SELECT count(*) FROM publication p")
        bad = OperatorTree(root=good.root, source="oracle")  # no POEM catalog
        results = facade.describe_plans([good, bad, good], collect_errors=True)
        assert results[0].text == results[2].text
        assert isinstance(results[1], Exception)
        with pytest.raises(Exception):
            facade.describe_plans([good, bad], collect_errors=False)

    def test_per_tree_modes(self, dblp_db):
        facade = Lantern(config=LanternConfig(seed=None))
        trees = self._mixed_trees(dblp_db, facade, count=2)
        results = facade.describe_plans(trees, mode=["rule", "rule"])
        assert len(results) == 2
        with pytest.raises(Exception, match="modes"):
            facade.describe_plans(trees, mode=["rule"])


class TestRuleMemo:
    def test_memo_enabled_iff_deterministic(self):
        assert Lantern(config=LanternConfig(seed=None))._rule_memo is not None
        assert Lantern(config=LanternConfig(seed=7))._rule_memo is None
        assert (
            Lantern(config=LanternConfig(seed=7, rule_memo_enabled=True))._rule_memo
            is not None
        )
        assert (
            Lantern(config=LanternConfig(seed=None, rule_memo_enabled=False))._rule_memo
            is None
        )

    def test_memo_is_transparent(self, dblp_db):
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        memoized = Lantern(config=LanternConfig(seed=None))
        plain = Lantern(config=LanternConfig(seed=None, rule_memo_enabled=False))
        tree = memoized.plan_for_sql(dblp_db, sql)
        first = memoized.describe_plan(tree)
        second = memoized.describe_plan(tree)  # memo hit
        reference = plain.describe_plan(tree)
        assert first.text == second.text == reference.text
        stats = memoized.rule_memo_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert plain.rule_memo_stats() is None
        # habituation still advances on memo hits
        assert memoized.operator_exposure("Seq Scan") == 2 * plain.operator_exposure(
            "Seq Scan"
        )

    def test_memo_distinguishes_structures_and_sources(self, dblp_db):
        facade = Lantern(config=LanternConfig(seed=None))
        sql = "SELECT count(*) FROM publication p WHERE p.year > 2005"
        facade.describe_plan(facade.plan_for_sql(dblp_db, sql, engine="pg"))
        facade.describe_plan(facade.plan_for_sql(dblp_db, sql, engine="mysql"))
        facade.describe_plan(
            facade.plan_for_sql(dblp_db, "SELECT count(*) FROM publication p")
        )
        assert facade.rule_memo_stats()["size"] == 3
