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
