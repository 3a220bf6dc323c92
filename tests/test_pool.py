"""Tests for the POEM model, the POOL parser/interpreter, and the default catalogs."""

import pytest

from repro.errors import PoolSemanticError, PoolSyntaxError
from repro.pool import PoolSession, build_default_store, normalize_operator_name
from repro.pool.ast_nodes import ComposeStatement, CreateOperatorStatement, PoolSelectStatement, UpdateStatement
from repro.pool.catalogs import postgresql_operator_definitions, sqlserver_operator_definitions
from repro.pool.parser import parse_pool
from repro.pool.poem import PoemStore, compose_pair_template, operator_template


class TestPoemStore:
    def test_normalize_operator_name(self):
        assert normalize_operator_name("Hash Join") == "hashjoin"
        assert normalize_operator_name("Hash Match (Aggregate)") == "hashmatchaggregate"
        assert normalize_operator_name("nested-loop") == "nestedloop"

    def test_create_and_get(self):
        store = PoemStore()
        store.create("pg", "Hash Join", operator_type="binary", descriptions=["perform hash join on"], cond=True)
        obj = store.get("pg", "hashjoin")
        assert obj.operator_type == "binary"
        assert obj.cond
        assert obj.display_name == "hashjoin"

    def test_duplicate_create_rejected(self):
        store = PoemStore()
        store.create("pg", "sort")
        with pytest.raises(PoolSemanticError):
            store.create("pg", "Sort")

    def test_invalid_type_rejected(self):
        store = PoemStore()
        with pytest.raises(PoolSemanticError):
            store.create("pg", "x", operator_type="ternary")

    def test_multi_target_auxiliary(self):
        store = PoemStore()
        store.create("pg", "mergejoin", operator_type="binary", cond=True)
        store.create("pg", "groupaggregate")
        store.create("pg", "sort", target="mergejoin,groupaggregate", descriptions=["sort"])
        assert store.get("pg", "sort").targets == ["mergejoin", "groupaggregate"]
        pairs = store.auxiliary_pairs("pg")
        assert {(aux.name, crit.name) for aux, crit in pairs} == {
            ("sort", "mergejoin"), ("sort", "groupaggregate")
        }

    def test_update_attributes(self):
        store = PoemStore()
        store.create("pg", "seqscan", descriptions=["perform sequential scan on"])
        store.update("pg", "seqscan", alias="sequential scan", defn="reads all rows")
        obj = store.get("pg", "seqscan")
        assert obj.alias == "sequential scan"
        store.update("pg", "seqscan", add_desc="scan every row of")
        assert len(obj.descriptions) == 2

    def test_update_unknown_attribute_rejected(self):
        store = PoemStore()
        store.create("pg", "seqscan")
        with pytest.raises(PoolSemanticError):
            store.update("pg", "seqscan", nonsense="x")

    def test_to_relations_schema(self):
        store = build_default_store()
        poperators, pdesc = store.to_relations()
        assert {"oid", "source", "name", "alias", "type", "defn", "cond", "targetid"} == set(poperators[0])
        assert {"oid", "desc"} == set(pdesc[0])
        assert len(pdesc) >= len(poperators)


class TestTemplates:
    def test_unary_template(self):
        store = PoemStore()
        obj = store.create("pg", "hash", descriptions=["hash"])
        assert operator_template(obj) == "hash $R1$"

    def test_binary_template_with_condition(self):
        store = PoemStore()
        obj = store.create("pg", "hashjoin", operator_type="binary",
                           descriptions=["perform hash join on"], cond=True)
        assert operator_template(obj) == "perform hash join on $R2$ and $R1$ on condition $cond$"

    def test_pair_composition_matches_paper_example(self):
        store = build_default_store()
        template = compose_pair_template(
            store.get("pg", "hash"), store.get("pg", "hashjoin"),
            critical_description="perform hash join on", auxiliary_description="hash",
        )
        assert template == "hash $R1$ and perform hash join on $R2$ and $R1$ on condition $cond$"

    def test_pair_composition_rejects_non_pair(self):
        store = build_default_store()
        with pytest.raises(PoolSemanticError):
            compose_pair_template(store.get("pg", "seqscan"), store.get("pg", "hashjoin"))


class TestPoolParser:
    def test_parse_create(self):
        statement = parse_pool(
            "CREATE POPERATOR zzjoin FOR db2 (ALIAS = 'zigzag join', TYPE = 'binary', "
            "DEFN = null, DESC = 'perform zigzag join on', COND = 'true', TARGET = null)"
        )
        assert isinstance(statement, CreateOperatorStatement)
        assert statement.source == "db2"
        assert statement.attributes["alias"] == "zigzag join"
        assert statement.attributes["defn"] is None

    def test_parse_create_with_multiple_desc(self):
        statement = parse_pool(
            "CREATE POPERATOR hj FOR pg (TYPE = 'binary', DESC = 'perform hash join on', "
            "DESC = 'execute hash join on', COND = 'true')"
        )
        descriptions = [v for k, v in statement.attributes.items() if k.startswith("desc") and v]
        assert len(descriptions) == 2

    def test_parse_select(self):
        statement = parse_pool("SELECT defn FROM pg WHERE name = 'zzjoin'")
        assert isinstance(statement, PoolSelectStatement)
        assert statement.attributes == ["defn"]
        assert statement.source == "pg"

    def test_parse_select_star_like(self):
        statement = parse_pool("SELECT * FROM pg WHERE name LIKE '%join'")
        assert statement.select_all

    def test_parse_compose_with_using(self):
        statement = parse_pool("COMPOSE hash, hashjoin FROM pg USING hashjoin.desc = 'perform hash join on'")
        assert isinstance(statement, ComposeStatement)
        assert statement.operator_names == ["hash", "hashjoin"]
        assert statement.using == {"hashjoin": "perform hash join on"}

    def test_parse_compose_too_many_names(self):
        with pytest.raises(PoolSyntaxError):
            parse_pool("COMPOSE a, b, c FROM pg")

    def test_parse_update_with_replace_and_subquery(self):
        statement = parse_pool(
            "UPDATE pg SET desc = REPLACE((SELECT desc FROM pg AS pg2 WHERE pg2.name = 'hashjoin'), "
            "'hash', 'nested loop') WHERE pg.name = 'nestedloop'"
        )
        assert isinstance(statement, UpdateStatement)
        assert "desc" in statement.assignments
        assert statement.assignments["desc"].replace is not None

    def test_unknown_statement_rejected(self):
        with pytest.raises(PoolSyntaxError):
            parse_pool("DELETE FROM pg")

    def test_unknown_attribute_in_create_rejected(self):
        with pytest.raises(PoolSyntaxError):
            parse_pool("CREATE POPERATOR x FOR pg (COLOR = 'red')")


class TestPoolSession:
    @pytest.fixture()
    def session(self):
        return PoolSession(build_default_store())

    def test_select_single_attribute(self, session):
        rows = session.execute("SELECT defn FROM pg WHERE name = 'hashjoin'")
        assert len(rows) == 1 and "hash" in rows[0]["defn"]

    def test_select_star_returns_objects(self, session):
        objects = session.execute("SELECT * FROM pg WHERE name LIKE '%join'")
        names = {obj.name for obj in objects}
        assert names == {"hashjoin", "mergejoin"}

    def test_select_desc_joins_pdesc(self, session):
        rows = session.execute("SELECT desc FROM pg WHERE name = 'seqscan'")
        assert {row["desc"] for row in rows} == {"perform sequential scan on", "scan every row of"}

    def test_compiled_sql_targets_backing_relations(self, session):
        sql = session.compiled_sql("SELECT defn FROM pg WHERE name = 'zzjoin'")
        assert "poperators" in sql and "p.source = 'pg'" in sql

    def test_compose_single_and_pair(self, session):
        assert session.execute("COMPOSE hash FROM pg") == "hash $R1$"
        composed = session.execute(
            "COMPOSE hash, hashjoin FROM pg USING hashjoin.desc = 'perform hash join on'"
        )
        assert composed == "hash $R1$ and perform hash join on $R2$ and $R1$ on condition $cond$"

    def test_create_then_select(self, session):
        session.execute(
            "CREATE POPERATOR zzjoin FOR db2 (ALIAS = 'zigzag join', TYPE = 'binary', "
            "DESC = 'perform zigzag join on', COND = 'true')"
        )
        rows = session.execute("SELECT alias FROM db2 WHERE name = 'zzjoin'")
        assert rows[0]["alias"] == "zigzag join"

    def test_cross_engine_transfer(self, session):
        session.execute(
            "CREATE POPERATOR hsjoin FOR db2 (TYPE = 'binary', DESC = 'join', COND = 'true')"
        )
        session.execute(
            "UPDATE db2 SET defn = (SELECT defn FROM pg WHERE pg.name = 'hashjoin') "
            "WHERE db2.name = 'hsjoin'"
        )
        assert "hash" in session.store.get("db2", "hsjoin").defn

    def test_replace_transfer_within_engine(self, session):
        session.execute(
            "UPDATE pg SET desc = REPLACE((SELECT desc FROM pg AS pg2 WHERE pg2.name = 'mergejoin'), "
            "'merge', 'nested loop') WHERE pg.name = 'nestedloop'"
        )
        assert session.store.get("pg", "nestedloop").description == "perform nested loop join on"

    def test_update_unknown_attribute_rejected(self, session):
        with pytest.raises(PoolSemanticError):
            session.execute("UPDATE pg SET oid = 'x' WHERE name = 'sort'")

    def test_select_unknown_attribute_rejected(self, session):
        with pytest.raises(PoolSemanticError):
            session.execute("SELECT colour FROM pg WHERE name = 'sort'")


class TestDefaultCatalogs:
    def test_both_engines_populated(self):
        store = build_default_store()
        assert set(store.sources()) == {"pg", "mssql"}
        assert len(list(store.objects("pg"))) == len(postgresql_operator_definitions())
        assert len(list(store.objects("mssql"))) == len(sqlserver_operator_definitions())

    def test_every_definition_has_description(self):
        for definition in postgresql_operator_definitions() + sqlserver_operator_definitions():
            assert definition["descriptions"], definition["name"]

    def test_join_operators_are_binary_with_condition(self):
        store = build_default_store()
        for name in ("hashjoin", "mergejoin", "nestedloop"):
            obj = store.get("pg", name)
            assert obj.operator_type == "binary" and obj.cond

    def test_auxiliary_pairs_cover_hash_and_sort(self):
        store = build_default_store()
        pairs = {(aux.name, crit.name) for aux, crit in store.auxiliary_pairs("pg")}
        assert ("hash", "hashjoin") in pairs
        assert ("sort", "mergejoin") in pairs
        assert ("materialize", "nestedloop") in pairs
