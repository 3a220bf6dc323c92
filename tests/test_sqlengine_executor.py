"""Integration tests: planning + execution produce correct results on known data."""

import datetime

import pytest

from repro.sqlengine import Database, DataType


class TestScansAndFilters:
    def test_full_scan(self, toy_db):
        rows = toy_db.execute("SELECT id, name FROM users u")
        assert len(rows) == 5

    def test_filter_equality(self, toy_db):
        rows = toy_db.execute("SELECT name FROM users u WHERE u.city = 'london'")
        assert sorted(row["name"] for row in rows) == ["alice", "carol"]

    def test_filter_range_and_like(self, toy_db):
        rows = toy_db.execute("SELECT name FROM users u WHERE u.age > 30 AND u.name LIKE '%a%'")
        assert sorted(row["name"] for row in rows) == ["alice", "carol"]

    def test_index_scan_results_match_seq_scan(self, toy_db):
        indexed = toy_db.execute("SELECT order_id FROM orders o WHERE o.user_id = 5")
        assert sorted(row["order_id"] for row in indexed) == [15, 16]

    def test_in_and_between(self, toy_db):
        rows = toy_db.execute("SELECT id FROM users u WHERE u.id IN (1, 3) AND u.age BETWEEN 30 AND 50")
        assert sorted(row["id"] for row in rows) == [1, 3]

    def test_projection_expression(self, toy_db):
        rows = toy_db.execute("SELECT o.amount * 2 AS double_amount FROM orders o WHERE o.order_id = 10")
        assert rows[0]["double_amount"] == pytest.approx(240.0)


class TestDateIndexScan:
    """An ISO string bound on a DATE index key reads as a date, as in a filter."""

    EQUAL = "SELECT o.o_orderkey FROM orders o WHERE o.o_orderdate = '1992-01-01'"

    @staticmethod
    def _expected(tpch_db, keep):
        orders = tpch_db.storage.table("orders").as_dicts("o")
        return sorted(row["o.o_orderkey"] for row in orders if keep(row["o.o_orderdate"]))

    def test_equality_index_scan_matches_python_filter(self, tpch_db):
        plan = tpch_db.plan(self.EQUAL)
        assert plan.root.node_type == "Index Scan"
        assert plan.root.index_name == "idx_orders_orderdate"
        rows = tpch_db.execute_plan(plan)
        expected = self._expected(tpch_db, lambda day: day == datetime.date(1992, 1, 1))
        assert expected and sorted(row["o_orderkey"] for row in rows) == expected

    def test_range_index_scan_matches_python_filter(self, tpch_db):
        # the planner prefers a Seq Scan for string ranges on this table, so
        # the equality plan's index scan is given the range condition instead
        plan = tpch_db.plan(self.EQUAL)
        plan.root.index_condition = tpch_db.parse(
            "SELECT o.o_orderkey FROM orders o "
            "WHERE o.o_orderdate > '1995-01-01' AND o.o_orderdate <= '1995-03-01'"
        ).where
        rows = tpch_db.execute_plan(plan)
        low, high = datetime.date(1995, 1, 1), datetime.date(1995, 3, 1)
        expected = self._expected(tpch_db, lambda day: low < day <= high)
        assert expected and sorted(row["o_orderkey"] for row in rows) == expected


class TestJoins:
    def test_inner_join_row_count(self, toy_db):
        rows = toy_db.execute(
            "SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.user_id"
        )
        assert len(rows) == 7

    def test_join_with_filter(self, toy_db):
        rows = toy_db.execute(
            "SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.user_id "
            "WHERE o.status = 'shipped' AND u.city = 'london'"
        )
        amounts = sorted(row["amount"] for row in rows)
        assert amounts == [30.0, 120.0]

    def test_join_no_matches(self, toy_db):
        rows = toy_db.execute(
            "SELECT u.name FROM users u, orders o WHERE u.id = o.user_id AND o.amount > 10000"
        )
        assert rows == []

    def test_cross_join_cardinality(self, toy_db):
        rows = toy_db.execute("SELECT u.id, o.order_id FROM users u, orders o")
        assert len(rows) == 5 * 7

    def test_non_equi_join_condition(self, toy_db):
        rows = toy_db.execute(
            "SELECT u.name, o.order_id FROM users u, orders o "
            "WHERE u.id = o.user_id AND o.amount > u.age"
        )
        assert all(row["order_id"] in (10, 11, 13, 15) for row in rows)


class TestAggregation:
    def test_count_star(self, toy_db):
        rows = toy_db.execute("SELECT count(*) AS n FROM orders o")
        assert rows[0]["n"] == 7

    def test_group_by_with_sum_and_avg(self, toy_db):
        rows = toy_db.execute(
            "SELECT o.status, count(*) AS n, sum(o.amount) AS total, avg(o.amount) AS mean "
            "FROM orders o GROUP BY o.status ORDER BY o.status"
        )
        by_status = {row["status"]: row for row in rows}
        assert by_status["shipped"]["n"] == 4
        assert by_status["shipped"]["total"] == pytest.approx(229.99)
        assert by_status["pending"]["mean"] == pytest.approx((75.5 + 45.0) / 2)

    def test_having_filters_groups(self, toy_db):
        rows = toy_db.execute(
            "SELECT o.user_id, count(*) AS n FROM orders o GROUP BY o.user_id HAVING count(*) > 1"
        )
        assert sorted(row["user_id"] for row in rows) == [1, 3, 5]

    def test_min_max(self, toy_db):
        rows = toy_db.execute("SELECT min(o.amount) AS lo, max(o.amount) AS hi FROM orders o")
        assert rows[0]["lo"] == pytest.approx(19.99)
        assert rows[0]["hi"] == pytest.approx(250.0)

    def test_count_distinct(self, toy_db):
        rows = toy_db.execute("SELECT count(DISTINCT o.status) AS kinds FROM orders o")
        assert rows[0]["kinds"] == 3

    def test_group_join_aggregate(self, toy_db):
        rows = toy_db.execute(
            "SELECT u.city, sum(o.amount) AS total FROM users u, orders o "
            "WHERE u.id = o.user_id GROUP BY u.city ORDER BY total DESC"
        )
        assert rows[0]["city"] == "london"
        assert rows[0]["total"] == pytest.approx(120.0 + 75.5 + 250.0 + 30.0)

    def test_aggregate_on_empty_input(self, toy_db):
        rows = toy_db.execute("SELECT count(*) AS n, sum(o.amount) AS s FROM orders o WHERE o.amount > 99999")
        assert rows[0]["n"] == 0
        assert rows[0]["s"] is None


class TestOrderingDistinctLimit:
    def test_order_by_asc_desc(self, toy_db):
        ascending = toy_db.execute("SELECT o.amount FROM orders o ORDER BY o.amount")
        descending = toy_db.execute("SELECT o.amount FROM orders o ORDER BY o.amount DESC")
        values = [row["amount"] for row in ascending]
        assert values == sorted(values)
        assert [row["amount"] for row in descending] == sorted(values, reverse=True)

    def test_order_by_alias(self, toy_db):
        rows = toy_db.execute(
            "SELECT o.user_id, sum(o.amount) AS total FROM orders o GROUP BY o.user_id ORDER BY total DESC LIMIT 1"
        )
        assert rows[0]["user_id"] == 3

    def test_distinct(self, toy_db):
        rows = toy_db.execute("SELECT DISTINCT o.status FROM orders o")
        assert sorted(row["status"] for row in rows) == ["cancelled", "pending", "shipped"]

    def test_distinct_with_order(self, toy_db):
        rows = toy_db.execute("SELECT DISTINCT u.city FROM users u ORDER BY u.city")
        assert [row["city"] for row in rows] == ["berlin", "london", "paris"]

    def test_limit_and_offset(self, toy_db):
        rows = toy_db.execute("SELECT o.order_id FROM orders o ORDER BY o.order_id LIMIT 3 OFFSET 2")
        assert [row["order_id"] for row in rows] == [12, 13, 14]

    def test_multi_key_sort(self, toy_db):
        rows = toy_db.execute("SELECT u.city, u.name FROM users u ORDER BY u.city, u.name DESC")
        assert [row["name"] for row in rows[:2]] == ["dave", "carol"]


class TestConsistencyWithNaiveEvaluation:
    def test_join_matches_naive_python(self, tpch_db):
        sql = (
            "SELECT c.c_custkey, count(*) AS n FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 0 "
            "GROUP BY c.c_custkey"
        )
        rows = tpch_db.execute(sql)
        customers = {
            row["customer.c_custkey"]: row["customer.c_acctbal"]
            for row in tpch_db.storage.table("customer").as_dicts()
        }
        expected: dict[int, int] = {}
        for order in tpch_db.storage.table("orders").as_dicts():
            custkey = order["orders.o_custkey"]
            if custkey in customers and customers[custkey] > 0:
                expected[custkey] = expected.get(custkey, 0) + 1
        assert {row["c_custkey"]: row["n"] for row in rows} == expected

    def test_plan_execution_equals_execute(self, toy_db):
        sql = "SELECT u.city, count(*) AS n FROM users u GROUP BY u.city"
        plan = toy_db.plan(sql)
        assert toy_db.execute_plan(plan) == toy_db.execute(sql)


class TestTpchWorkloadExecution:
    @pytest.mark.parametrize("query_index", [0, 2, 5, 9, 21])
    def test_tpch_queries_run(self, tpch_db, query_index):
        from repro.workloads import tpch_queries

        query = tpch_queries()[query_index]
        rows = tpch_db.execute(query.sql)
        assert isinstance(rows, list)
