"""LANTERN-SENTRY: the analyzer's own contract.

Golden-fixture tests: each rule family must fire on a known-bad snippet,
stay quiet on the idiomatic fix, and respect inline suppressions and the
committed baseline.  The CLI's exit codes and JSON schema are pinned, and
— the point of the whole exercise — the live repo itself must pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Baseline, analyze, get_rules
from repro.analysis.baseline import BaselineError

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def run_rules(tmp_path, files, rules, tests=None, docs=None, baseline=None):
    """Analyze a throwaway package tree with just the given rules."""
    pkg = write_tree(tmp_path / "pkg", files)
    tests_dir = write_tree(tmp_path / "tests", tests) if tests is not None else None
    docs_dir = write_tree(tmp_path / "docs", docs) if docs is not None else None
    return analyze(
        pkg, tests_dir=tests_dir, docs_dir=docs_dir, rules=rules, baseline=baseline
    )


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

LOCKED_CLASS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.items = []
            self.count = 0

        def locked_add(self, item):
            with self._lock:
                self.items.append(item)

        def sneaky_add(self, item):
            self.items.append(item)

        def bump(self):
            self.count += 1
"""


class TestLockDiscipline:
    def test_guarded_attr_mutated_outside_lock_fires(self, tmp_path):
        report = run_rules(tmp_path, {"store.py": LOCKED_CLASS}, ["lock-discipline"])
        symbols = {f.symbol for f in report.findings}
        assert "Store.sneaky_add:items" in symbols

    def test_unlocked_rmw_fires_even_without_guarded_twin(self, tmp_path):
        report = run_rules(tmp_path, {"store.py": LOCKED_CLASS}, ["lock-discipline"])
        symbols = {f.symbol for f in report.findings}
        assert "Store.bump:count:rmw" in symbols

    def test_init_and_lockless_classes_are_exempt(self, tmp_path):
        clean = """
            import threading

            class NoLock:
                def bump(self):
                    self.count += 1

            class Disciplined:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def add(self, item):
                    with self._lock:
                        self.items.append(item)
        """
        report = run_rules(tmp_path, {"clean.py": clean}, ["lock-discipline"])
        assert report.findings == []

    def test_inline_suppression_silences_the_line(self, tmp_path):
        suppressed = LOCKED_CLASS.replace(
            "self.items.append(item)\n\n        def bump",
            "self.items.append(item)  # sentry: off[lock-discipline]\n\n        def bump",
        )
        report = run_rules(tmp_path, {"store.py": suppressed}, ["lock-discipline"])
        assert "Store.sneaky_add:items" not in {f.symbol for f in report.findings}
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# parity-pair
# ---------------------------------------------------------------------------


class TestParityPair:
    def test_orphaned_fused_kernel_fires(self, tmp_path):
        files = {
            "nlg/nn/layers.py": """
                class Dense:
                    def forward_fused(self, x):
                        return x
            """
        }
        report = run_rules(tmp_path, files, ["parity-pair"], tests={})
        assert any(f.symbol == "Dense.forward_fused" for f in report.findings)

    def test_pair_without_shared_test_fires_and_with_test_passes(self, tmp_path):
        files = {
            "nlg/nn/layers.py": """
                class Dense:
                    def forward(self, x):
                        return x

                    def forward_fused(self, x):
                        return x
            """
        }
        untested = run_rules(tmp_path, files, ["parity-pair"], tests={"test_x.py": "pass"})
        assert any(f.symbol == "Dense.forward_fused:untested" for f in untested.findings)

        tested = run_rules(
            tmp_path / "ok",
            files,
            ["parity-pair"],
            tests={"test_x.py": "# exercises forward_fused against forward\n"},
        )
        assert tested.findings == []

    def test_quant_mode_without_agreement_test_fires(self, tmp_path):
        files = {
            "nlg/nn/quant.py": """
                QUANTIZE_MODES = ("none", "int8", "int4")
            """
        }
        tests = {"test_q.py": "# quantize agreement covers int8 only\n"}
        report = run_rules(tmp_path, files, ["parity-pair"], tests=tests)
        assert {f.symbol for f in report.findings} == {"quant-mode:int4"}


# ---------------------------------------------------------------------------
# hot-path
# ---------------------------------------------------------------------------


class TestHotPath:
    def test_concatenate_in_loop_fires(self, tmp_path):
        files = {
            "nlg/cache.py": """
                import numpy as np

                class DecodeCache:
                    def get(self, keys):
                        out = None
                        for key in keys:
                            out = np.concatenate([out, key])
                        return out

                    def put(self, key):
                        return key
            """
        }
        report = run_rules(tmp_path, files, ["hot-path"])
        assert any(
            f.symbol == "DecodeCache.get:concatenate-in-loop" for f in report.findings
        )

    def test_float64_literal_and_np_append_fire(self, tmp_path):
        files = {
            "service/batcher.py": """
                import numpy as np

                class MicroBatcher:
                    def _collect_batch(self, items):
                        batch = []
                        for item in items:
                            batch.append(np.asarray(item, dtype="float64"))
                        return batch
            """
        }
        report = run_rules(tmp_path, files, ["hot-path"])
        symbols = {f.symbol for f in report.findings}
        assert "MicroBatcher._collect_batch:np-append-in-loop" in symbols
        assert "MicroBatcher._collect_batch:float64-literal" in symbols

    def test_try_in_item_loop_fires_but_range_loop_is_exempt(self, tmp_path):
        files = {
            "service/fleet/router.py": """
                class LanternFleet:
                    def _forward(self, bodies):
                        for attempt in range(2):
                            try:
                                return attempt
                            except KeyError:
                                pass
                        for body in bodies:
                            try:
                                body()
                            except KeyError:
                                pass
            """
        }
        report = run_rules(tmp_path, files, ["hot-path"])
        assert [f.symbol for f in report.findings] == [
            "LanternFleet._forward:try-in-loop"
        ]

    def test_vanished_hot_symbol_fires(self, tmp_path):
        files = {"nlg/cache.py": "class DecodeCache:\n    def get(self, k):\n        return k\n"}
        report = run_rules(tmp_path, files, ["hot-path"])
        assert any(f.symbol == "DecodeCache.put:missing" for f in report.findings)


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------

TAXONOMY = {
    "errors.py": """
        class ReproError(Exception):
            pass

        class ServiceError(ReproError):
            pass
    """
}


class TestErrorTaxonomy:
    def test_untyped_raise_in_service_fires(self, tmp_path):
        files = dict(TAXONOMY)
        files["service/server.py"] = """
            def handler():
                raise ValueError("nope")
        """
        report = run_rules(tmp_path, files, ["error-taxonomy"])
        assert any(f.symbol == "handler:raise:ValueError" for f in report.findings)

    def test_taxonomy_raises_and_local_subclasses_pass(self, tmp_path):
        files = dict(TAXONOMY)
        files["service/server.py"] = """
            from errors import ServiceError

            class _HTTPError(ServiceError):
                pass

            def handler(request):
                if request is None:
                    raise _HTTPError()
                if request.error is not None:
                    raise request.error
                raise ServiceError("typed")
        """
        report = run_rules(tmp_path, files, ["error-taxonomy"])
        assert report.findings == []

    def test_silent_broad_except_fires_but_recording_one_passes(self, tmp_path):
        files = dict(TAXONOMY)
        files["obs/metrics.py"] = """
            def swallow():
                try:
                    work()
                except Exception:
                    return None

            def record(counter):
                try:
                    work()
                except Exception:
                    counter.bump()
        """
        report = run_rules(tmp_path, files, ["error-taxonomy"])
        assert [f.symbol for f in report.findings] == ["swallow:broad-except"]

    def test_baseline_filters_the_fingerprint(self, tmp_path):
        files = dict(TAXONOMY)
        files["service/server.py"] = """
            def handler():
                raise ValueError("nope")
        """
        baseline = Baseline(
            [
                {
                    "rule": "error-taxonomy",
                    "path": "service/server.py",
                    "symbol": "handler:raise:ValueError",
                    "note": "legacy, tracked elsewhere",
                }
            ]
        )
        report = run_rules(tmp_path, files, ["error-taxonomy"], baseline=baseline)
        assert report.findings == []
        assert report.baselined == 1


# ---------------------------------------------------------------------------
# api-surface
# ---------------------------------------------------------------------------


class TestApiSurface:
    FILES = {
        "service/server.py": """
            def route(path):
                if path == "/narrate":
                    return 200
                if path == "/shadow":
                    return 200
        """,
        "service/__main__.py": """
            import argparse

            parser = argparse.ArgumentParser()
            parser.add_argument("--port", type=int)
            parser.add_argument("--secret-knob")
        """,
    }

    def test_undocumented_route_and_flag_fire(self, tmp_path):
        docs = {"api.md": "POST /narrate\n", "operations.md": "`--port` binds.\n"}
        report = run_rules(tmp_path, self.FILES, ["api-surface"], docs=docs)
        symbols = {f.symbol for f in report.findings}
        assert symbols == {
            "route:/shadow",
            "flag:--secret-knob:service/__main__.py",
        }

    def test_documented_surface_passes(self, tmp_path):
        docs = {
            "api.md": "POST /narrate and GET /shadow\n",
            "operations.md": "`--port` and `--secret-knob`.\n",
        }
        report = run_rules(tmp_path, self.FILES, ["api-surface"], docs=docs)
        assert report.findings == []

    def test_rule_is_skipped_without_docs(self, tmp_path):
        report = run_rules(tmp_path, self.FILES, ["api-surface"])
        assert report.findings == []
        assert report.skipped_rules == ["api-surface (docs)"]

    ROUTE_TABLE = {
        "service/frontend.py": """
            def base_routes(target):
                return {("GET", "/metrics"): target.metrics}

            class Worker:
                def routes(self):
                    return {
                        ("POST", "/narrate"): self.narrate,
                        **base_routes(self),
                        ("POST", "/admin/shadow"): self.shadow,
                        ("not", "a route"): None,
                    }
        """,
    }

    def test_route_table_keys_are_routes(self, tmp_path):
        docs = {"api.md": "POST /narrate and GET /metrics\n"}
        report = run_rules(tmp_path, self.ROUTE_TABLE, ["api-surface"], docs=docs)
        assert {f.symbol for f in report.findings} == {"route:/admin/shadow"}
        docs = {"api.md": "POST /narrate, GET /metrics, POST /admin/shadow\n"}
        report = run_rules(tmp_path, self.ROUTE_TABLE, ["api-surface"], docs=docs)
        assert report.findings == []

    def test_live_repo_routes_are_all_seen(self):
        """The rule must not go blind: it reads every route the live
        service, fleet worker and router serve."""
        from repro.analysis.engine import load_files
        from repro.analysis.rules.api_surface import _route_literals

        sources = load_files(REPO_ROOT / "src" / "repro")
        routes = {
            route
            for source in sources
            if source.rel.startswith("service/")
            for route, _ in _route_literals(source)
        }
        assert routes == {
            "/narrate",
            "/metrics",
            "/trace",
            "/healthz",
            "/admin/drain",
            "/admin/cache",
            "/admin/restart",
        }


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_comment_only_suppression_covers_next_line(self, tmp_path):
        files = {
            "store.py": """
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        with self._lock:
                            pass

                    def locked(self):
                        with self._lock:
                            self.items = []

                    def sneaky(self):
                        # sentry: off
                        self.items = []
            """
        }
        report = run_rules(tmp_path, files, ["lock-discipline"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_unknown_rule_name_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["no-such-rule"])

    def test_all_rules_have_names_and_descriptions(self):
        assert set(ALL_RULES) == {
            "lock-discipline",
            "parity-pair",
            "hot-path",
            "error-taxonomy",
            "api-surface",
        }
        for rule in ALL_RULES.values():
            assert rule.description

    def test_baseline_rejects_bad_files(self, tmp_path):
        bad_version = tmp_path / "b1.json"
        bad_version.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(BaselineError, match="version"):
            Baseline.load(bad_version)
        bad_entry = tmp_path / "b2.json"
        bad_entry.write_text(json.dumps({"version": 1, "findings": [{"rule": "x"}]}))
        with pytest.raises(BaselineError, match="rule/path/symbol"):
            Baseline.load(bad_entry)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
        timeout=120,
    )


class TestCli:
    def dirty_repo(self, tmp_path):
        return write_tree(
            tmp_path / "proj",
            {
                "src/repro/service/server.py": textwrap.dedent(
                    """
                    def handler():
                        raise ValueError("nope")
                    """
                )
            },
        )

    def test_findings_exit_1_and_json_schema(self, tmp_path):
        result = run_cli("--root", str(self.dirty_repo(tmp_path)), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["tool"] == "lantern-sentry"
        assert payload["version"] == 1
        assert payload["counts"]["active"] == len(payload["findings"]) > 0
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "symbol", "message"}
        assert set(payload["counts"]["by_rule"]) == set(payload["rules"])

    def test_write_baseline_then_clean_run(self, tmp_path):
        root = self.dirty_repo(tmp_path)
        wrote = run_cli("--root", str(root), "--write-baseline")
        assert wrote.returncode == 0
        assert (root / ".sentry-baseline.json").is_file()
        rerun = run_cli("--root", str(root), "--format", "json")
        assert rerun.returncode == 0
        assert json.loads(rerun.stdout)["counts"]["baselined"] > 0

    def test_disable_rule_and_unknown_rule_exit_codes(self, tmp_path):
        root = self.dirty_repo(tmp_path)
        disabled = run_cli("--root", str(root), "--disable", "error-taxonomy")
        assert disabled.returncode == 0
        unknown = run_cli("--root", str(root), "--rules", "no-such-rule")
        assert unknown.returncode == 2
        missing_baseline = run_cli("--root", str(root), "--baseline", "nope.json")
        assert missing_baseline.returncode == 2

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for name in ALL_RULES:
            assert name in result.stdout


class TestRepoIsClean:
    def test_live_tree_passes_sentry(self):
        """Tier-1 gate: the repo passes its own analyzer (modulo baseline)."""
        result = run_cli("--root", str(REPO_ROOT), "--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["findings"] == []
        assert payload["files_checked"] > 50
