"""api-surface: the code's HTTP and CLI surface stays documented.

Operators drive this stack from ``docs/api.md`` and
``docs/operations.md``; a route or flag those pages don't mention is
effectively unshipped (or worse: shipped and unsupportable).  The rule
extracts the real surface from the code —

* HTTP routes: the keys of ``service/**`` route tables
  (``{("POST", "/narrate"): ..., ...}``, what the shared front end
  dispatches on), plus string literals compared against a ``path``
  variable (``if path == "/narrate":`` and ``path in (...)`` membership
  tests), and
* CLI flags: ``add_argument("--flag", ...)`` calls in ``service/**``
  ``__main__`` modules —

and flags every element that neither page mentions.  The check is
one-directional on purpose: docs may describe more than the code (roadmap
sections), but the code may not grow surface the docs don't know about.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import AnalysisContext, Finding, SourceFile
from repro.analysis.rules import Rule

_DOC_PAGES = ("api.md", "operations.md")
_PATH_NAMES = {"path", "route"}
_HTTP_METHODS = {"GET", "POST", "PUT", "PATCH", "DELETE", "HEAD"}


def _route_key(node: Optional[ast.AST]) -> Optional[str]:
    """The path of a route-table key ``("METHOD", "/path")``, else None."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
        return None
    method, path = node.elts
    if (
        isinstance(method, ast.Constant)
        and method.value in _HTTP_METHODS
        and isinstance(path, ast.Constant)
        and isinstance(path.value, str)
        and path.value.startswith("/")
    ):
        return path.value
    return None


def _route_literals(source: SourceFile) -> list[tuple[str, int]]:
    routes: list[tuple[str, int]] = []

    def is_path_name(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in _PATH_NAMES

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:  # a ``**spread`` entry has key None
                path = _route_key(key)
                if path is not None:
                    routes.append((path, key.lineno))
            continue
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(is_path_name(side) for side in sides):
            continue
        for side in sides:
            literals = (
                side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
            )
            for literal in literals:
                if (
                    isinstance(literal, ast.Constant)
                    and isinstance(literal.value, str)
                    and literal.value.startswith("/")
                ):
                    routes.append((literal.value, literal.lineno))
    return routes


def _cli_flags(source: SourceFile) -> list[tuple[str, int]]:
    flags: list[tuple[str, int]] = []
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("--")
        ):
            flags.append((node.args[0].value, node.args[0].lineno))
    return flags


class ApiSurfaceRule(Rule):
    name = "api-surface"
    description = (
        "HTTP routes and service __main__ CLI flags must be documented in "
        "docs/api.md or docs/operations.md"
    )
    requires_docs = True

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        docs = context.doc_texts()
        corpus = "\n".join(
            text for name, text in docs.items() if name in _DOC_PAGES
        ) or "\n".join(docs.values())
        seen: set[str] = set()
        for source in context.files_under("service"):
            for route, line in _route_literals(source):
                if route in seen:
                    continue
                seen.add(route)
                if route not in corpus:
                    yield Finding(
                        rule=self.name,
                        path=source.rel,
                        line=line,
                        symbol=f"route:{route}",
                        message=(
                            f"HTTP route {route} is served but not documented in "
                            + " or ".join(_DOC_PAGES)
                        ),
                    )
            if not source.rel.endswith("__main__.py"):
                continue
            for flag, line in _cli_flags(source):
                key = f"{source.rel}:{flag}"
                if key in seen:
                    continue
                seen.add(key)
                if flag not in corpus:
                    yield Finding(
                        rule=self.name,
                        path=source.rel,
                        line=line,
                        symbol=f"flag:{flag}:{source.rel}",
                        message=(
                            f"CLI flag {flag} ({source.rel}) is not documented in "
                            + " or ".join(_DOC_PAGES)
                        ),
                    )
