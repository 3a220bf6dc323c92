"""hot-path: the declared hot functions stay allocation-disciplined.

The repo has a small, explicit set of per-request / per-token functions
(batched beam decode, cache lookup, span recording, router forward, batch
collection).  Inside those — and only those — the rule flags the patterns
that PRs 4-6 spent their budget removing:

* ``np.concatenate``/``vstack``/``hstack`` inside a loop (per-iteration
  array reallocation; hoist or preallocate);
* ``list.append(np.<...>(...))`` inside a loop (accumulating fresh arrays
  one by one instead of batching);
* ``float64`` mentioned by name (the decode stack threads dtype through
  config; a literal pins precision and silently defeats float32/quantized
  replicas);
* ``try``/``except`` inside a ``for`` loop over a non-``range`` iterable
  (per-item exception frames on the data path; ``range`` loops are exempt
  because bounded retry loops are idiomatic).

The declared set lives in ``HOT_PATHS``; a declared symbol that no longer
exists is itself a finding, so the table cannot rot.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import AnalysisContext, Finding, SourceFile
from repro.analysis.rules import Rule

#: file suffix → qualified symbols ("Class.method" or bare function name)
HOT_PATHS: dict[str, tuple[str, ...]] = {
    "nlg/seq2seq.py": ("QEP2Seq.beam_decode_batch", "_BeamSearch.join", "_BeamSearch.step"),
    "nlg/cache.py": ("DecodeCache.get", "DecodeCache.put"),
    "obs/tracing.py": ("Span.child", "Span.add_child_at", "TraceStore.add"),
    "service/fleet/router.py": ("LanternFleet._forward",),
    "service/batcher.py": ("MicroBatcher._collect_batch",),
}

_CONCAT_NAMES = {"concatenate", "vstack", "hstack"}


def _find_symbol(tree: ast.Module, qualname: str) -> Optional[ast.AST]:
    parts = qualname.split(".")
    scope: ast.AST = tree
    for index, part in enumerate(parts):
        wanted = (
            (ast.FunctionDef, ast.AsyncFunctionDef)
            if index == len(parts) - 1
            else ast.ClassDef
        )
        scope = next(
            (
                node
                for node in getattr(scope, "body", [])
                if isinstance(node, wanted) and node.name == part
            ),
            None,
        )
        if scope is None:
            return None
    return scope


def _is_np_call(node: ast.AST, names: Optional[set[str]] = None) -> bool:
    """True for ``np.<attr>(...)`` (optionally restricted to ``names``)."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    root = node.func.value
    while isinstance(root, ast.Attribute):
        root = root.value
    if not (isinstance(root, ast.Name) and root.id in ("np", "numpy")):
        return False
    return names is None or node.func.attr in names


def _is_range_loop(loop: ast.For) -> bool:
    call = loop.iter
    if isinstance(call, ast.Call):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in ("range", "enumerate")
    return False


class HotPathRule(Rule):
    name = "hot-path"
    description = (
        "declared hot functions stay free of per-iteration array concatenation, "
        "array-accumulating appends, float64 literals, and per-item try/except"
    )

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for suffix, symbols in HOT_PATHS.items():
            for source in context.files_matching(suffix):
                for qualname in symbols:
                    function = _find_symbol(source.tree, qualname)
                    if function is None:
                        yield Finding(
                            rule=self.name,
                            path=source.rel,
                            line=1,
                            symbol=f"{qualname}:missing",
                            message=(
                                f"declared hot-path symbol {qualname} no longer "
                                f"exists in {source.rel} (update HOT_PATHS)"
                            ),
                        )
                        continue
                    yield from self._check_function(source, qualname, function)

    def _check_function(
        self, source: SourceFile, qualname: str, function: ast.AST
    ) -> Iterator[Finding]:
        float64_lines: list[int] = []
        findings: list[Finding] = []

        def visit(node: ast.AST, loop_depth: int) -> None:
            if isinstance(node, (ast.For, ast.While)):
                entered = loop_depth + 1
                if isinstance(node, ast.For) and not _is_range_loop(node):
                    for child in ast.walk(node):
                        if isinstance(child, ast.Try):
                            findings.append(
                                Finding(
                                    rule=self.name,
                                    path=source.rel,
                                    line=child.lineno,
                                    symbol=f"{qualname}:try-in-loop",
                                    message=(
                                        f"try/except around per-item work in hot "
                                        f"path {qualname} (hoist out of the loop)"
                                    ),
                                )
                            )
                            break
                for child in ast.iter_child_nodes(node):
                    visit(child, entered)
                return
            if loop_depth > 0 and _is_np_call(node, _CONCAT_NAMES):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=source.rel,
                        line=node.lineno,
                        symbol=f"{qualname}:concatenate-in-loop",
                        message=(
                            f"np.{node.func.attr} inside a loop in hot path "
                            f"{qualname} reallocates per iteration (preallocate "
                            "or batch outside the loop)"
                        ),
                    )
                )
            if (
                loop_depth > 0
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and node.args
                and _is_np_call(node.args[0])
            ):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=source.rel,
                        line=node.lineno,
                        symbol=f"{qualname}:np-append-in-loop",
                        message=(
                            f"appending a fresh numpy array per iteration in hot "
                            f"path {qualname} (preallocate and fill instead)"
                        ),
                    )
                )
            if isinstance(node, ast.Constant) and node.value == "float64":
                float64_lines.append(node.lineno)
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                float64_lines.append(node.lineno)
            for child in ast.iter_child_nodes(node):
                visit(child, loop_depth)

        for statement in function.body:
            visit(statement, 0)
        yield from findings
        if float64_lines:
            yield Finding(
                rule=self.name,
                path=source.rel,
                line=min(float64_lines),
                symbol=f"{qualname}:float64-literal",
                message=(
                    f"float64 pinned by name in hot path {qualname}; thread the "
                    "dtype through config so float32/quantized replicas stay live"
                ),
            )
