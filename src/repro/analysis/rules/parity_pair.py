"""parity-pair: every fused/turbo kernel keeps a live, tested reference twin.

The repro's optimization story (ROADMAP PRs 3-6) is "fast path + reference
path + agreement test".  The fast paths ship; the reference twins live in
the test-only oracle package ``tests/oracles/``.  This rule makes the
triangle structural:

* every ``*_fused``/``*_turbo`` symbol in ``nlg/nn/`` or ``nlg/seq2seq.py``
  must resolve to a reference counterpart — the base name
  (``forward_fused`` → ``forward``) or ``<base>_reference``
  (``_forward_turbo`` → ``_forward_reference``) — either in the same scope
  or, for a method, as an oracle-package function whose first parameter is
  annotated with the method's class (``def forward(lstm: LSTM, ...)``);
* every fused symbol must be exercised together with its twin by at least
  one test module (the oracle package itself does not count);
* declared call-site pairs (batched beam decode vs. its sequential twin)
  get the same treatment even though neither name carries a suffix;
* every quantize mode in ``nlg/nn/quant.py``'s ``QUANTIZE_MODES`` (except
  ``"none"``) must appear in a test module next to a quantize/infer call,
  so a new int4 mode cannot ship without an agreement test.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import AnalysisContext, Finding, SourceFile
from repro.analysis.rules import Rule

_FUSED_SUFFIXES = ("_fused", "_turbo")

#: (file suffix, class, fast symbol) → required reference symbol; these are
#: parity pairs whose names carry no fused/turbo marker
_EXTRA_PAIRS = (
    ("nlg/seq2seq.py", "QEP2Seq", "beam_decode_batch", "beam_decode_candidates_sequential"),
)

_QUANT_FILE = "nlg/nn/quant.py"
_QUANT_EXEMPT_MODES = {"none"}


def _fused_base(name: str) -> Optional[str]:
    for suffix in _FUSED_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return name[: -len(suffix)]
    return None


def _scope_functions(scope: ast.AST) -> dict[str, ast.AST]:
    """Direct function children of a module or class body."""
    return {
        node.name: node
        for node in getattr(scope, "body", [])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _annotated_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class name a parameter annotation names (``LSTM``,
    ``lstm.LSTM`` or ``"LSTM"``), else None."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def _oracle_twins(context: AnalysisContext) -> dict[str, set[str]]:
    """Class name → names of the oracle-package functions whose first
    parameter is annotated with that class."""
    twins: dict[str, set[str]] = {}
    for source in context.oracle_files():
        for node in source.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            parameters = node.args.posonlyargs + node.args.args
            owner = _annotated_class(parameters[0].annotation) if parameters else None
            if owner is not None:
                twins.setdefault(owner, set()).add(node.name)
    return twins


class ParityPairRule(Rule):
    name = "parity-pair"
    description = (
        "fused/turbo kernels must keep a resolvable reference twin, public "
        "pairs must share a test, and every quantize mode needs an agreement test"
    )
    requires_tests = True

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        sources = context.files_under("nlg/nn") + context.files_matching(
            "nlg/seq2seq.py"
        )
        tests = context.test_texts()
        oracles = _oracle_twins(context)
        for source in sources:
            yield from self._check_scope(source, source.tree, None, tests, set())
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_scope(
                        source, node, node.name, tests, oracles.get(node.name, set())
                    )
            yield from self._check_extra_pairs(source, tests, oracles)
        yield from self._check_quant_modes(context, tests)

    def _check_scope(
        self,
        source: SourceFile,
        scope: ast.AST,
        class_name: Optional[str],
        tests: dict[str, str],
        oracle_twins: set[str],
    ) -> Iterator[Finding]:
        functions = _scope_functions(scope)
        for name, node in functions.items():
            base = _fused_base(name)
            if base is None:
                continue
            qual = f"{class_name}.{name}" if class_name else name
            reference = next(
                (
                    c
                    for c in (base, base + "_reference")
                    if c in functions or c in oracle_twins
                ),
                None,
            )
            if reference is None:
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=node.lineno,
                    symbol=qual,
                    message=(
                        f"fused symbol {qual} has no reference counterpart "
                        f"({base} or {base}_reference) in the same scope or "
                        "the oracle package"
                    ),
                )
                continue
            if not tests:
                continue
            if not any(name in text and reference in text for text in tests.values()):
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=node.lineno,
                    symbol=f"{qual}:untested",
                    message=(
                        f"no test module references both {name} and its "
                        f"reference twin {reference}"
                    ),
                )

    def _check_extra_pairs(
        self, source: SourceFile, tests: dict[str, str], oracles: dict[str, set[str]]
    ) -> Iterator[Finding]:
        for suffix, class_name, fast, reference in _EXTRA_PAIRS:
            if not (source.rel == suffix or source.rel.endswith("/" + suffix)):
                continue
            cls = next(
                (
                    node
                    for node in ast.walk(source.tree)
                    if isinstance(node, ast.ClassDef) and node.name == class_name
                ),
                None,
            )
            if cls is None:
                continue
            functions = _scope_functions(cls)
            if fast not in functions:
                continue
            if reference not in functions and reference not in oracles.get(class_name, ()):
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=functions[fast].lineno,
                    symbol=f"{class_name}.{fast}",
                    message=(
                        f"{class_name}.{fast} lost its declared reference twin "
                        f"{class_name}.{reference}"
                    ),
                )
            elif tests and not any(
                fast in text and reference in text for text in tests.values()
            ):
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=functions[fast].lineno,
                    symbol=f"{class_name}.{fast}:untested",
                    message=(
                        f"no test module references both {fast} and {reference}"
                    ),
                )

    def _check_quant_modes(
        self, context: AnalysisContext, tests: dict[str, str]
    ) -> Iterator[Finding]:
        for source in context.files_matching(_QUANT_FILE):
            for node in source.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == "QUANTIZE_MODES"
                    for t in node.targets
                ):
                    continue
                if not isinstance(node.value, (ast.Tuple, ast.List)):
                    continue
                for element in node.value.elts:
                    if not isinstance(element, ast.Constant):
                        continue
                    mode = element.value
                    if not isinstance(mode, str) or mode in _QUANT_EXEMPT_MODES:
                        continue
                    if tests and not any(
                        mode in text and ("quantize" in text or "infer_replica" in text)
                        for text in tests.values()
                    ):
                        yield Finding(
                            rule=self.name,
                            path=source.rel,
                            line=element.lineno,
                            symbol=f"quant-mode:{mode}",
                            message=(
                                f"quantize mode {mode!r} has no agreement test "
                                "(no test references it next to quantize/infer_replica)"
                            ),
                        )
