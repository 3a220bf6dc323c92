"""The SENTRY analysis engine: file loading, suppressions, rule dispatch.

The engine is deliberately boring: parse every package file once with
:mod:`ast`, hand the parsed forest to each enabled rule, and filter what
comes back through inline suppressions and the committed baseline.  All the
repo-awareness lives in the rules (:mod:`repro.analysis.rules`); all the
bookkeeping lives here, so a new checker is one class with one method.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.baseline import Baseline

#: inline suppression marker: ``# sentry: off`` silences every rule on the
#: line (or the next line, for a comment-only line); ``# sentry: off[a,b]``
#: silences just those rules
_SUPPRESS = re.compile(r"#\s*sentry:\s*off(?:\[([a-zA-Z0-9_,\- ]+)\])?")

#: every rule name — the sentinel meaning "all rules" in a suppression set
ALL = "*"

#: the test-only package under ``tests/`` that holds the reference twins of
#: the shipped fused kernels; it is read as oracles, not as test modules
ORACLE_PACKAGE = "oracles"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one place.

    ``symbol`` is the *stable* identity used by suppressions-by-baseline:
    fingerprints are ``(rule, path, symbol)`` with no line number, so a
    baselined legacy finding survives unrelated edits above it.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One parsed package file plus its inline suppression map."""

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.text, filename=str(path))
        self.suppressions = self._parse_suppressions(self.text)

    @staticmethod
    def _parse_suppressions(text: str) -> dict[int, set[str]]:
        """Map line number → rule names silenced there.

        A trailing comment suppresses its own line; a comment-only line
        also suppresses the next line, so block-style suppressions read
        naturally above the offending statement.
        """
        suppressions: dict[int, set[str]] = {}
        for number, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS.search(line)
            if not match:
                continue
            names = (
                {name.strip() for name in match.group(1).split(",") if name.strip()}
                if match.group(1)
                else {ALL}
            )
            targets = [number]
            if line.lstrip().startswith("#"):
                targets.append(number + 1)
            for target in targets:
                suppressions.setdefault(target, set()).update(names)
        return suppressions

    def suppressed(self, rule: str, line: int) -> bool:
        names = self.suppressions.get(line)
        return bool(names) and (rule in names or ALL in names)


class AnalysisContext:
    """Everything a rule may look at: the parsed tree plus tests and docs."""

    def __init__(
        self,
        scan_root: Path,
        files: list[SourceFile],
        tests_dir: Optional[Path] = None,
        docs_dir: Optional[Path] = None,
    ) -> None:
        self.scan_root = scan_root
        self.files = files
        self.tests_dir = tests_dir if tests_dir and tests_dir.is_dir() else None
        self.docs_dir = docs_dir if docs_dir and docs_dir.is_dir() else None
        self._by_rel = {source.rel: source for source in files}
        self._test_texts: Optional[dict[str, str]] = None
        self._doc_texts: Optional[dict[str, str]] = None

    def file(self, rel: str) -> Optional[SourceFile]:
        return self._by_rel.get(rel)

    def files_matching(self, *suffixes: str) -> list[SourceFile]:
        """Files whose posix-relative path ends with any given suffix."""
        return [
            source
            for source in self.files
            if any(source.rel == s or source.rel.endswith("/" + s) for s in suffixes)
        ]

    def files_under(self, *prefixes: str) -> list[SourceFile]:
        """Files living under any of the given package-relative directories."""
        return [
            source
            for source in self.files
            if any(
                source.rel.startswith(p.rstrip("/") + "/") or ("/" + p.rstrip("/") + "/") in source.rel
                for p in prefixes
            )
        ]

    def test_texts(self) -> dict[str, str]:
        """``{file name: text}`` for every test module (empty without tests/).

        The oracle package is not a test module and is left out.
        """
        if self._test_texts is None:
            self._test_texts = self._read_tree(
                self.tests_dir, "*.py", exclude=ORACLE_PACKAGE
            )
        return self._test_texts

    def oracle_files(self) -> list[SourceFile]:
        """The parsed modules of ``tests/oracles/`` (empty without it)."""
        root = self.tests_dir / ORACLE_PACKAGE if self.tests_dir else None
        return load_files(root) if root is not None and root.is_dir() else []

    def doc_texts(self) -> dict[str, str]:
        """``{file name: text}`` for every docs page (empty without docs/)."""
        if self._doc_texts is None:
            self._doc_texts = self._read_tree(self.docs_dir, "*.md")
            readme = (
                self.docs_dir.parent / "README.md" if self.docs_dir is not None else None
            )
            if readme is not None and readme.is_file():
                self._doc_texts["README.md"] = readme.read_text(encoding="utf-8")
        return self._doc_texts

    @staticmethod
    def _read_tree(
        root: Optional[Path], pattern: str, exclude: Optional[str] = None
    ) -> dict[str, str]:
        if root is None:
            return {}
        return {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(root.rglob(pattern))
            if "__pycache__" not in path.parts
            and (exclude is None or path.relative_to(root).parts[0] != exclude)
        }


@dataclass
class AnalysisReport:
    """What one engine run produced, ready for text or JSON rendering."""

    scan_root: str
    rules: list[str]
    files_checked: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    skipped_rules: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        by_rule: dict[str, int] = {rule: 0 for rule in self.rules}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return {
            "version": 1,
            "tool": "lantern-sentry",
            "root": self.scan_root,
            "files_checked": self.files_checked,
            "rules": self.rules,
            "findings": [finding.to_dict() for finding in self.findings],
            "counts": {
                "active": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "by_rule": by_rule,
            },
            "skipped_rules": self.skipped_rules,
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"sentry: {len(self.findings)} finding(s) in {self.files_checked} files "
            f"({self.suppressed} suppressed inline, {self.baselined} baselined)"
        )
        if self.skipped_rules:
            lines.append(
                "sentry: skipped (missing tests/ or docs/): "
                + ", ".join(self.skipped_rules)
            )
        return "\n".join(lines)


def discover_repo_root(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the checkout root (ROADMAP.md / .git)."""
    for candidate in (start, *start.parents):
        if (candidate / "ROADMAP.md").is_file() or (candidate / ".git").exists():
            return candidate
    return None


def load_files(scan_root: Path) -> list[SourceFile]:
    sources = []
    for path in sorted(scan_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(scan_root).as_posix()
        sources.append(SourceFile(path, rel))
    return sources


def analyze(
    scan_root: Path,
    tests_dir: Optional[Path] = None,
    docs_dir: Optional[Path] = None,
    rules: Optional[Iterable[str]] = None,
    disabled: Optional[Iterable[str]] = None,
    baseline: Optional[Baseline] = None,
) -> AnalysisReport:
    """Run the enabled rules over ``scan_root`` and filter the findings.

    ``rules``/``disabled`` select by rule name; ``baseline`` drops findings
    whose fingerprints were previously accepted.  Inline suppressions are
    honoured for findings in scanned files.
    """
    from repro.analysis.rules import get_rules

    selected = get_rules(rules, disabled)
    context = AnalysisContext(
        scan_root, load_files(scan_root), tests_dir=tests_dir, docs_dir=docs_dir
    )
    report = AnalysisReport(
        scan_root=str(scan_root),
        rules=[rule.name for rule in selected],
        files_checked=len(context.files),
    )
    for rule in selected:
        if rule.requires_tests and context.tests_dir is None:
            report.skipped_rules.append(f"{rule.name} (tests)")
        if rule.requires_docs and context.docs_dir is None:
            report.skipped_rules.append(f"{rule.name} (docs)")
            continue
        for finding in rule.check(context):
            source = context.file(finding.path)
            if source is not None and source.suppressed(finding.rule, finding.line):
                report.suppressed += 1
            elif baseline is not None and baseline.covers(finding):
                report.baselined += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.symbol))
    return report
