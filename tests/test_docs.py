"""The docs stay honest: links resolve, fences parse, `python run` executes.

Conventions enforced here:

* every relative markdown link in ``README.md`` and ``docs/*.md`` must
  point at an existing file, and a ``#fragment`` must name a real heading
  (GitHub slug rules) in the target document;
* ```` ```python ```` fences must byte-compile;
* ```` ```python run ```` fences must *execute* successfully in a fresh
  interpreter with ``PYTHONPATH=src`` — these are the documented examples
  that double as smoke tests;
* ```` ```bash ```` fences must pass ``bash -n`` (syntax only — they start
  servers and trainers, so they are not run);
* ```` ```json ```` fences must parse.

Fences tagged ``text``, ``yaml``, or left bare are illustrative output and
are skipped.

CI runs scripts by path, so every repo path that a ``run:`` line of
``ci.yml`` or a string of ``tests/smoke.py`` names must exist, and the smoke
script must byte-compile: a rename then fails here, not only in CI.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATHS = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

_FENCE_OPEN = re.compile(r"^```(\S*)\s*(.*)$")
# [text](target) — excluding images; target may carry a #fragment
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
CI_PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"
SMOKE_PATH = REPO_ROOT / "tests" / "smoke.py"
# a relative repo path with a directory and a file extension: tests/smoke.py
_REPO_PATH = re.compile(r"(?<![\w./-])((?:[\w-]+/)+[\w-]+\.\w+)")


def _doc_id(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


def _parse_fences(text: str) -> list[tuple[str, str, str]]:
    """Return ``(language, info, body)`` per fenced block."""
    fences: list[tuple[str, str, str]] = []
    language = info = None
    body: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if language is None:
            match = _FENCE_OPEN.match(stripped)
            if match:
                language, info = match.group(1).lower(), match.group(2).strip()
                body = []
        elif stripped == "```":
            fences.append((language, info, "\n".join(body)))
            language = info = None
        else:
            body.append(line)
    assert language is None, f"unclosed ``` fence (language {language!r})"
    return fences


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces → hyphens."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # links keep text
    heading = heading.lower().strip()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _slugs(path: Path) -> set[str]:
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            slugs.add(_github_slug(match.group(2)))
    return slugs


class TestLinks:
    @pytest.mark.parametrize("path", DOC_PATHS, ids=_doc_id)
    def test_relative_links_resolve(self, path: Path) -> None:
        text = path.read_text(encoding="utf-8")
        broken: list[str] = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target_path, _, fragment = target.partition("#")
            resolved = (
                path if not target_path else (path.parent / target_path).resolve()
            )
            if not resolved.exists():
                broken.append(target)
                continue
            if fragment and resolved.suffix == ".md" and fragment not in _slugs(resolved):
                broken.append(f"{target} (no heading for #{fragment})")
        assert not broken, f"broken links in {_doc_id(path)}: {broken}"

    def test_docs_are_linked_from_readme(self) -> None:
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            assert f"docs/{page.name}" in readme, f"README does not link {page.name}"


def _fences(language: str) -> list:
    params = []
    for path in DOC_PATHS:
        for index, (fence_language, info, body) in enumerate(
            _parse_fences(path.read_text(encoding="utf-8"))
        ):
            if fence_language == language:
                params.append(
                    pytest.param(path, info, body, id=f"{_doc_id(path)}[{index}]")
                )
    return params


class TestFences:
    @pytest.mark.parametrize("path,info,body", _fences("python"))
    def test_python_fences_compile(self, path: Path, info: str, body: str) -> None:
        compile(body, f"<{_doc_id(path)}>", "exec")

    @pytest.mark.parametrize(
        "path,info,body",
        [param for param in _fences("python") if "run" in param.values[1].split()],
    )
    def test_python_run_fences_execute(self, path: Path, info: str, body: str) -> None:
        result = subprocess.run(
            [sys.executable, "-"],
            input=body,
            text=True,
            capture_output=True,
            timeout=180,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": os.environ.get("PATH", ""),
            },
        )
        assert result.returncode == 0, (
            f"`python run` fence in {_doc_id(path)} failed:\n"
            f"{result.stdout}\n{result.stderr}"
        )

    def test_at_least_one_fence_executes(self) -> None:
        assert [p for p in _fences("python") if "run" in p.values[1].split()], (
            "the docs should keep at least one executable `python run` example"
        )

    @pytest.mark.parametrize("path,info,body", _fences("bash"))
    def test_bash_fences_parse(self, path: Path, info: str, body: str) -> None:
        bash = shutil.which("bash")
        if bash is None:
            pytest.skip("no bash on this machine")
        result = subprocess.run(
            [bash, "-n"], input=body, text=True, capture_output=True, timeout=30
        )
        assert result.returncode == 0, (
            f"bash fence in {_doc_id(path)} does not parse:\n{result.stderr}"
        )

    @pytest.mark.parametrize("path,info,body", _fences("json"))
    def test_json_fences_parse(self, path: Path, info: str, body: str) -> None:
        json.loads(body)


class TestCi:
    def test_run_lines_and_smoke_name_existing_paths(self) -> None:
        runs = [
            line.split("run:", 1)[1]
            for line in CI_PATH.read_text(encoding="utf-8").splitlines()
            if line.strip().startswith("run:")
        ]
        smoke = SMOKE_PATH.read_text(encoding="utf-8")
        named = {path for line in runs for path in _REPO_PATH.findall(line)}
        assert "tests/smoke.py" in named, runs
        named |= set(re.findall(r'"((?:[\w-]+/)+[\w-]+\.py)"', smoke))
        missing = sorted(path for path in named if not (REPO_ROOT / path).is_file())
        assert not missing, f"CI names paths that do not exist: {missing}"

    def test_smoke_script_compiles(self) -> None:
        compile(SMOKE_PATH.read_text(encoding="utf-8"), str(SMOKE_PATH), "exec")
