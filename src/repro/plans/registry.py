"""The auto-detecting plan-ingestion registry (LANTERN-SERVE's front door).

Before this registry existed, :class:`repro.core.lantern.Lantern` hard-coded
an if/elif dispatch over two serializations.  The registry replaces that with
an ordered list of :class:`PlanFormat` entries, each pairing a cheap
*detector* with a *parser*; payloads are dispatched either explicitly (by
format name or alias) or by auto-detection.  New engines plug in with one
:meth:`PlanRegistry.register` call — no facade changes — which is how the
MySQL adapter, the mini-engine pass-through, and the parsed-tree wire format
are all wired in.

Detection is two-phase: string payloads are normalized once (XML sniffed by
the leading ``<``, everything else JSON-decoded a single time), then every
registered detector is probed in order.  When a detector matches but its
parser rejects the payload, the registry keeps probing the remaining formats
and finally raises a structured :class:`repro.errors.PlanDetectionError`
carrying every attempted format and its rejection reason — the ``/narrate``
endpoint returns exactly that list in its 400 response body.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import PlanDetectionError, PlanFormatError
from repro.plans.mysql import parse_mysql_json
from repro.plans.operator_tree import OperatorTree
from repro.plans.postgres import parse_postgres_json
from repro.plans.sqlserver import parse_sqlserver_xml

#: canonical format names (importable so callers never typo a string)
FORMAT_OPERATOR_TREE = "operator-tree"
FORMAT_MINI_ENGINE = "mini-engine"
FORMAT_SQLSERVER_XML = "sqlserver-xml"
FORMAT_MYSQL_JSON = "mysql-json"
FORMAT_TREE_JSON = "operator-tree-json"
FORMAT_POSTGRES_JSON = "postgres-json"


#: successful ingests of text payloads kept per registry (the ingest memo):
#: a course's assignment plans repeat, and a TPC-H classroom's 22 queries in
#: three dialects (66 payloads) fit
INGEST_MEMO_SIZE = 128
#: text payloads longer than this (in characters) are parsed but not kept,
#: so large request bodies cannot pin memory in the memo
INGEST_MEMO_MAX_CHARS = 64 * 1024

#: what a parser may raise to mean "not this format".  RecursionError is a
#: plan nested deeper than the interpreter's stack: a malformed payload, not
#: a server fault
PARSER_REJECTIONS = (
    PlanFormatError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    RecursionError,
)


@dataclass(frozen=True)
class PlanFormat:
    """One ingestible plan serialization.

    ``detector`` receives the *prepared* payload (JSON strings arrive
    decoded) and must answer cheaply — it gates whether ``parser`` is tried
    during auto-detection.  ``parser`` receives the same prepared payload and
    returns an :class:`OperatorTree` or raises (the exceptions in
    :data:`PARSER_REJECTIONS` are treated as "not this format").
    """

    name: str
    detector: Callable[[Any], bool]
    parser: Callable[[Any], OperatorTree]
    aliases: tuple[str, ...] = ()
    description: str = ""

    def matches(self, name: str) -> bool:
        return name == self.name or name in self.aliases


class PlanRegistry:
    """Ordered, extensible dispatch from payloads to plan parsers.

    Text payloads go through an ingest memo: a repeated ``(plan_format,
    payload)`` pair returns the tree and format of its first successful
    ingest, so a payload is parsed once per process while it stays among
    the :data:`INGEST_MEMO_SIZE` most recently used.  Failures are not kept
    (a bad payload fails the same way every time), nor are payloads over
    :data:`INGEST_MEMO_MAX_CHARS`; decoded objects (dicts, lists, trees,
    engine plans) always parse afresh.  A memoized tree is shared by every
    caller that submits the same text, so registry trees are read-only
    (see :class:`~repro.plans.operator_tree.OperatorTree`).
    """

    def __init__(self, formats: Optional[list[PlanFormat]] = None) -> None:
        self._formats: list[PlanFormat] = list(formats or [])
        # functools.lru_cache is thread-safe, keeps no failed call, and a
        # cached call costs one hash of the payload text
        self._memo = functools.lru_cache(maxsize=INGEST_MEMO_SIZE)(self._ingest)

    def register(self, plan_format: PlanFormat, index: Optional[int] = None) -> None:
        """Add a format (at ``index`` to control auto-detection priority)."""
        existing = [f.name for f in self._formats]
        if plan_format.name in existing:
            raise ValueError(f"plan format {plan_format.name!r} is already registered")
        if index is None:
            self._formats.append(plan_format)
        else:
            self._formats.insert(index, plan_format)
        # a new format can change what a remembered payload detects as
        self._memo.cache_clear()

    def formats(self) -> list[str]:
        """Registered format names, in detection order."""
        return [f.name for f in self._formats]

    def resolve(self, name: str) -> PlanFormat:
        """The format registered under ``name`` (or one of its aliases)."""
        for plan_format in self._formats:
            if plan_format.matches(name):
                return plan_format
        raise PlanDetectionError(
            f"unknown plan format {name!r}; registered formats: "
            + ", ".join(self.formats()),
            attempted_formats=self.formats(),
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    @staticmethod
    def _prepare(payload: Any) -> Any:
        """Normalize a payload for detection: decode JSON text exactly once.

        XML stays text (sniffed by the leading ``<``); non-JSON text stays
        text too, so detectors can reject it and the final error names the
        decode failure.
        """
        if isinstance(payload, str):
            stripped = payload.lstrip()
            if stripped.startswith("<"):
                return stripped
            if stripped[:1] in ("{", "["):
                try:
                    return json.loads(stripped)
                except json.JSONDecodeError:
                    return stripped
        return payload

    def sniff(self, payload: Any) -> Optional[str]:
        """The name of the first format whose detector accepts ``payload``."""
        prepared = self._prepare(payload)
        for plan_format in self._formats:
            try:
                if plan_format.detector(prepared):
                    return plan_format.name
            except Exception:
                continue
        return None

    def parse(self, payload: Any, plan_format: Optional[str] = None) -> OperatorTree:
        """Ingest ``payload``, auto-detecting the format unless one is named."""
        return self.ingest(payload, plan_format)[0]

    def ingest(
        self, payload: Any, plan_format: Optional[str] = None
    ) -> tuple[OperatorTree, str]:
        """Ingest ``payload`` and report which format actually parsed it.

        Auto-detection tries every format whose detector matches; a matching
        detector with a failing parser does not abort the search.  When
        nothing succeeds — or a payload is malformed for an explicitly named
        format — the raised :class:`PlanDetectionError` records each
        attempted format and why it was rejected.  Text payloads are
        memoized (see :class:`PlanRegistry`).
        """
        if self.memoizable(payload, plan_format):
            return self._memo(payload, plan_format)
        return self._ingest(payload, plan_format)

    @staticmethod
    def memoizable(payload: Any, plan_format: Any = None) -> bool:
        """Whether :meth:`ingest` keeps ``payload``'s tree for repeats: text
        of at most :data:`INGEST_MEMO_MAX_CHARS` characters, with no format
        or a format named by a string."""
        return (
            isinstance(payload, str)
            and len(payload) <= INGEST_MEMO_MAX_CHARS
            and (plan_format is None or isinstance(plan_format, str))
        )

    def _ingest(self, payload: Any, plan_format: Optional[str]) -> tuple[OperatorTree, str]:
        try:
            prepared = self._prepare(payload)
        except RecursionError as error:
            raise PlanDetectionError(
                f"plan payload nests too deeply to decode: {error}",
                attempted_formats=self.formats(),
            ) from error
        if plan_format is not None:
            resolved = self.resolve(plan_format)
            try:
                return resolved.parser(prepared), resolved.name
            except PARSER_REJECTIONS as error:
                raise PlanDetectionError(
                    f"payload is not valid {resolved.name}: {error}",
                    attempted_formats=[resolved.name],
                ) from error
        attempted: list[str] = []
        reasons: list[str] = []
        for candidate in self._formats:
            try:
                detected = candidate.detector(prepared)
            except Exception:
                detected = False
            if not detected:
                continue
            attempted.append(candidate.name)
            try:
                return candidate.parser(prepared), candidate.name
            except PARSER_REJECTIONS as error:
                reasons.append(f"{candidate.name}: {error}")
        if not attempted:
            attempted = self.formats()
            detail = f"payload of type {type(payload).__name__} matched no registered detector"
        else:
            detail = "; ".join(reasons) if reasons else "no parser accepted the payload"
        raise PlanDetectionError(
            "could not ingest the plan payload — attempted formats: "
            + ", ".join(attempted)
            + f" ({detail})",
            attempted_formats=attempted,
        )


# ---------------------------------------------------------------------------
# built-in formats
# ---------------------------------------------------------------------------


def _is_operator_tree(payload: Any) -> bool:
    return isinstance(payload, OperatorTree)


def _parse_operator_tree(payload: Any) -> OperatorTree:
    if not isinstance(payload, OperatorTree):
        raise PlanFormatError(
            f"expected an OperatorTree instance, got {type(payload).__name__}"
        )
    return payload


def _is_mini_engine_plan(payload: Any) -> bool:
    # duck-typed so repro.plans does not import the engine at detection time
    return hasattr(payload, "root") and hasattr(payload, "statement_text")


def _parse_mini_engine(payload: Any) -> OperatorTree:
    from repro.sqlengine.explain import to_postgres_dict

    return parse_postgres_json(to_postgres_dict(payload))


def _is_sqlserver_xml(payload: Any) -> bool:
    return isinstance(payload, str) and payload.lstrip().startswith("<")


def _is_mysql_json(payload: Any) -> bool:
    return isinstance(payload, dict) and "query_block" in payload


def _is_tree_dict(payload: Any) -> bool:
    return isinstance(payload, dict) and isinstance(payload.get("root"), dict)


def _is_postgres_json(payload: Any) -> bool:
    if isinstance(payload, list):
        return bool(payload) and isinstance(payload[0], dict)
    return isinstance(payload, dict) and ("Plan" in payload or "Node Type" in payload)


def default_registry() -> PlanRegistry:
    """A fresh registry with every built-in format, in detection order.

    Order matters: Python-object formats first (exact ``isinstance``/duck
    checks), then XML, then the JSON dialects from most to least specific —
    PostgreSQL last because its detector is the loosest.
    """
    return PlanRegistry(
        [
            PlanFormat(
                name=FORMAT_OPERATOR_TREE,
                aliases=("tree",),
                detector=_is_operator_tree,
                parser=_parse_operator_tree,
                description="an already-parsed repro.plans OperatorTree (pass-through)",
            ),
            PlanFormat(
                name=FORMAT_MINI_ENGINE,
                aliases=("engine", "physical-plan"),
                detector=_is_mini_engine_plan,
                parser=_parse_mini_engine,
                description="a repro.sqlengine PhysicalPlan (narrated as PostgreSQL)",
            ),
            PlanFormat(
                name=FORMAT_SQLSERVER_XML,
                aliases=("xml", "sqlserver", "mssql"),
                detector=_is_sqlserver_xml,
                parser=parse_sqlserver_xml,
                description="SQL Server showplan XML",
            ),
            PlanFormat(
                name=FORMAT_MYSQL_JSON,
                aliases=("mysql",),
                detector=_is_mysql_json,
                parser=parse_mysql_json,
                description="MySQL EXPLAIN FORMAT=JSON",
            ),
            PlanFormat(
                name=FORMAT_TREE_JSON,
                aliases=("tree-json",),
                detector=_is_tree_dict,
                parser=OperatorTree.from_dict,
                description="the OperatorTree.to_dict() wire format",
            ),
            PlanFormat(
                name=FORMAT_POSTGRES_JSON,
                aliases=("json", "pg", "postgres", "postgresql"),
                detector=_is_postgres_json,
                parser=parse_postgres_json,
                description="PostgreSQL EXPLAIN (FORMAT JSON)",
            ),
        ]
    )
