"""The end-to-end LANTERN facade.

``Lantern`` glues the pieces together: it accepts a QEP in any supported
serialization (our mini engine, PostgreSQL EXPLAIN JSON, SQL Server showplan
XML, or an already-parsed operator tree), narrates it with RULE-LANTERN, and
— when a neural generator is attached — switches individual steps to
NEURAL-LANTERN output once an operator has been seen often enough to risk
boring the learner (the frequency-threshold policy of US 5).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Union

from repro.core.acts import Act, align_acts_with_narration, decompose_lot_into_acts
from repro.core.narration import Narration, NarrationStep
from repro.core.presentation import DOCUMENT_STYLE, render
from repro.core.rule_lantern import RuleLantern
from repro.errors import NarrationError
from repro.plans.mysql import parse_mysql_json
from repro.plans.operator_tree import OperatorTree
from repro.plans.postgres import parse_postgres_json
from repro.plans.registry import PlanRegistry, default_registry
from repro.plans.sqlserver import parse_sqlserver_xml
from repro.pool.catalogs import POSTGRESQL_SOURCE, SQLSERVER_SOURCE, build_default_store
from repro.pool.poem import PoemStore

#: Mapping from plan provenance to POEM source identifier.  MySQL plans are
#: narrated with the PostgreSQL catalog: the MySQL adapter maps every MySQL
#: operator onto its direct PostgreSQL analogue (see repro.plans.mysql), so
#: no separate expert-authored catalog is needed.
SOURCE_TO_POEM = {
    "postgresql": POSTGRESQL_SOURCE,
    "pg": POSTGRESQL_SOURCE,
    "sqlserver": SQLSERVER_SOURCE,
    "mssql": SQLSERVER_SOURCE,
    "mysql": POSTGRESQL_SOURCE,
}

MODE_RULE = "rule"
MODE_NEURAL = "neural"
MODE_AUTO = "auto"


def _tree_signature(node) -> tuple:
    """A hashable structural identity for an operator (sub)tree.

    Two trees with the same signature narrate identically under a
    deterministic (``seed=None``) rule narrator, which is what makes the
    rule-phase memo sound.  Attribute values are stringified so unhashable
    values (lists of sort keys, expression objects) key reliably.  The
    signature is the flat pre-order of ``(name, sorted attributes, child
    count)``, which determines the tree; it is built without recursion, so
    any depth keys.
    """
    signature = []
    stack = [node]
    while stack:
        current = stack.pop()
        children = current.children
        signature.append((
            current.name,
            tuple(sorted((key, str(value)) for key, value in current.attributes.items())),
            len(children),
        ))
        stack.extend(reversed(children))
    return tuple(signature)


@dataclass
class _MemoEntry:
    """One memoized rule narration (steps + LOT, acts filled lazily)."""

    steps: tuple[NarrationStep, ...]
    lot: object
    acts: Optional[list[Act]] = None


class _RuleMemo:
    """A small LRU memo of deterministic rule narrations, keyed on tree
    structure.  Only consulted when the narrator picks descriptions
    deterministically (``seed=None``) — with a seeded RNG, wording cycles
    call to call and memoization would freeze it.  Locked like
    :class:`repro.nlg.cache.DecodeCache`, because the serving layer reads
    :meth:`stats` from HTTP handler threads while the batch worker narrates.
    """

    def __init__(self, max_size: int) -> None:
        self.max_size = max(int(max_size), 0)
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, _MemoEntry]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: tuple) -> Optional[_MemoEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: _MemoEntry) -> None:
        with self._lock:
            if self.max_size == 0:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "max_size": self.max_size,
                "hit_rate": self.hits / total if total else 0.0,
            }


#: the streaming callback of :meth:`Lantern.describe_plans`: takes the results
#: retired since its last call, returns the ``(tree, mode)`` pairs to admit
PlanFeed = Callable[
    [list[Union[Narration, Exception]]], Sequence[tuple[OperatorTree, str]]
]

#: the streaming callback of ``StepTranslator.translate_steps``: takes the
#: texts finished since its last call, returns ``(acts, rule_steps)`` to admit
#: (``None`` when nothing arrived)
StepFeed = Callable[[list[str]], Optional[tuple[Sequence[Act], Sequence[NarrationStep]]]]

#: a rule-narrated plan: its narration, its neural-bound ``(position, act,
#: step)`` triples, and whether the neural assembly path applies
_Prepared = tuple[Narration, list[tuple[int, Act, NarrationStep]], bool]


class StepTranslator(Protocol):
    """What a neural generator must provide to plug into the facade.

    ``translate_steps(acts, rule_steps, feed=None) -> list[str]`` translates
    the neural-bound steps of a whole batch of plans in one call; with a
    ``feed`` it streams, as :meth:`repro.nlg.neural_lantern.NeuralLantern.translate_steps`
    describes.  Generators
    may additionally offer ``configure_cache(size=..., enabled=...)`` to
    receive the ``decode_cache_size`` / ``decode_cache_enabled`` knobs of
    :class:`LanternConfig`.
    """

    def translate_steps(
        self,
        acts: Sequence[Act],
        rule_steps: Sequence[NarrationStep],
        feed: Optional[StepFeed] = None,
    ) -> list[str]:  # pragma: no cover
        ...


@dataclass
class LanternConfig:
    """Behavioural knobs of the facade.

    The two ``decode_cache_*`` knobs are forwarded to the attached neural
    generator (when it exposes ``configure_cache``): ``decode_cache_size``
    bounds the LRU act-signature decode cache of
    :class:`repro.nlg.cache.DecodeCache`, and ``decode_cache_enabled=False``
    turns caching off entirely (every act is then beam-decoded afresh, e.g.
    for cold-path benchmarking).  Both default to ``None`` — "leave the
    generator's own cache configuration alone" — so wrapping an explicitly
    configured :class:`repro.nlg.neural_lantern.NeuralLantern` never silently
    overrides its settings.
    """

    #: operator appearance count after which the neural generator takes over
    frequency_threshold: int = 5
    #: default presentation mode
    presentation: str = DOCUMENT_STYLE
    #: seed used when a POOL description must be picked among several
    seed: Optional[int] = 7
    #: LRU capacity of the neural act-signature decode cache (None = keep
    #: the generator's current size)
    decode_cache_size: Optional[int] = None
    #: whether decoded beam candidates are cached (None = keep the
    #: generator's current setting)
    decode_cache_enabled: Optional[bool] = None
    #: whether identical plan structures reuse their rule narration.
    #: ``None`` (auto) enables the memo exactly when ``seed is None`` — i.e.
    #: when rule wording is deterministic and memoization is transparent.
    #: ``True`` forces it on (freezing the description-cycling a seeded rng
    #: would otherwise produce); ``False`` disables it.
    rule_memo_enabled: Optional[bool] = None
    #: LRU capacity of the rule-narration memo
    rule_memo_size: int = 512


class Lantern:
    """Generate natural-language descriptions of query execution plans."""

    def __init__(
        self,
        store: Optional[PoemStore] = None,
        neural: Optional[StepTranslator] = None,
        config: Optional[LanternConfig] = None,
        registry: Optional[PlanRegistry] = None,
    ) -> None:
        self.store = store if store is not None else build_default_store()
        self.neural = neural
        self.config = config if config is not None else LanternConfig()
        #: the plan-ingestion registry parse_plan dispatches through; owned
        #: per instance so callers can register custom formats without
        #: affecting other facades
        self.registry = registry if registry is not None else default_registry()
        memo_enabled = self.config.rule_memo_enabled
        if memo_enabled is None:
            memo_enabled = self.config.seed is None
        self._rule_memo: Optional[_RuleMemo] = (
            _RuleMemo(self.config.rule_memo_size) if memo_enabled else None
        )
        self._operator_counts: Counter[str] = Counter()
        self._narrators: dict[str, RuleLantern] = {}
        #: held for each plan's rule phase: the serving layer narrates rule
        #: requests on HTTP handler threads while its batch worker admits
        #: neural-bound ones, and both venues share the rule memo,
        #: habituation counts, narrator cache and a seeded narrator's rng
        self._lock = threading.Lock()
        if (
            neural is not None
            and hasattr(neural, "configure_cache")
            and (
                self.config.decode_cache_size is not None
                or self.config.decode_cache_enabled is not None
            )
        ):
            neural.configure_cache(
                size=self.config.decode_cache_size,
                enabled=self.config.decode_cache_enabled,
            )

    # ------------------------------------------------------------------
    # plan ingestion
    # ------------------------------------------------------------------

    def parse_plan(self, payload, plan_format: Optional[str] = None) -> OperatorTree:
        """Ingest a plan payload through the auto-detecting format registry.

        ``payload`` may be serialized text (PostgreSQL EXPLAIN JSON, SQL
        Server showplan XML, MySQL EXPLAIN JSON, the ``OperatorTree.to_dict``
        wire format), a decoded JSON object, a mini-engine
        :class:`~repro.sqlengine.physical.PhysicalPlan`, or an already-parsed
        :class:`OperatorTree` (returned as-is).  With ``plan_format=None``
        the registry sniffs the format; a malformed payload raises a
        structured :class:`~repro.errors.PlanDetectionError` listing every
        attempted format.
        """
        return self.registry.parse(payload, plan_format)

    def plan_for_sql(self, database, sql: str, engine: str = "postgresql") -> OperatorTree:
        """EXPLAIN ``sql`` on a mini-engine database and parse the result.

        ``engine`` selects which serialization dialect is exercised, so the
        same query can be narrated "as PostgreSQL", "as SQL Server", or "as
        MySQL".
        """
        if engine in ("postgresql", "pg"):
            return parse_postgres_json(database.explain(sql, output_format="json"))
        if engine in ("sqlserver", "mssql"):
            return parse_sqlserver_xml(database.explain(sql, output_format="xml"))
        if engine == "mysql":
            return parse_mysql_json(database.explain(sql, output_format="mysql"))
        raise NarrationError(f"unknown engine {engine!r}")

    # ------------------------------------------------------------------
    # narration
    # ------------------------------------------------------------------

    def describe_plan(self, tree: OperatorTree, mode: str = MODE_RULE) -> Narration:
        """Narrate one operator tree: :meth:`describe_plans` on a batch of one."""
        return self.describe_plans([tree], mode)[0]

    def describe_plans(
        self,
        trees: Sequence[OperatorTree],
        mode: Union[str, Sequence[str]] = MODE_RULE,
        collect_errors: bool = False,
        feed: Optional[PlanFeed] = None,
    ) -> list[Union[Narration, Exception]]:
        """Narrate several operator trees with **one fused neural decode**.

        The LANTERN-SERVE micro-batcher drives this with every request in
        flight, and :meth:`describe_plan` with a batch of one.  The
        neural-bound steps of every plan are concatenated (in request order)
        and translated through a single ``translate_steps`` call — one padded
        encoder forward and one fused beam tensor for the whole batch, with
        cross-plan deduplication of repeated act signatures via the decode
        cache's in-call dedup.  Rule narration, habituation bookkeeping, and
        exposure-based wording cycling all happen in the same order as an
        equivalent sequence of one-plan calls, so the produced narrations
        are token-identical to one-at-a-time narration.

        ``mode`` is either one mode for every tree or a per-tree sequence.
        With ``collect_errors=True`` a failing tree contributes its exception
        to the result list instead of aborting the batch (the serving layer
        maps those to per-request error responses).

        With ``feed`` the call streams: more plans can arrive while the
        decode runs.  At every decode step boundary it calls
        ``feed(retired)`` with the results retired since the last call, and
        the feed answers with ``(tree, mode)`` pairs to admit (empty when
        none arrived).  A plan is admitted in arrival order — rule phase and
        habituation recording — and its neural-bound acts join the running
        decode; it retires strictly in arrival order, once all its steps are
        translated.  Narrations and session state therefore equal those of
        sequential :meth:`describe_plan` calls in arrival order.  The call
        returns once nothing is in flight and the feed has nothing more;
        results not handed to the feed are returned.
        """
        modes = [mode] * len(trees) if isinstance(mode, str) else list(mode)
        if len(modes) != len(trees):
            raise NarrationError(
                f"describe_plans got {len(trees)} trees but {len(modes)} modes"
            )
        run = _PlanRun(self, collect_errors)
        acts, steps = run.admit(trees, modes)
        if feed is None:
            return run.finish(self.neural.translate_steps(acts, steps) if acts else [])

        def boundary(texts: list[str]) -> Optional[tuple[list[Act], list[NarrationStep]]]:
            retired = run.retire(texts)
            while True:
                arrivals = feed(retired)
                if not arrivals:
                    return None
                admitted = run.admit(
                    [tree for tree, _ in arrivals], [tree_mode for _, tree_mode in arrivals]
                )
                if admitted[0]:
                    return admitted
                retired = run.retire([])

        pending = (acts, steps) if acts else boundary([])
        return run.finish(self.neural.translate_steps(*pending, feed=boundary) if pending else [])

    def _prepare_narration(self, tree: OperatorTree, mode: str) -> _Prepared:
        """Rule-narrate ``tree`` and decide which steps go neural.

        Returns the rule narration, the neural-bound ``(position, act,
        step)`` triples, and whether the neural assembly path applies at all
        (False for MODE_RULE or a facade without a generator).  Habituation
        is decided *before* this plan's operators are recorded, and
        recording happens here so that in a batch each plan's routing sees
        the exposure counts of every plan narrated before it — exactly as in
        sequential calls.  It runs under the facade's lock, so concurrent
        callers see the state of some sequential order of their plans.
        """
        with self._lock:
            if mode not in (MODE_RULE, MODE_NEURAL, MODE_AUTO):
                raise NarrationError(f"unknown narration mode {mode!r}")
            narrator = self._narrator_for(tree.source)
            # the rule-phase memo: under a deterministic narrator, plans with the
            # same structure produce the same steps/LOT/acts, so repeated plan
            # shapes (the serving steady state) skip rule narration entirely
            memo_key = None
            entry = None
            if self._rule_memo is not None:
                memo_key = (tree.source, _tree_signature(tree.root))
                entry = self._rule_memo.get(memo_key)
            if entry is None:
                narration = narrator.narrate(tree)
                if self._rule_memo is not None:
                    entry = _MemoEntry(steps=tuple(narration.steps), lot=narration.lot)
                    self._rule_memo.put(memo_key, entry)
            else:
                narration = Narration(
                    steps=list(entry.steps),
                    source=tree.source,
                    query_text=tree.query_text,
                    lot=entry.lot,
                    generator="rule",
                )
            neural_path = mode != MODE_RULE and self.neural is not None
            neural_bound: list[tuple[int, Act, NarrationStep]] = []
            if neural_path:
                if entry is not None:
                    if entry.acts is None:
                        entry.acts = align_acts_with_narration(
                            decompose_lot_into_acts(narration.lot), narration
                        )
                    acts = entry.acts
                else:
                    acts = align_acts_with_narration(
                        decompose_lot_into_acts(narration.lot), narration
                    )
                for position, (act, step) in enumerate(zip(acts, narration.steps)):
                    use_neural = mode == MODE_NEURAL or (
                        mode == MODE_AUTO and self._is_habituated(step)
                    )
                    if use_neural:
                        neural_bound.append((position, act, step))
            for step in narration.steps:
                for name in step.operator_names:
                    self._operator_counts[name.lower()] += 1
            return narration, neural_bound, neural_path

    def _assemble_neural(
        self,
        narration: Narration,
        neural_bound: list[tuple[int, Act, NarrationStep]],
        texts: Sequence[str],
        mode: str,
    ) -> Narration:
        """Splice translated step texts back into the rule narration."""
        neural_steps: list[NarrationStep] = list(narration.steps)
        for (position, _, step), text in zip(neural_bound, texts):
            neural_steps[position] = NarrationStep(
                index=step.index,
                text=text,
                operator_names=step.operator_names,
                relations=step.relations,
                filter_condition=step.filter_condition,
                join_condition=step.join_condition,
                index_name=step.index_name,
                group_keys=step.group_keys,
                sort_keys=step.sort_keys,
                intermediate=step.intermediate,
                is_final=step.is_final,
                generator="neural",
            )
        return Narration(
            steps=neural_steps,
            source=narration.source,
            query_text=narration.query_text,
            lot=narration.lot,
            generator=mode,
        )

    def describe_sql(
        self,
        database,
        sql: str,
        engine: str = "postgresql",
        mode: str = MODE_RULE,
    ) -> Narration:
        """Plan ``sql`` on ``database`` and narrate the resulting QEP."""
        return self.describe_plan(self.plan_for_sql(database, sql, engine), mode=mode)

    def render(self, narration: Narration, tree: OperatorTree | None = None, mode: str | None = None) -> str:
        """Render a narration in the configured (or given) presentation mode."""
        return render(narration, tree=tree, mode=mode or self.config.presentation)

    # ------------------------------------------------------------------
    # persistence (LANTERN-PERSIST)
    # ------------------------------------------------------------------

    def save(self, path, include_cache: bool = True, weights_layout: str = "npz"):
        """Checkpoint this facade (config, habituation counters, and — when a
        :class:`~repro.nlg.neural_lantern.NeuralLantern` is attached — model
        weights, vocabularies, wording-cycle exposures, and optionally the
        warm decode cache) to a LANTERN-PERSIST directory.

        ``weights_layout="mmap"`` writes the zero-copy layout that boots by
        memory-mapping the weight file (microsecond warm boot, pages shared
        across forked workers); the default ``"npz"`` archive is fully
        digest-verified on every load.  Returns the checkpoint directory
        path.  See :mod:`repro.nlg.persistence` for the format.
        """
        # imported lazily: repro.core must stay importable without repro.nlg
        from repro.nlg.persistence import save_lantern

        return save_lantern(
            self, path, include_cache=include_cache, weights_layout=weights_layout
        )

    @classmethod
    def load(cls, path, verify: bool = False) -> "Lantern":
        """Rebuild a facade from a checkpoint written by :meth:`save`.

        The loaded facade produces token-identical narrations to the one
        that was saved, for the same plan sequence.  ``verify=True`` forces
        the full weight digest check even for mmap-layout checkpoints
        (whose default fast boot validates structure only).  Raises a
        structured :class:`~repro.errors.CheckpointError` subclass for
        missing, corrupt, or incompatible checkpoints.
        """
        from repro.nlg.persistence import load_lantern

        return load_lantern(path, verify=verify)

    # ------------------------------------------------------------------
    # habituation bookkeeping (the auto-switch policy)
    # ------------------------------------------------------------------

    def reset_session(self) -> None:
        """Forget per-learner operator exposure counts."""
        with self._lock:
            self._operator_counts.clear()

    def rule_memo_stats(self) -> Optional[dict]:
        """Hit/miss counters of the rule-phase memo (None when disabled)."""
        return self._rule_memo.stats() if self._rule_memo is not None else None

    def operator_exposure(self, operator_name: str) -> int:
        return self._operator_counts[operator_name.lower()]

    def _is_habituated(self, step: NarrationStep) -> bool:
        threshold = self.config.frequency_threshold
        return any(
            self._operator_counts[name.lower()] >= threshold for name in step.operator_names
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _narrator_for(self, source: str) -> RuleLantern:
        poem_source = SOURCE_TO_POEM.get(source.lower())
        if poem_source is None:
            raise NarrationError(f"no POEM catalog registered for source {source!r}")
        if poem_source not in self._narrators:
            self._narrators[poem_source] = RuleLantern(
                self.store, poem_source=poem_source, seed=self.config.seed
            )
        return self._narrators[poem_source]



class _PlanRun:
    """The plans of one :meth:`Lantern.describe_plans` call that are admitted
    but not yet retired, in arrival order, each with its translated steps."""

    def __init__(self, lantern: Lantern, collect_errors: bool) -> None:
        self.lantern = lantern
        self.collect_errors = collect_errors
        #: (prepared plan or its error, mode, texts translated so far)
        self.plans: deque[tuple[Union[_Prepared, Exception], str, list[str]]] = deque()

    def admit(
        self, trees: Sequence[OperatorTree], modes: Sequence[str]
    ) -> tuple[list[Act], list[NarrationStep]]:
        """Rule-narrate and route each plan; returns their neural-bound acts
        and rule steps, in order."""
        acts: list[Act] = []
        steps: list[NarrationStep] = []
        for tree, mode in zip(trees, modes):
            try:
                prepared = self.lantern._prepare_narration(tree, mode)
            except Exception as error:  # noqa: BLE001 - reported per request
                if not self.collect_errors:
                    raise
                self.plans.append((error, mode, []))
                continue
            self.plans.append((prepared, mode, []))
            for _, act, step in prepared[1]:
                acts.append(act)
                steps.append(step)
        return acts, steps

    def retire(self, texts: Sequence[str]) -> list[Union[Narration, Exception]]:
        """Hand ``texts`` (the next translated steps, in order) to their
        plans, then retire every complete plan at the head of the run."""
        retired: list[Union[Narration, Exception]] = []
        cursor = 0
        while self.plans:
            prepared, mode, done = self.plans[0]
            if not isinstance(prepared, Exception):
                narration, neural_bound, neural_path = prepared
                taken = texts[cursor : cursor + len(neural_bound) - len(done)]
                done.extend(taken)
                cursor += len(taken)
                if len(done) < len(neural_bound):
                    break
                if neural_path:
                    prepared = self.lantern._assemble_neural(narration, neural_bound, done, mode)
                else:
                    prepared = narration
            self.plans.popleft()
            retired.append(prepared)
        if cursor != len(texts):
            raise NarrationError(
                f"the neural generator's translate_steps returned {len(texts) - cursor} "
                "texts more than there are steps"
            )
        return retired

    def finish(self, texts: Sequence[str]) -> list[Union[Narration, Exception]]:
        """The last :meth:`retire`: every plan must now be complete."""
        retired = self.retire(texts)
        if self.plans:
            raise NarrationError(
                "the neural generator's translate_steps returned fewer texts "
                "than there are steps"
            )
        return retired
