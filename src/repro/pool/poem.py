"""POEM — the Physical Operator ObjEct Model (paper §4.2).

Every physical operator of a relational engine is an object with the
attributes ``source``, ``name``, ``alias``, ``defn``, ``desc`` (possibly
several), ``type`` (unary/binary), ``cond`` (whether a condition is appended
to its description), and ``target`` (the critical operator this auxiliary
operator feeds, which induces the auxiliary→critical edge).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import PoolSemanticError


@functools.lru_cache(maxsize=4096)
def normalize_operator_name(name: str) -> str:
    """Normalize an engine operator name to its POEM object name.

    ``"Hash Join"`` → ``"hashjoin"``; POEM names are lower-case with spaces
    and hyphens removed, which lets plan-node names from different engines be
    looked up uniformly.
    """
    return "".join(character for character in name.lower() if character.isalnum())


@dataclass
class PoemObject:
    """One physical-operator object in the POEM store."""

    oid: int
    source: str
    name: str
    operator_type: str = "unary"  # "unary" | "binary"
    alias: Optional[str] = None
    defn: Optional[str] = None
    descriptions: list[str] = field(default_factory=list)
    cond: bool = False
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.operator_type not in ("unary", "binary"):
            raise PoolSemanticError(
                f"operator {self.name!r}: type must be 'unary' or 'binary', "
                f"got {self.operator_type!r}"
            )

    @property
    def display_name(self) -> str:
        """The name shown to learners: the alias when present, else the raw name."""
        return self.alias or self.name

    @property
    def description(self) -> str:
        """The primary (first) natural-language description."""
        return self.descriptions[0] if self.descriptions else ""

    @property
    def is_auxiliary(self) -> bool:
        """Auxiliary operators point at a critical operator through ``target``."""
        return bool(self.target)

    @property
    def targets(self) -> list[str]:
        """The critical operators this auxiliary operator may support.

        ``target`` may name several operators separated by commas (e.g. SORT
        supports both MERGE JOIN and GROUPAGGREGATE in PostgreSQL).
        """
        if not self.target:
            return []
        return [part for part in self.target.split(",") if part]

    def pick_description(self, rng: random.Random | None = None) -> str:
        """One description, chosen at random when several are specified."""
        if not self.descriptions:
            return ""
        if len(self.descriptions) == 1 or rng is None:
            return self.descriptions[0]
        return rng.choice(self.descriptions)

    def attribute(self, name: str):
        """Generic attribute access used by the POOL compiler."""
        mapping = {
            "oid": self.oid,
            "source": self.source,
            "name": self.name,
            "alias": self.alias,
            "type": self.operator_type,
            "defn": self.defn,
            "desc": self.description,
            "cond": self.cond,
            "target": self.target,
        }
        if name not in mapping:
            raise PoolSemanticError(f"unknown POEM attribute {name!r}")
        return mapping[name]


class PoemStore:
    """The set of POEM objects, indexed by (source, normalized name)."""

    def __init__(self) -> None:
        self._objects: dict[tuple[str, str], PoemObject] = {}
        self._oid_counter = itertools.count(1)

    # -- creation --------------------------------------------------------

    def create(
        self,
        source: str,
        name: str,
        operator_type: str = "unary",
        alias: Optional[str] = None,
        defn: Optional[str] = None,
        descriptions: Iterable[str] = (),
        cond: bool = False,
        target: Optional[str] = None,
    ) -> PoemObject:
        source = source.lower()
        normalized = normalize_operator_name(name)
        key = (source, normalized)
        if key in self._objects:
            raise PoolSemanticError(f"operator {name!r} already exists for source {source!r}")
        if target is not None:
            target = _normalize_target(target)
        poem_object = PoemObject(
            oid=next(self._oid_counter),
            source=source,
            name=normalized,
            operator_type=operator_type,
            alias=alias,
            defn=defn,
            descriptions=[text for text in descriptions if text],
            cond=cond,
            target=target,
        )
        self._objects[key] = poem_object
        return poem_object

    # -- retrieval --------------------------------------------------------

    def get(self, source: str, name: str) -> PoemObject:
        key = (source.lower(), normalize_operator_name(name))
        try:
            return self._objects[key]
        except KeyError:
            raise PoolSemanticError(
                f"operator {name!r} is not defined for source {source!r}"
            ) from None

    def has(self, source: str, name: str) -> bool:
        return (source.lower(), normalize_operator_name(name)) in self._objects

    def objects(self, source: Optional[str] = None) -> Iterator[PoemObject]:
        for (object_source, _), poem_object in self._objects.items():
            if source is None or object_source == source.lower():
                yield poem_object

    def sources(self) -> list[str]:
        return sorted({source for source, _ in self._objects})

    def find(
        self, source: str, predicate: Callable[[PoemObject], bool]
    ) -> list[PoemObject]:
        return [poem_object for poem_object in self.objects(source) if predicate(poem_object)]

    def auxiliary_pairs(self, source: str) -> list[tuple[PoemObject, PoemObject]]:
        """(auxiliary, critical) object pairs for one source — the cluster spec."""
        pairs: list[tuple[PoemObject, PoemObject]] = []
        for poem_object in self.objects(source):
            for target in poem_object.targets:
                if self.has(source, target):
                    pairs.append((poem_object, self.get(source, target)))
        return pairs

    # -- mutation ---------------------------------------------------------

    def update(self, source: str, name: str, **assignments) -> PoemObject:
        """Assign new attribute values on an existing object."""
        poem_object = self.get(source, name)
        for attribute, value in assignments.items():
            if attribute == "alias":
                poem_object.alias = value
            elif attribute == "defn":
                poem_object.defn = value
            elif attribute == "desc":
                poem_object.descriptions = [value] if isinstance(value, str) else list(value)
            elif attribute == "add_desc":
                poem_object.descriptions.append(value)
            elif attribute == "type":
                if value not in ("unary", "binary"):
                    raise PoolSemanticError(f"invalid operator type {value!r}")
                poem_object.operator_type = value
            elif attribute == "cond":
                poem_object.cond = _coerce_bool(value)
            elif attribute == "target":
                poem_object.target = _normalize_target(value) if value else None
            else:
                raise PoolSemanticError(f"cannot update unknown attribute {attribute!r}")
        return poem_object

    # -- relational view ---------------------------------------------------

    def to_relations(self) -> tuple[list[dict], list[dict]]:
        """Materialize the two relations described in the paper.

        ``POperators(oid, source, name, alias, type, defn, cond, targetid)``
        and ``PDesc(oid, desc)``.
        """
        poperators: list[dict] = []
        pdesc: list[dict] = []
        for poem_object in self._objects.values():
            target_oid = None
            primary_target = poem_object.targets[0] if poem_object.targets else None
            if primary_target and self.has(poem_object.source, primary_target):
                target_oid = self.get(poem_object.source, primary_target).oid
            poperators.append(
                {
                    "oid": poem_object.oid,
                    "source": poem_object.source,
                    "name": poem_object.name,
                    "alias": poem_object.alias or "",
                    "type": poem_object.operator_type,
                    "defn": poem_object.defn or "",
                    "cond": "true" if poem_object.cond else "false",
                    "targetid": target_oid if target_oid is not None else 0,
                }
            )
            for description in poem_object.descriptions:
                pdesc.append({"oid": poem_object.oid, "desc": description})
        return poperators, pdesc

    def __len__(self) -> int:
        return len(self._objects)


def _coerce_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("true", "t", "1", "yes")


def _normalize_target(target: str) -> str:
    """Normalize a (possibly comma-separated) target specification."""
    parts = [normalize_operator_name(part) for part in target.split(",")]
    return ",".join(part for part in parts if part)


# ---------------------------------------------------------------------------
# template generation (the COMPOSE semantics)
# ---------------------------------------------------------------------------

PLACEHOLDER_RELATION_1 = "$R1$"
PLACEHOLDER_RELATION_2 = "$R2$"
PLACEHOLDER_CONDITION = "$cond$"


def operator_template(
    poem_object: PoemObject, description: Optional[str] = None
) -> str:
    """Build the NL description template of a single operator.

    The description text supplies the verb phrase; the operator ``type``
    appends relation placeholders and ``cond`` appends the condition
    placeholder, exactly as §4.2 specifies:

    * unary, ``desc='hash'`` → ``"hash $R1$"``
    * binary, ``desc='perform hash join on'``, cond →
      ``"perform hash join on $R2$ and $R1$ on condition $cond$"``
    """
    text = (description if description is not None else poem_object.description).strip()
    if poem_object.operator_type == "binary":
        text = f"{text} {PLACEHOLDER_RELATION_2} and {PLACEHOLDER_RELATION_1}"
    else:
        text = f"{text} {PLACEHOLDER_RELATION_1}"
    if poem_object.cond:
        text = f"{text} on condition {PLACEHOLDER_CONDITION}"
    return text


def compose_pair_template(
    auxiliary: PoemObject,
    critical: PoemObject,
    critical_description: Optional[str] = None,
    auxiliary_description: Optional[str] = None,
) -> str:
    """Compose an (auxiliary, critical) pair into one template.

    The composition operator ``∘`` is non-commutative: the auxiliary segment
    comes first (``"hash $R1$ and perform hash join on $R2$ and $R1$ ..."``).
    """
    if not auxiliary.is_auxiliary or critical.name not in auxiliary.targets:
        raise PoolSemanticError(
            f"operators {auxiliary.name!r} and {critical.name!r} do not form an "
            "auxiliary/critical pair"
        )
    auxiliary_part = operator_template(auxiliary, auxiliary_description)
    critical_part = operator_template(critical, critical_description)
    return f"{auxiliary_part} and {critical_part}"
