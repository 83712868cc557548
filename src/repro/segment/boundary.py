"""Boundary criteria ``B`` for PgSeg queries (Sec. III.A.3).

Two families:

- **Exclusion constraints** — boolean predicates over vertices (``Bv``) and
  edges (``Be``). During induction an excluded element behaves as if labeled
  ε (no accepted path may cross it); during the adjust step exclusions are
  applied as plain filters on the cached segment.
- **Expansion specifications** ``Bx = {(Vx, k)}`` — include the ancestry
  neighborhood ``k`` activities (2k edge hops over G/U) away from the listed
  entities.

Predicates receive the full vertex/edge *record*, so they can express the
paper's examples directly: ownership (who), time intervals (when), project
steps / file-path patterns (where), and neighborhood size (what).

**The criteria are data.** Every factory below returns a frozen dataclass
that is both the predicate (call it on a record) and its own JSON record
(``to_record``), so :meth:`BoundaryCriteria.to_record` /
:meth:`BoundaryCriteria.from_record` carry a whole ``B`` across a process
boundary and a remote worker evaluates exactly the predicate the caller
built. Any other callable still works in-process but has no record:
``to_record`` refuses it by name. ``name_matches`` compiles its pattern
where it is decoded, so a served regex is client-supplied code whose
matching cost is not bounded.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable

from repro.errors import SegmentationError, SerializationError
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, VertexType
from repro.store.records import EdgeRecord, VertexRecord

VertexPredicate = Callable[[VertexRecord], bool]
EdgePredicate = Callable[[EdgeRecord], bool]


def _vertex_id(value: Any) -> int:
    """A vertex id as a plain int; anything else is a SegmentationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SegmentationError(f"vertex id {value!r} is not an int")
    return int(value)


@dataclass(frozen=True, slots=True)
class Expansion:
    """One expansion spec ``bx(Vx, k)``: grow ``k`` activities from ``Vx``."""

    entities: tuple[int, ...]
    k: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities",
                           tuple(_vertex_id(v) for v in self.entities))
        if isinstance(self.k, bool) or not isinstance(self.k, int) \
                or self.k < 0:
            raise SegmentationError(
                f"expansion size k={self.k!r} must be an int >= 0")


# ---------------------------------------------------------------------------
# Predicates — the boundary vocabulary of the paper's examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExcludeEdgeTypes:
    """Keep edges whose type is not listed (Q1/Q2 exclude A and D)."""

    kind: ClassVar[str] = "exclude_edge_types"
    target: ClassVar[str] = "edge"
    edge_types: frozenset[EdgeType]

    def __call__(self, record: EdgeRecord) -> bool:
        return record.edge_type not in self.edge_types

    def fields(self) -> dict[str, Any]:
        return {"edge_types": sorted(t.label for t in self.edge_types)}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "ExcludeEdgeTypes":
        return cls(frozenset(EdgeType(label)
                             for label in _list(record["edge_types"])))


@dataclass(frozen=True, slots=True)
class ExcludeVertexTypes:
    """Keep vertices whose type is not listed."""

    kind: ClassVar[str] = "exclude_vertex_types"
    target: ClassVar[str] = "vertex"
    vertex_types: frozenset[VertexType]

    def __call__(self, record: VertexRecord) -> bool:
        return record.vertex_type not in self.vertex_types

    def fields(self) -> dict[str, Any]:
        return {"vertex_types": sorted(t.label for t in self.vertex_types)}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "ExcludeVertexTypes":
        return cls(frozenset(VertexType(label)
                             for label in _list(record["vertex_types"])))


@dataclass(frozen=True, slots=True)
class WithinOrderWindow:
    """Keep vertices whose creation ordinal lies in ``[lo, hi]`` ("when")."""

    kind: ClassVar[str] = "within_order_window"
    target: ClassVar[str] = "vertex"
    lo: int | None = None
    hi: int | None = None

    def __call__(self, record: VertexRecord) -> bool:
        if self.lo is not None and record.order < self.lo:
            return False
        if self.hi is not None and record.order > self.hi:
            return False
        return True

    def fields(self) -> dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "WithinOrderWindow":
        return cls(*(None if record[end] is None else _int(record[end])
                     for end in ("lo", "hi")))


@dataclass(frozen=True, slots=True)
class PropertyEquals:
    """Keep vertices whose property ``key`` equals ``value``."""

    kind: ClassVar[str] = "property_equals"
    target: ClassVar[str] = "vertex"
    key: str
    value: Any

    def __call__(self, record: VertexRecord) -> bool:
        return record.properties.get(self.key) == self.value

    def fields(self) -> dict[str, Any]:
        return {"key": self.key, "value": _scalar(self.value)}

    @classmethod
    def decode(cls, record: dict[str, Any], graph):
        return cls(_str(record["key"]), _scalar(record["value"]))


@dataclass(frozen=True, slots=True)
class PropertyNotEquals(PropertyEquals):
    """Keep vertices whose property ``key`` differs from ``value``."""

    kind: ClassVar[str] = "property_not_equals"

    def __call__(self, record: VertexRecord) -> bool:
        return record.properties.get(self.key) != self.value


@dataclass(frozen=True, slots=True)
class NameMatches:
    """Keep vertices whose ``name`` matches the regex ("where": file paths).

    Vertices without a ``name`` pass.
    """

    kind: ClassVar[str] = "name_matches"
    target: ClassVar[str] = "vertex"
    pattern: str
    compiled: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "compiled", re.compile(_str(self.pattern)))

    def __call__(self, record: VertexRecord) -> bool:
        name = record.properties.get("name")
        return name is None or bool(self.compiled.search(str(name)))

    def fields(self) -> dict[str, Any]:
        return {"pattern": self.pattern}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "NameMatches":
        return cls(record["pattern"])


@dataclass(frozen=True, slots=True)
class OwnedBy:
    """Keep entities/activities whose responsible agent is ``agent_id``
    ("who"). Agent vertices themselves always pass; vertices with no
    ownership edge pass when ``keep_unowned``.

    ``graph`` is where ownership is looked up. It is not part of the
    record: decoding binds the graph the query is decoded against (a
    worker's replica — vertex ids are replication-exact).
    """

    kind: ClassVar[str] = "owned_by"
    target: ClassVar[str] = "vertex"
    agent_id: int
    keep_unowned: bool = True
    graph: ProvenanceGraph | None = field(default=None, repr=False,
                                          compare=False)

    def __call__(self, record: VertexRecord) -> bool:
        if record.vertex_type is VertexType.AGENT:
            return True
        owners = self.graph.agents_of(record.vertex_id)
        if not owners:
            return self.keep_unowned
        return self.agent_id in owners

    def fields(self) -> dict[str, Any]:
        return {"agent_id": self.agent_id, "keep_unowned": self.keep_unowned}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "OwnedBy":
        return cls(_int(record["agent_id"]), _bool(record["keep_unowned"]),
                   _bound(cls, graph))


@dataclass(frozen=True, slots=True)
class NotOwnedBy:
    """Keep vertices not owned by ``agent_id`` (complement of owned_by)."""

    kind: ClassVar[str] = "not_owned_by"
    target: ClassVar[str] = "vertex"
    agent_id: int
    graph: ProvenanceGraph | None = field(default=None, repr=False,
                                          compare=False)

    def __call__(self, record: VertexRecord) -> bool:
        if record.vertex_type is VertexType.AGENT:
            return True
        return self.agent_id not in self.graph.agents_of(record.vertex_id)

    def fields(self) -> dict[str, Any]:
        return {"agent_id": self.agent_id}

    @classmethod
    def decode(cls, record: dict[str, Any], graph) -> "NotOwnedBy":
        return cls(_int(record["agent_id"]), _bound(cls, graph))


#: Record ``predicate`` tag -> class: the whole declarative vocabulary.
PREDICATES = {cls.kind: cls for cls in (
    ExcludeEdgeTypes, ExcludeVertexTypes, WithinOrderWindow,
    PropertyEquals, PropertyNotEquals, NameMatches, OwnedBy, NotOwnedBy,
)}


# -- record field checks (all raise TypeError / ValueError) ------------------


def _list(value: Any) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an int, got {value!r}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a bool, got {value!r}")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _scalar(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)) \
            or (isinstance(value, float) and math.isfinite(value)):
        return value
    raise TypeError(f"property value {value!r} is not a JSON scalar")


def _bound(cls: type, graph: ProvenanceGraph | None) -> ProvenanceGraph:
    if graph is None:
        raise ValueError(f"{cls.kind} needs a graph to bind")
    return graph


def _predicate_record(predicate: Callable, target: str) -> dict[str, Any]:
    """One predicate's record, or SerializationError naming it."""
    if PREDICATES.get(getattr(predicate, "kind", None)) is not type(predicate):
        name = getattr(predicate, "__qualname__", None) \
            or type(predicate).__qualname__
        raise SerializationError(
            f"boundary predicate {name} is not declarative; build it with "
            f"a repro.segment.boundary factory to send it")
    if predicate.target != target:
        raise SerializationError(
            f"{predicate.kind} is a {predicate.target} predicate, "
            f"not a {target} predicate")
    try:
        return {"predicate": predicate.kind, **predicate.fields()}
    except TypeError as exc:
        raise SerializationError(f"{predicate.kind}: {exc}") from exc


def _predicate_from_record(record: Any, target: str,
                           graph: ProvenanceGraph | None) -> Callable:
    cls = PREDICATES.get(record["predicate"]) if isinstance(record, dict) \
        else None
    if cls is None or cls.target != target:
        raise ValueError(f"not a {target} predicate record: {record!r}")
    return cls.decode(record, graph)


@dataclass(slots=True)
class BoundaryCriteria:
    """The boundary component of a PgSeg query.

    Attributes:
        vertex_filters: conjunction of vertex exclusion predicates (``Bv``).
        edge_filters: conjunction of edge exclusion predicates (``Be``).
        expansions: expansion specifications (``Bx``).
    """

    vertex_filters: list[VertexPredicate] = field(default_factory=list)
    edge_filters: list[EdgePredicate] = field(default_factory=list)
    expansions: list[Expansion] = field(default_factory=list)

    # -- composition ---------------------------------------------------

    def exclude_vertices(self, predicate_ok: VertexPredicate) -> "BoundaryCriteria":
        """Add a vertex predicate (True = keep); returns self for chaining."""
        self.vertex_filters.append(predicate_ok)
        return self

    def exclude_edges(self, predicate_ok: EdgePredicate) -> "BoundaryCriteria":
        """Add an edge predicate (True = keep); returns self for chaining."""
        self.edge_filters.append(predicate_ok)
        return self

    def expand(self, entities: Iterable[int], k: int = 1) -> "BoundaryCriteria":
        """Add an expansion spec; returns self for chaining."""
        self.expansions.append(Expansion(tuple(entities), k))
        return self

    # -- evaluation ------------------------------------------------------

    def vertex_ok(self, record: VertexRecord) -> bool:
        """True when the vertex passes every exclusion constraint."""
        return all(check(record) for check in self.vertex_filters)

    def edge_ok(self, record: EdgeRecord) -> bool:
        """True when the edge passes every exclusion constraint."""
        return all(check(record) for check in self.edge_filters)

    @property
    def has_exclusions(self) -> bool:
        """True when any exclusion predicate is present."""
        return bool(self.vertex_filters or self.edge_filters)

    def copy(self) -> "BoundaryCriteria":
        """Shallow copy (predicates shared, lists independent)."""
        return BoundaryCriteria(
            list(self.vertex_filters),
            list(self.edge_filters),
            list(self.expansions),
        )

    # -- records -----------------------------------------------------------

    def to_record(self) -> dict[str, Any]:
        """The criteria as a JSON-able record.

        Raises:
            SerializationError: a predicate is not one of the factory
                values above (a lambda, say); the message names it.
        """
        return {
            "vertex_filters": [_predicate_record(p, "vertex")
                               for p in self.vertex_filters],
            "edge_filters": [_predicate_record(p, "edge")
                             for p in self.edge_filters],
            "expansions": [{"entities": list(x.entities), "k": x.k}
                           for x in self.expansions],
        }

    @classmethod
    def from_record(cls, record: Any,
                    graph: ProvenanceGraph | None) -> "BoundaryCriteria":
        """Inverse of :meth:`to_record`; ownership predicates bind ``graph``.

        Raises:
            SerializationError: on any malformed record (and on an
                ownership predicate when ``graph`` is None).
        """
        try:
            return cls(
                [_predicate_from_record(r, "vertex", graph)
                 for r in _list(record["vertex_filters"])],
                [_predicate_from_record(r, "edge", graph)
                 for r in _list(record["edge_filters"])],
                [Expansion(tuple(_int(v) for v in _list(x["entities"])),
                           _int(x["k"]))
                 for x in _list(record["expansions"])],
            )
        except (KeyError, TypeError, ValueError, re.error,
                SegmentationError) as exc:
            raise SerializationError(
                f"malformed boundary criteria: {exc}") from exc


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def exclude_edge_types(*edge_types: EdgeType) -> ExcludeEdgeTypes:
    """Keep edges whose type is not listed (Q1/Q2 exclude A and D)."""
    return ExcludeEdgeTypes(frozenset(edge_types))


def exclude_vertex_types(*vertex_types: VertexType) -> ExcludeVertexTypes:
    """Keep vertices whose type is not listed."""
    return ExcludeVertexTypes(frozenset(vertex_types))


def within_order_window(lo: int | None = None,
                        hi: int | None = None) -> WithinOrderWindow:
    """Keep vertices whose creation ordinal lies in ``[lo, hi]`` ("when")."""
    return WithinOrderWindow(lo, hi)


def property_equals(key: str, value: Any) -> PropertyEquals:
    """Keep vertices whose property ``key`` equals ``value``."""
    return PropertyEquals(key, value)


def property_not_equals(key: str, value: Any) -> PropertyNotEquals:
    """Keep vertices whose property ``key`` differs from ``value``."""
    return PropertyNotEquals(key, value)


def name_matches(pattern: str) -> NameMatches:
    """Keep vertices whose ``name`` matches the regex ("where": file paths)."""
    return NameMatches(pattern)


def owned_by(graph: ProvenanceGraph, agent_id: int,
             keep_unowned: bool = True) -> OwnedBy:
    """Keep entities/activities whose responsible agent is ``agent_id``
    ("who"). Agent vertices themselves always pass; vertices with no
    ownership edge pass when ``keep_unowned``.
    """
    return OwnedBy(agent_id, keep_unowned, graph)


def not_owned_by(graph: ProvenanceGraph, agent_id: int) -> NotOwnedBy:
    """Keep vertices not owned by ``agent_id`` (complement of owned_by)."""
    return NotOwnedBy(agent_id, graph)
