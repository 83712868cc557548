"""The query-method table: one row per wire method, read by every serving path.

Each read family served — the ``lineage`` / ``impacted`` / ``blame`` /
``cypher`` walks and the paper's two operators, PgSeg ``segment`` and
PgSum ``summarize`` — is one frozen :class:`Method` row of
:data:`METHODS`: its params codec both ways (domain → wire, and wire →
domain bound to the decoding side's graph), its result codec both ways
(the named ``wire.*_to_wire`` / ``*_from_wire`` codecs),
``evaluate(graph, snapshot, operator, params) -> (result, kind,
footprint)`` on domain params (the answer plus the
:data:`~repro.store.delta.ENTRY_KINDS` class and vertex footprint the
result cache keeps it under), ``cacheable(params)`` on wire params, and
whether it may ride a ``QuerySpec`` / ``requests`` bundle. Serving
paths look methods up here instead of branching on their names;
``docs/architecture.md`` §"The method table" names the three branches
left and what adding a family takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.query.cypherlite import run_query
from repro.query.ops import blame, impacted, lineage
from repro.serve import wire
from repro.summarize.pgsum import PgSumOperator

__all__ = ["BATCHABLE", "METHODS", "REQUEST_METHODS", "Method", "RawResult",
           "encode_result"]


@dataclass(frozen=True)
class Method:
    """One wire method: its codecs, its evaluation and its cache rule."""

    name: str
    params_to_wire: Callable[[Mapping[str, Any]], dict[str, Any]]
    params_from_wire: Callable[[dict[str, Any], Any], dict[str, Any]]
    result_to_wire: Callable[[Any], Any]
    result_from_wire: Callable[[Any, Any], Any]
    evaluate: Callable[[Any, Any, Any, Mapping[str, Any]],
                       tuple[Any, str, Any]]
    batchable: bool = True
    cacheable: Callable[[dict[str, Any]], bool] = lambda _params: True


# -- params codecs (domain -> wire, and wire -> domain bound to a graph) -----


def _walk_to_wire(params: Mapping[str, Any]) -> dict[str, Any]:
    return {"entity": int(params["entity"]),
            "max_depth": params.get("max_depth")}


def _walk_from_wire(params: dict[str, Any], _graph) -> dict[str, Any]:
    spec: dict[str, Any] = {"entity": int(params["entity"])}
    if params.get("max_depth") is not None:
        spec["max_depth"] = int(params["max_depth"])
    return spec


def _entity(params: Mapping[str, Any], _graph=None) -> dict[str, Any]:
    return {"entity": int(params["entity"])}


def _cypher_to_wire(params: Mapping[str, Any]) -> dict[str, Any]:
    return {"text": str(params["text"]),
            "budget": wire.budget_to_wire(params.get("budget"))}


def _cypher_from_wire(params: dict[str, Any], _graph) -> dict[str, Any]:
    spec: dict[str, Any] = {"text": str(params["text"])}
    if params.get("budget") is not None:
        spec["budget"] = wire.budget_from_wire(params["budget"])
    return spec


def _cypher_cacheable(params: dict[str, Any]) -> bool:
    # A wall-clock timeout can truncate at a nondeterministic row.
    budget = params.get("budget")
    return not (isinstance(budget, dict)
                and budget.get("timeout_seconds") is not None)


def _summarize_to_wire(params: Mapping[str, Any]) -> dict[str, Any]:
    return {"queries": [wire.pgseg_query_to_wire(query)
                        for query in params["queries"]],
            "pgsum": wire.pgsum_query_to_wire(params["pgsum"])}


def _summarize_from_wire(params: dict[str, Any], graph) -> dict[str, Any]:
    return {"queries": [wire.pgseg_query_from_wire(record, graph)
                        for record in params["queries"]],
            "pgsum": wire.pgsum_query_from_wire(params["pgsum"])}


# -- result decoders: (payload, graph); a None graph leaves graph-bound
# answers (segments, rows) in wire form.


def _graph_free(decode: Callable[[Any], Any]) -> Callable[[Any, Any], Any]:
    return lambda payload, _graph: decode(payload)


def _graph_bound(decode: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    return lambda payload, graph: payload if graph is None \
        else decode(graph, payload)


# -- evaluation: (result, cache kind, footprint) ----------------------------


def _walk(walk: Callable[..., Any], kind: str) -> Callable[..., Any]:
    def evaluate(graph, snapshot, _operator, params):
        # The walk's own vertex set is the footprint: a serving cache
        # keeps only the encoded answer, so it is that set's only owner.
        result = walk(graph, int(params["entity"]),
                      max_depth=params.get("max_depth"), snapshot=snapshot)
        return result, kind, result.vertices
    return evaluate


def _blame(graph, snapshot, _operator, params):
    # Footprint the whole closure (the entity included) plus the owning
    # agents: a new attribution to any ancestor changes the report.
    entity = int(params["entity"])
    ancestry = lineage(graph, entity, snapshot=snapshot)
    report = blame(graph, entity, snapshot=snapshot, ancestry=ancestry)
    footprint = ancestry.vertices
    footprint.update(report)
    return report, "ancestry", footprint


def _segment(_graph, _snapshot, operator, params):
    # A boundary or key may read properties: such answers are "global".
    query = params["query"]
    segment = operator.evaluate(query)
    return (segment, "segment" if query.is_bare else "global",
            frozenset(segment.vertices))


def _summarize(_graph, _snapshot, operator, params):
    segments = [operator.evaluate(query) for query in params["queries"]]
    return (PgSumOperator(segments).evaluate(params["pgsum"]), "global",
            frozenset(vertex for segment in segments
                      for vertex in segment.vertices))


def _cypher(graph, snapshot, _operator, params):
    # CypherLite may scan any slice of the graph: no footprint bounds it.
    rows = run_query(graph, str(params["text"]), params.get("budget"),
                     snapshot=snapshot)
    return rows, "global", frozenset()


#: The table, in wire-protocol order.
METHODS: Mapping[str, Method] = MappingProxyType({row.name: row for row in (
    Method("lineage", _walk_to_wire, _walk_from_wire, wire.lineage_to_wire,
           _graph_free(wire.lineage_from_wire), _walk(lineage, "ancestry")),
    Method("impacted", _walk_to_wire, _walk_from_wire, wire.lineage_to_wire,
           _graph_free(wire.lineage_from_wire), _walk(impacted, "closure")),
    Method("blame", _entity, _entity, wire.blame_to_wire,
           _graph_free(wire.blame_from_wire), _blame),
    Method("segment",
           lambda params: {"query": wire.pgseg_query_to_wire(params["query"])},
           lambda params, graph: {"query": wire.pgseg_query_from_wire(
               params["query"], graph)},
           wire.segment_to_wire, _graph_bound(wire.segment_from_wire),
           _segment),
    Method("summarize", _summarize_to_wire, _summarize_from_wire,
           wire.psg_to_wire, _graph_free(wire.psg_from_wire), _summarize,
           batchable=False),
    Method("cypher", _cypher_to_wire, _cypher_from_wire, wire.rows_to_wire,
           _graph_bound(wire.rows_from_wire), _cypher,
           cacheable=_cypher_cacheable),
)})

#: The methods a ``QuerySpec`` / ``requests`` bundle may name.
BATCHABLE = tuple(name for name, row in METHODS.items() if row.batchable)

#: Every method a request frame may name: the table plus ``metrics``,
#: the out-of-band registry snapshot every serving process answers.
REQUEST_METHODS = (*METHODS, "metrics")


class RawResult:
    """A worker's ok answer left in wire form (``raw=True`` collects).

    ``payload`` is the answer's :class:`~repro.serve.wire.WireValue` as
    it arrived: off a socket only the canonical JSON text the worker
    packed, from an in-memory worker the worker's cached answer itself —
    read it, never mutate it. The async front-end splices
    ``payload.text`` into its client frame unparsed; the row's
    ``result_from_wire(payload.value, graph)`` decodes on demand.
    """

    __slots__ = ("method", "payload")

    def __init__(self, method: str, payload: Any):
        self.method = method
        self.payload = payload

    def __repr__(self) -> str:        # pragma: no cover - debugging aid
        return f"RawResult(method={self.method!r})"


def encode_result(method: str, result: Any) -> wire.WireValue:
    """An ok answer as the wire value its response carries: a
    :class:`RawResult`'s payload as it arrived (spliced, never parsed),
    a domain answer — a share re-routed after a crash — by its row."""
    if isinstance(result, RawResult):
        return result.payload
    return wire.WireValue(METHODS[method].result_to_wire(result))
