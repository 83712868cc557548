"""CypherLite evaluator.

Faithfully reproduces the evaluation strategy the paper observed in Neo4j for
Query 1 (Sec. V): variable-length path patterns are *fully enumerated* into
path variables and later joined by the WHERE predicates. That makes the
evaluator exponential in path length and average out-degree — which is the
point: it is the baseline the CFLR algorithms beat by orders of magnitude.

A :class:`Budget` guards against runaway queries: evaluation raises
:class:`repro.errors.QueryTimeout` once the time or work budget is exhausted,
mirroring the paper's ">12 hours, terminated" entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import CypherEvaluationError, QueryTimeout
from repro.model.graph import ProvenanceGraph
from repro.model.types import parse_edge_type, parse_vertex_type
from repro.query.cypherlite.ast_nodes import (
    And,
    Cmp,
    Expr,
    Extract,
    FuncCall,
    Index,
    ListLiteral,
    Literal,
    MatchClause,
    NodePattern,
    Not,
    Or,
    PathPattern,
    Property,
    Query,
    RelPattern,
    ReturnItem,
    Var,
    WithClause,
)
from repro.query.cypherlite.parser import parse
from repro.query.paths import Path, Step
from repro.store.snapshot import GraphSnapshot


@dataclass(slots=True)
class Budget:
    """Work/time limits for one evaluation.

    Attributes:
        timeout_seconds: wall-clock limit (None = unlimited).
        max_expansions: limit on DFS expansion steps across the query.
        max_rows: limit on intermediate binding-table rows.
    """

    timeout_seconds: float | None = 30.0
    max_expansions: int = 2_000_000
    max_rows: int = 1_000_000

    _deadline: float | None = field(default=None, init=False, repr=False)
    _expansions: int = field(default=0, init=False, repr=False)

    def start(self) -> None:
        """Arm the deadline clock."""
        self._deadline = (
            None if self.timeout_seconds is None
            else time.monotonic() + self.timeout_seconds
        )
        self._expansions = 0

    def tick(self, amount: int = 1) -> None:
        """Account for work; raises QueryTimeout when exhausted."""
        self._expansions += amount
        if self._expansions > self.max_expansions:
            raise QueryTimeout(
                f"exceeded expansion budget ({self.max_expansions})"
            )
        if self._deadline is not None and (self._expansions & 0x3FF) == 0:
            if time.monotonic() > self._deadline:
                raise QueryTimeout(
                    f"exceeded time budget ({self.timeout_seconds}s)"
                )

    def check_time(self) -> None:
        """Explicit deadline check, for non-loop call sites."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout(f"exceeded time budget ({self.timeout_seconds}s)")


_Row = dict[str, Any]


class Evaluator:
    """Evaluates parsed CypherLite queries against a provenance graph.

    Args:
        graph: the graph to query.
        budget: work/time limits (defaults to :class:`Budget`).
        snapshot: optional :class:`GraphSnapshot`; node scans, anchor
            planning, and path expansion then read the frozen CSR views
            instead of the live store. Property predicates still read the
            (shared) records, so values match the live graph.
    """

    def __init__(self, graph: ProvenanceGraph, budget: Budget | None = None,
                 snapshot: GraphSnapshot | None = None):
        self._graph = graph
        self._snapshot = snapshot
        self._budget = budget if budget is not None else Budget()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, query: Query | str) -> list[_Row]:
        """Evaluate a query; returns one dict per RETURN row."""
        if isinstance(query, str):
            query = parse(query)
        self._budget.start()
        rows: list[_Row] = [{}]
        for clause in query.clauses:
            if isinstance(clause, MatchClause):
                rows = self._apply_match(rows, clause)
            elif isinstance(clause, WithClause):
                rows = self._apply_with(rows, clause)
            else:  # pragma: no cover - parser only emits the two kinds
                raise CypherEvaluationError(f"unsupported clause {clause!r}")
            if len(rows) > self._budget.max_rows:
                raise QueryTimeout(
                    f"exceeded row budget ({self._budget.max_rows})"
                )
        results = []
        for row in rows:
            projected: _Row = {}
            for position, item in enumerate(query.return_items):
                name = item.alias or self._item_name(item, position)
                projected[name] = self._eval(item.expr, row)
            results.append(projected)
            if query.limit is not None and len(results) >= query.limit:
                break
        return results

    @staticmethod
    def _item_name(item: ReturnItem, position: int) -> str:
        if isinstance(item.expr, Var):
            return item.expr.name
        return f"col{position}"

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------

    def _apply_match(self, rows: list[_Row], clause: MatchClause) -> list[_Row]:
        seeds = _id_constraints(clause.where)
        filters = _property_constraints(clause.where)
        output: list[_Row] = []
        for row in rows:
            for binding in self._match_pattern(clause.pattern, row, seeds,
                                               filters):
                merged = {**row, **binding}
                if clause.where is None or _truthy(self._eval(clause.where, merged)):
                    output.append(merged)
                    if len(output) > self._budget.max_rows:
                        raise QueryTimeout(
                            f"exceeded row budget ({self._budget.max_rows})"
                        )
        return output

    def _apply_with(self, rows: list[_Row], clause: WithClause) -> list[_Row]:
        projected = []
        for row in rows:
            missing = [name for name in clause.items if name not in row]
            if missing:
                raise CypherEvaluationError(
                    f"WITH references unbound variable(s) {missing}"
                )
            projected.append({name: row[name] for name in clause.items})
        return projected

    # ------------------------------------------------------------------

    def _node_candidates(self, node: NodePattern, row: _Row,
                         seeds: dict[str, set[int]],
                         filters: dict[str, list[tuple[str, Any]]],
                         ) -> Iterable[int]:
        source = self._snapshot if self._snapshot is not None \
            else self._graph.store
        if node.var in row:
            return (row[node.var],)
        if node.var in seeds:
            candidates: Iterable[int] = [
                vertex_id for vertex_id in sorted(seeds[node.var])
                if vertex_id in source and self._node_matches(node, vertex_id)
            ]
        elif node.label is not None:
            candidates = source.vertex_ids(parse_vertex_type(node.label))
        else:
            candidates = source.vertex_ids()
        # ``var.key = literal`` conjuncts drop a candidate before its row
        # is built; the value is read as ``_eval_property`` reads it, and
        # WHERE still runs on every row that survives.
        vertex = self._graph.vertex
        for key, value in filters.get(node.var, ()):
            candidates = [vertex_id for vertex_id in candidates
                          if vertex(vertex_id).get(key) == value]
        return candidates

    def _node_matches(self, node: NodePattern, vertex_id: int) -> bool:
        if node.label is None:
            return True
        source = self._snapshot if self._snapshot is not None \
            else self._graph.store
        return source.vertex_type(vertex_id) is parse_vertex_type(node.label)

    def _anchor_score(self, node: NodePattern, row: _Row,
                      seeds: dict[str, set[int]]) -> int:
        """Estimated candidate count for seeding the pattern at ``node``.

        Mirrors Neo4j's seek planning: bound variables and id seeds beat
        label scans beat full scans.
        """
        source = self._snapshot if self._snapshot is not None \
            else self._graph.store
        if node.var in row:
            return 1
        if node.var in seeds:
            return len(seeds[node.var])
        if node.label is not None:
            return source.count_vertices(parse_vertex_type(node.label))
        return source.vertex_count

    @staticmethod
    def _reverse_pattern(pattern: PathPattern) -> PathPattern:
        """The same pattern written right-to-left (for right anchoring)."""
        flipped = tuple(
            RelPattern(
                types=rel.types,
                direction="left" if rel.direction == "right" else "right",
                min_len=rel.min_len,
                max_len=rel.max_len,
            )
            for rel in reversed(pattern.rels)
        )
        return PathPattern(pattern.path_var, tuple(reversed(pattern.nodes)),
                           flipped)

    def _match_pattern(self, pattern: PathPattern, row: _Row,
                       seeds: dict[str, set[int]],
                       filters: dict[str, list[tuple[str, Any]]],
                       ) -> Iterator[_Row]:
        # Anchor at whichever end is better constrained; a right anchor
        # evaluates the reversed pattern and inverts the bound path so the
        # user-visible node order is unchanged.
        reverse = False
        if pattern.rels:
            left_score = self._anchor_score(pattern.nodes[0], row, seeds)
            right_score = self._anchor_score(pattern.nodes[-1], row, seeds)
            if right_score < left_score:
                pattern = self._reverse_pattern(pattern)
                reverse = True
        first = pattern.nodes[0]
        for start in self._node_candidates(first, row, seeds, filters):
            self._budget.tick()
            path = Path(self._graph, start, snapshot=self._snapshot)
            yield from self._extend(pattern, row, seeds, 0, path,
                                    {first.var: start}, reverse)

    def _extend(self, pattern: PathPattern, row: _Row,
                seeds: dict[str, set[int]], rel_index: int, path: Path,
                binding: _Row, reverse: bool = False) -> Iterator[_Row]:
        if rel_index == len(pattern.rels):
            final = dict(binding)
            if pattern.path_var is not None:
                final[pattern.path_var] = path.inverse() if reverse else path
            yield final
            return
        rel = pattern.rels[rel_index]
        target_node = pattern.nodes[rel_index + 1]
        for sub_path in self._expand_rel(path, rel):
            end = sub_path.end
            self._budget.tick()
            if not self._node_matches(target_node, end):
                continue
            if target_node.var in binding and binding[target_node.var] != end:
                continue
            if target_node.var in row and row[target_node.var] != end:
                continue
            if target_node.var in seeds and end not in seeds[target_node.var]:
                continue
            next_binding = dict(binding)
            next_binding[target_node.var] = end
            yield from self._extend(pattern, row, seeds, rel_index + 1,
                                    sub_path, next_binding, reverse)

    def _expand_rel(self, path: Path, rel: RelPattern) -> Iterator[Path]:
        """DFS-enumerate all extensions of ``path`` matching one rel pattern.

        Enforces relationship uniqueness within the expansion (Cypher's path
        semantics), which guarantees termination of unbounded ``*`` patterns.
        """
        edge_types = [parse_edge_type(t) for t in rel.types] or [None]
        used_edges = {step.edge_id for step in path.steps}
        snapshot = self._snapshot

        def neighbors(vertex_id: int) -> Iterator[Step]:
            for edge_type in edge_types:
                if rel.direction == "right":
                    edge_ids = (
                        snapshot.out_edges(vertex_id, edge_type)
                        if snapshot is not None
                        else self._graph.store.out_edge_ids(vertex_id, edge_type)
                    )
                    for edge_id in edge_ids:
                        yield Step(edge_id, forward=True)
                else:
                    edge_ids = (
                        snapshot.in_edges(vertex_id, edge_type)
                        if snapshot is not None
                        else self._graph.store.in_edge_ids(vertex_id, edge_type)
                    )
                    for edge_id in edge_ids:
                        yield Step(edge_id, forward=False)

        stack: list[tuple[Path, int]] = [(path, 0)]
        while stack:
            current, depth = stack.pop()
            if depth >= rel.min_len:
                yield current
            if rel.max_len is not None and depth >= rel.max_len:
                continue
            for step in neighbors(current.end):
                if step.edge_id in used_edges or any(
                    s.edge_id == step.edge_id for s in current.steps
                ):
                    continue
                self._budget.tick()
                stack.append((current.extended(step), depth + 1))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, row: _Row) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ListLiteral):
            return [self._eval(item, row) for item in expr.items]
        if isinstance(expr, Var):
            if expr.name not in row:
                raise CypherEvaluationError(f"unbound variable {expr.name!r}")
            return row[expr.name]
        if isinstance(expr, Property):
            return self._eval_property(expr, row)
        if isinstance(expr, Index):
            base = self._eval(expr.base, row)
            index = self._eval(expr.index, row)
            try:
                return base[index]
            except (TypeError, IndexError, KeyError) as exc:
                raise CypherEvaluationError(f"bad subscript: {exc}") from exc
        if isinstance(expr, FuncCall):
            return self._eval_func(expr, row)
        if isinstance(expr, Extract):
            source = self._eval(expr.source, row)
            if not isinstance(source, list):
                raise CypherEvaluationError("extract() source must be a list")
            out = []
            for element in source:
                inner = dict(row)
                inner[expr.var] = element
                out.append(self._eval(expr.projection, inner))
            return out
        if isinstance(expr, Cmp):
            left = self._eval(expr.left, row)
            right = self._eval(expr.right, row)
            if expr.op == "=":
                return left == right
            if expr.op == "<>":
                return left != right
            if expr.op == "IN":
                if not isinstance(right, list):
                    raise CypherEvaluationError("IN requires a list operand")
                return left in right
            raise CypherEvaluationError(f"unknown operator {expr.op}")
        if isinstance(expr, And):
            return _truthy(self._eval(expr.left, row)) and _truthy(
                self._eval(expr.right, row)
            )
        if isinstance(expr, Or):
            return _truthy(self._eval(expr.left, row)) or _truthy(
                self._eval(expr.right, row)
            )
        if isinstance(expr, Not):
            return not _truthy(self._eval(expr.operand, row))
        raise CypherEvaluationError(f"unsupported expression {expr!r}")

    def _eval_property(self, expr: Property, row: _Row) -> Any:
        base = self._eval(expr.base, row)
        if isinstance(base, int):
            return self._graph.vertex(base).get(expr.key)
        if isinstance(base, Step):
            return self._graph.edge(base.edge_id).get(expr.key)
        raise CypherEvaluationError(
            f"property access on non-vertex value {base!r}"
        )

    def _eval_func(self, expr: FuncCall, row: _Row) -> Any:
        args = [self._eval(arg, row) for arg in expr.args]
        name = expr.name
        if name == "id":
            value = args[0]
            if isinstance(value, Step):
                return value.edge_id
            return value
        if name == "labels":
            return [self._graph.vertex(args[0]).label]
        if name == "type":
            step = args[0]
            if not isinstance(step, Step):
                raise CypherEvaluationError("type() expects a relationship")
            return self._graph.edge(step.edge_id).label
        if name == "nodes":
            return _as_path(args[0]).vertices
        if name == "relationships":
            return list(_as_path(args[0]).steps)
        if name == "length":
            return len(_as_path(args[0]))
        if name == "size":
            return len(args[0])
        raise CypherEvaluationError(f"unknown function {name}()")


def _as_path(value: Any) -> Path:
    if not isinstance(value, Path):
        raise CypherEvaluationError(f"expected a path, found {value!r}")
    return value


def _truthy(value: Any) -> bool:
    return bool(value)


def _conjuncts(where: Expr | None) -> Iterator[Expr]:
    """The top-level ``AND`` conjuncts of a WHERE expression."""
    stack = [] if where is None else [where]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        else:
            yield node


def _id_constraints(where: Expr | None) -> dict[str, set[int]]:
    """Extract ``id(var) IN [...]`` / ``id(var) = n`` seeds from WHERE.

    Only top-level conjuncts are considered (the standard seek optimization
    Neo4j applies for Query 1: "we always use id to seek the nodes").
    """
    seeds: dict[str, set[int]] = {}
    for node in _conjuncts(where):
        if not isinstance(node, Cmp):
            continue
        if not (isinstance(node.left, FuncCall) and node.left.name == "id"
                and len(node.left.args) == 1
                and isinstance(node.left.args[0], Var)):
            continue
        var = node.left.args[0].name
        if node.op == "IN" and isinstance(node.right, ListLiteral):
            values = set()
            for item in node.right.items:
                if isinstance(item, Literal) and isinstance(item.value, int):
                    values.add(item.value)
                else:
                    break
            else:
                seeds.setdefault(var, set()).update(values)
        elif node.op == "=" and isinstance(node.right, Literal) \
                and isinstance(node.right.value, int):
            seeds.setdefault(var, set()).add(node.right.value)
    return seeds


def _property_constraints(where: Expr | None,
                          ) -> dict[str, list[tuple[str, Any]]]:
    """Extract ``var.key = literal`` / ``literal = var.key`` conjuncts.

    Top-level conjuncts only, like :func:`_id_constraints`: every row that
    fails one of them fails WHERE, so the candidate scan may drop it.
    """
    filters: dict[str, list[tuple[str, Any]]] = {}
    for node in _conjuncts(where):
        if not (isinstance(node, Cmp) and node.op == "="):
            continue
        for prop, literal in ((node.left, node.right),
                              (node.right, node.left)):
            if isinstance(prop, Property) and isinstance(prop.base, Var) \
                    and isinstance(literal, Literal):
                filters.setdefault(prop.base.name, []).append(
                    (prop.key, literal.value))
    return filters


def run_query(graph: ProvenanceGraph, text: str,
              budget: Budget | None = None,
              snapshot: GraphSnapshot | None = None) -> list[_Row]:
    """Parse and evaluate ``text`` against ``graph``."""
    return Evaluator(graph, budget, snapshot=snapshot).run(text)
