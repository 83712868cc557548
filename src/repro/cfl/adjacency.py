"""Filtered ancestry adjacency shared by the CFLR solvers.

The SimProv solvers only ever traverse the two ancestry edge types, in both
directions, with the boundary criteria's exclusion predicates applied inline
(Appendix C: boundary label functions ``F_v``/``F_e`` map excluded elements to
ε, i.e. make them invisible). Building the four adjacency lists once per
query keeps the solver inner loops free of store lookups and predicate calls.

Lists are indexed by dense vertex id:

- ``gen_acts[e]``  — activities that generated entity ``e``      (follow G)
- ``user_acts[e]`` — activities that used entity ``e``           (follow U^-1)
- ``used_ents[a]`` — entities used by activity ``a``             (follow U)
- ``gen_ents[a]``  — entities generated by activity ``a``        (follow G^-1)

:class:`AncestryArrays` is the same filtered adjacency as numpy CSR rows for
the two *forward* relations only — what the SimProv array kernels descend;
:class:`AncestryCone` is the part of it reachable from a query's
destinations, relabelled to dense local ids.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, VertexType
from repro.store.csr import CsrAdjacency
from repro.store.records import EdgeRecord, VertexRecord

VertexPredicate = Callable[[VertexRecord], bool]
EdgePredicate = Callable[[EdgeRecord], bool]


@dataclass(slots=True)
class ProvAdjacency:
    """Ancestry adjacency snapshot with boundary filters applied.

    Attributes:
        n: vertex id space size.
        gen_acts / user_acts / used_ents / gen_ents: adjacency lists.
        orders: creation ordinal per vertex id (-1 for excluded/dead ids).
        entity_ids / activity_ids: live, non-excluded ids per type.
        edge_total_g / edge_total_u: surviving G / U edge counts.
    """

    n: int
    gen_acts: list[list[int]]
    user_acts: list[list[int]]
    used_ents: list[list[int]]
    gen_ents: list[list[int]]
    orders: list[int]
    entity_ids: list[int]
    activity_ids: list[int]
    edge_total_g: int
    edge_total_u: int
    _monotone: bool | None = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, graph: ProvenanceGraph,
              vertex_ok: VertexPredicate | None = None,
              edge_ok: EdgePredicate | None = None) -> "ProvAdjacency":
        """Build the snapshot, dropping excluded vertices and edges.

        An excluded vertex drops every incident ancestry edge; an excluded
        edge drops only itself. Vertices stay listed in ``orders`` with -1 so
        solvers can treat exclusion and non-existence identically.
        """
        store = graph.store
        n = store.vertex_capacity
        gen_acts: list[list[int]] = [[] for _ in range(n)]
        user_acts: list[list[int]] = [[] for _ in range(n)]
        used_ents: list[list[int]] = [[] for _ in range(n)]
        gen_ents: list[list[int]] = [[] for _ in range(n)]
        orders = [-1] * n
        entity_ids: list[int] = []
        activity_ids: list[int] = []

        allowed = [False] * n
        for record in store.vertices():
            if vertex_ok is not None and not vertex_ok(record):
                continue
            allowed[record.vertex_id] = True
            orders[record.vertex_id] = record.order
            if record.vertex_type is VertexType.ENTITY:
                entity_ids.append(record.vertex_id)
            elif record.vertex_type is VertexType.ACTIVITY:
                activity_ids.append(record.vertex_id)

        edge_total_g = 0
        for record in store.edges(EdgeType.WAS_GENERATED_BY):
            if not (allowed[record.src] and allowed[record.dst]):
                continue
            if edge_ok is not None and not edge_ok(record):
                continue
            gen_acts[record.src].append(record.dst)   # entity -> activity
            gen_ents[record.dst].append(record.src)   # activity -> entity
            edge_total_g += 1

        edge_total_u = 0
        for record in store.edges(EdgeType.USED):
            if not (allowed[record.src] and allowed[record.dst]):
                continue
            if edge_ok is not None and not edge_ok(record):
                continue
            used_ents[record.src].append(record.dst)  # activity -> entity
            user_acts[record.dst].append(record.src)  # entity -> activity
            edge_total_u += 1

        return cls(
            n=n,
            gen_acts=gen_acts,
            user_acts=user_acts,
            used_ents=used_ents,
            gen_ents=gen_ents,
            orders=orders,
            entity_ids=entity_ids,
            activity_ids=activity_ids,
            edge_total_g=edge_total_g,
            edge_total_u=edge_total_u,
        )

    def is_live(self, vertex_id: int) -> bool:
        """True when the id survived the filters."""
        return 0 <= vertex_id < self.n and self.orders[vertex_id] >= 0

    @property
    def monotone(self) -> bool:
        """:attr:`AncestryArrays.monotone` of these lists (computed once)."""
        if self._monotone is None:
            self._monotone = self.arrays().monotone
        return self._monotone

    def arrays(self) -> "AncestryArrays":
        """The forward relations converted to CSR rows (O(V+E))."""
        orders = np.asarray(self.orders, dtype=np.int64)
        gen = _rows_to_csr(self.gen_acts)
        used = _rows_to_csr(self.used_ents)
        monotone = self._monotone
        if monotone is None:
            monotone = self._monotone = order_monotone(orders, gen, used)
        return AncestryArrays(self.n, orders, gen, used, monotone)


def _rows_to_csr(rows: list[list[int]]) -> CsrAdjacency:
    """One list-of-lists relation as CSR rows."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)),
              out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), np.int64,
                          int(indptr[-1]))
    return CsrAdjacency(indptr, indices)


def order_monotone(orders: np.ndarray, gen: CsrAdjacency,
                   used: CsrAdjacency) -> bool:
    """True when every G and U edge points to a strictly older vertex.

    One comparison over each relation's edge list. On such ancestry every
    descent from a vertex only meets older vertices: there are no cycles,
    and nothing older than a vertex can lead back to it.
    """
    for rows in (gen, used):
        sources = np.repeat(np.arange(len(rows.indptr) - 1),
                            np.diff(rows.indptr))
        if not np.all(orders[rows.indices] < orders[sources]):
            return False
    return True


def edges_to_csr(src: np.ndarray, dst: np.ndarray, n: int) -> CsrAdjacency:
    """The edge list ``src[i] -> dst[i]`` as CSR rows over ``n`` sources.

    Parallel edges stay parallel; a row keeps its edges in list order.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CsrAdjacency(indptr, dst[np.argsort(src, kind="stable")])


def row_positions(rows: CsrAdjacency,
                  keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of rows ``keys`` of ``rows`` concatenated, and each
    row's length: they index ``rows.indices`` and ``rows.edge_ids``."""
    # Method and ufunc forms: a BFS level is often a handful of rows,
    # where ``np.cumsum`` / ``np.repeat``'s dispatch costs 2-3x theirs.
    starts = rows.indptr[keys]
    counts = rows.indptr[1:][keys] - starts
    ends = np.add.accumulate(counts)
    # Ragged arange: positions of every requested row, concatenated.
    starts -= ends - counts
    positions = starts.repeat(counts)
    positions += np.arange(ends[-1] if ends.size else 0)
    return positions, counts


def gather_rows(rows: CsrAdjacency,
                keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``keys`` of ``rows`` concatenated, and each row's length.

    ``np.repeat(keys, lengths)`` lines the sources up with the targets.
    """
    positions, counts = row_positions(rows, keys)
    return rows.indices[positions], counts


def distinct(ids: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """``ids`` without repeats, without sorting: the last write of each
    id wins. ``stamp`` is id-indexed int64 scratch; any contents do."""
    rank = np.arange(len(ids))
    stamp[ids] = rank
    return ids[stamp[ids] == rank]


@dataclass(frozen=True, slots=True)
class AncestryArrays:
    """Filtered G / U adjacency as read-only CSR rows over dense vertex ids.

    Built by :meth:`repro.store.snapshot.GraphSnapshot.ancestry_arrays` (the
    unfiltered view *borrows* the snapshot's CSR, so it must never be
    written) or converted from a :class:`ProvAdjacency`.

    Attributes:
        n: vertex id space size.
        orders: creation ordinal per vertex id (-1 for excluded/dead ids).
        gen: rows following G (entity -> generating activities).
        used: rows following U (activity -> used entities).
        monotone: every G / U edge points to a strictly older vertex
            (:func:`order_monotone`). The SimProv early-stop rule is only
            sound on such arrays, and SimProvTst's depth-set kernel needs
            them.
    """

    n: int
    orders: np.ndarray
    gen: CsrAdjacency
    used: CsrAdjacency
    monotone: bool

    def is_live(self, vertex_id: int) -> bool:
        """True when the id survived the filters."""
        return 0 <= vertex_id < self.n and self.orders[vertex_id] >= 0


def solver_adjacency(graph: ProvenanceGraph, snapshot,
                     adjacency: ProvAdjacency | None,
                     vertex_ok: VertexPredicate | None,
                     edge_ok: EdgePredicate | None,
                     as_arrays: bool) -> AncestryArrays | ProvAdjacency:
    """What a SimProv solver traverses: one kernel, three feeds.

    The array kernels (``as_arrays``) read the snapshot's borrowed (or
    masked) CSR, or a list adjacency — given, or built from the live store
    — converted to the same rows. The per-element ablation loops read the
    list adjacency itself.
    """
    if as_arrays and adjacency is None and snapshot is not None:
        return snapshot.ancestry_arrays(vertex_ok, edge_ok)
    if adjacency is None and snapshot is not None:
        adjacency = snapshot.prov_adjacency(vertex_ok, edge_ok)
    elif adjacency is None:
        adjacency = ProvAdjacency.build(graph, vertex_ok, edge_ok)
    return adjacency.arrays() if as_arrays else adjacency


class AncestryCone:
    """The ancestry cone of a set of destinations, relabelled to local ids.

    Discovered one breadth-first level per :meth:`grow` over ``(vertex,
    depth parity)`` states — even depths expand through G, odd depths
    through U, exactly the steps SimProvTst's layers take — so a query
    that stops early never pays for ancestry it did not reach. Local ids
    are handed out in discovery order. SimProvTst grows one cone per
    destination; SimProvAlg grows one from all of Vdst (:meth:`grow_all`),
    because its pair tables are shared across them.

    **Bounded growth.** On monotone arrays
    (:attr:`AncestryArrays.monotone`) nothing older than a vertex leads
    back to it, so the vertices at or above the oldest Vsrc entity's order
    — the only ones that can match — are all discovered once no frontier
    vertex is that young (:meth:`grow_all` with ``min_order``), and the
    early-stop depth ``S`` can be read off that part alone. SimProvTst
    then grows on to ``2S - 1`` levels — the cone its layers up to ``S``
    can reach — and no farther. The first step never overshoots the
    second: a vertex at or above the oldest source's order sits at a depth
    below ``S``, hence within ``2S - 2`` levels. On the Pd graphs the bound
    keeps a late-Vsrc query's cone a small fraction of the full one.

    Each level costs a handful of numpy calls (a ragged CSR gather plus
    appends) sized by the level; one ``n``-sized id map and two ``n``-byte
    masks are allocated per cone.

    Attributes:
        size: number of vertices discovered so far.
        ids: global vertex id per local id.
        orders: creation ordinal per local id.
        g_src / g_dst: local endpoints of every G edge gathered so far.
        u_src / u_dst: local endpoints of every U edge gathered so far.
    """

    def __init__(self, arrays: AncestryArrays, roots: int | Sequence[int]):
        self._arrays = arrays
        self._seen = (np.zeros(arrays.n, dtype=bool),
                      np.zeros(arrays.n, dtype=bool))
        self._frontier = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        self._seen[0][self._frontier] = True
        self._local_of = np.full(arrays.n, -1, dtype=np.int64)
        self._local_of[self._frontier] = np.arange(len(self._frontier))
        self._stamp = np.empty(arrays.n, dtype=np.int64)
        self._level = 0
        self.size = len(self._frontier)
        # Grown a level at a time, joined when read.
        self._parts: dict[str, list[np.ndarray]] = {
            "ids": [self._frontier],
            "orders": [arrays.orders[self._frontier]],
            "g_src": [], "g_dst": [], "u_src": [], "u_dst": [],
        }

    def _joined(self, name: str) -> np.ndarray:
        parts = self._parts[name]
        if len(parts) != 1:
            parts[:] = [np.concatenate(parts) if parts
                        else np.empty(0, dtype=np.int64)]
        return parts[0]

    ids = property(lambda self: self._joined("ids"))
    orders = property(lambda self: self._joined("orders"))
    g_src = property(lambda self: self._joined("g_src"))
    g_dst = property(lambda self: self._joined("g_dst"))
    u_src = property(lambda self: self._joined("u_src"))
    u_dst = property(lambda self: self._joined("u_dst"))

    def grow(self) -> bool:
        """Expand the next level; True while there is more to grow."""
        if self._frontier.size:
            self._frontier = self._expand(self._frontier, self._level & 1)
            self._level += 1
        return bool(self._frontier.size)

    def grow_all(self, levels: int | None = None,
                 min_order: int | None = None) -> None:
        """Grow until the frontier is empty or ``levels`` levels are done
        — or, given ``min_order``, holds no vertex that young."""
        arrays = self._arrays
        while self._frontier.size and (levels is None
                                       or self._level < levels):
            if min_order is not None \
                    and arrays.orders[self._frontier].max() < min_order:
                return
            self.grow()

    def _expand(self, frontier: np.ndarray, parity: int) -> np.ndarray:
        """Gather the rows of ``frontier``'s states; the next frontier."""
        arrays = self._arrays
        targets, counts = gather_rows(arrays.used if parity else arrays.gen,
                                      frontier)
        seen_next = self._seen[parity ^ 1]
        next_frontier = distinct(targets[~seen_next[targets]], self._stamp)
        seen_next[next_frontier] = True
        new = next_frontier[self._local_of[next_frontier] < 0]
        self._local_of[new] = np.arange(self.size, self.size + len(new))
        self.size += len(new)
        parts = self._parts
        parts["ids"].append(new)
        parts["orders"].append(arrays.orders[new])
        side = "u" if parity else "g"
        parts[side + "_src"].append(np.repeat(self._local_of[frontier],
                                              counts))
        parts[side + "_dst"].append(self._local_of[targets])
        return next_frontier

    def locate(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Local ids of those ``vertex_ids`` discovered so far."""
        local = self._local_of[vertex_ids]
        return local[local >= 0]
