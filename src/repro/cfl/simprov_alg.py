"""SimProvAlg: worklist ``L(SimProv)``-reachability on the rewritten grammar.

The rewritten grammar (Fig. 4) has two pair-valued nonterminals::

    Ee ⊆ E × E :  Ee -> v_j (seed, v_j ∈ Vdst)   |   U^-1 Aa U
    Aa ⊆ A × A :  Aa -> G^-1 Ee G

which SimProvAlg exploits three ways (Sec. III.B.2):

- **Worklist reduction** — each popped ``Ee``/``Aa`` fact expands directly to
  the next level's pairs, skipping the normal form's intermediate ``Lg``,
  ``Rg``, ... facts (and their worklist churn).
- **Symmetry** — ``Ee``/``Aa`` are symmetric relations, so facts are stored
  and processed once in canonical ``(min, max)`` order, halving the tables.
- **Early stopping** — the provenance graph is temporal: expanding a fact
  only reaches vertices *older* than the fact's components, so a pair whose
  components are both older than every Vsrc entity can never contribute to
  an answer and is pruned (the Fig. 5(d) experiment). That premise holds
  only on monotone ancestry (:attr:`AncestryArrays.monotone`: every G / U
  edge points to a strictly older vertex); on any other graph — a cycle,
  an ill-typed edge, an old activity using a newer entity — ``prune`` is
  a no-op, in both kernels alike.

The optional ``activity_key``/``entity_key`` functions implement the paper's
property-constrained generalization (e.g. "matched activities on both sides
must run the same command"): a pair is only derived when the two components
agree on the key.

The native solver (``set_impl="set"``) is an array kernel. A FIFO worklist
seeded with the ``Ee`` seeds pops all of them, then every ``Aa`` fact they
derive, then every ``Ee`` fact those derive: it already runs in level order,
so the kernel runs the same fixpoint one half-level at a time. The frontier
is an array of pair codes; one half-level is two ragged CSR gathers (every
``(a1, a2) ∈ G[x] × G[y]`` per frontier pair ``(x, y)``), the key and prune
masks, a membership test against a bit-packed table, and an in-place sort
that drops the level's repeats. Tables and ids are local to Vdst's ancestry
cone (:class:`AncestryCone` grown from all of Vdst at once — the tables are
shared across destinations): an ``n``-entity cone costs ``n² / 8`` bytes per
table, whatever the graph's size. The top-down derivation walk that collects
``path_vertices`` is the same expansion run backward through the cone's
reversed rows. ``"bitset"`` / ``"roaring"`` run the worklist per element
over :class:`ProvAdjacency` lists — the paper's Cbm ablation and the tests'
oracle, nothing else.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.cfl.adjacency import (
    AncestryArrays,
    AncestryCone,
    EdgePredicate,
    ProvAdjacency,
    VertexPredicate,
    edges_to_csr,
    gather_rows,
    solver_adjacency,
)
from repro.cfl.fastset import IntBitSet
from repro.cfl.results import SimProvResult, SimProvStats
from repro.cfl.roaring import RoaringBitmap
from repro.errors import QueryTimeout, SegmentationError, SolverError
from repro.model.graph import ProvenanceGraph
from repro.store.csr import CsrAdjacency

KeyFunction = Callable[[int], Hashable]

_SET_IMPLS = ("set", "bitset", "roaring")

_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


# ----------------------------------------------------------------------
# Array kernel (set_impl="set")
# ----------------------------------------------------------------------


def _distinct(codes: np.ndarray) -> np.ndarray:
    """``codes`` sorted, repeats dropped (sorts its argument in place).

    Not ``np.unique``: that hashes, and measured ~20x slower than this on
    the kernel's levels (numpy 2.4, 5·10⁵ codes: 127 ms against 7 ms).
    """
    if codes.size < 2:
        return codes
    codes.sort()
    first = np.empty(codes.size, dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


class _PairBits:
    """A symmetric relation over ``n`` dense ids, one bit per pair.

    The unordered pair ``{x, y}`` is the code ``min * n + max``.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int):
        self.n = n
        self._bits = np.zeros((n * n + 7) >> 3, dtype=np.uint8)

    def codes(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        codes = np.minimum(x, y)
        codes *= self.n
        codes += np.maximum(x, y)
        return codes

    def split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(codes, self.n)

    def has(self, codes: np.ndarray) -> np.ndarray:
        return (self._bits[codes >> 3] & _BIT[codes & 7]) != 0

    def has_pair(self, x: int, y: int) -> bool:
        code = min(x, y) * self.n + max(x, y)
        return bool(self._bits[code >> 3] & (1 << (code & 7)))

    def admit(self, codes: np.ndarray) -> np.ndarray:
        """Insert ``codes``; returns those that were new, each once."""
        new = _distinct(codes[~self.has(codes)])
        np.bitwise_or.at(self._bits, new >> 3, _BIT[new & 7])
        return new


def _pairs_through(rows: CsrAdjacency, x: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(t1, t2) ∈ rows[x_i] × rows[y_i]``, over all pairs ``i``.

    Parallel edges multiply, as they do in the per-element double loop —
    the ``pruned`` counter counts derivations, not pairs.
    """
    t1, per_x = gather_rows(rows, x)
    t2, per_t1 = gather_rows(rows, np.repeat(y, per_x))
    return np.repeat(t1, per_t1), t2


def _classes(key: KeyFunction | None,
             vertex_ids: np.ndarray) -> np.ndarray | None:
    """``key`` evaluated once per vertex, as dense integer class ids."""
    if key is None:
        return None
    ids: dict[Hashable, int] = {}
    return np.fromiter(
        (ids.setdefault(key(v), len(ids)) for v in vertex_ids.tolist()),
        np.int64, len(vertex_ids))


class _PairCone:
    """Vdst's ancestry cone as the pair kernel reads it, with its tables.

    Entities (the cone's even-depth states) and activities (odd-depth
    states) are ranked separately, so ``Ee`` is a table over entity ranks
    and ``Aa`` one over activity ranks; on an ill-typed graph a vertex
    reached at both parities has one rank of each.

    Attributes:
        e_ids / a_ids: global vertex id per entity / activity rank.
        e_orders / a_orders: creation ordinal per rank.
        gen / used: forward rows, entity rank -> activity ranks (G) and
            activity rank -> entity ranks (U).
        gen_rev / used_rev: the same edges reversed.
        ee / aa: the fact tables.
    """

    def __init__(self, arrays: AncestryArrays, roots: list[int]):
        cone = AncestryCone(arrays, roots)
        cone.grow_all()
        is_e = np.zeros(cone.size, dtype=bool)
        is_e[cone.locate(np.asarray(roots, dtype=np.int64))] = True
        is_e[cone.u_dst] = True
        is_a = np.zeros(cone.size, dtype=bool)
        is_a[cone.g_dst] = True
        e_local, a_local = np.flatnonzero(is_e), np.flatnonzero(is_a)
        e_rank, a_rank = np.cumsum(is_e) - 1, np.cumsum(is_a) - 1
        n_e, n_a = len(e_local), len(a_local)

        self.e_ids, self.a_ids = cone.ids[e_local], cone.ids[a_local]
        self.e_orders = cone.orders[e_local]
        self.a_orders = cone.orders[a_local]
        g_e, g_a = e_rank[cone.g_src], a_rank[cone.g_dst]
        u_a, u_e = a_rank[cone.u_src], e_rank[cone.u_dst]
        self.gen = edges_to_csr(g_e, g_a, n_e)
        self.gen_rev = edges_to_csr(g_a, g_e, n_a)
        self.used = edges_to_csr(u_a, u_e, n_a)
        self.used_rev = edges_to_csr(u_e, u_a, n_e)
        self.ee, self.aa = _PairBits(n_e), _PairBits(n_a)
        self._e_rank = dict(zip(self.e_ids.tolist(), range(n_e)))
        self._a_rank = dict(zip(self.a_ids.tolist(), range(n_a)))

    def entity_ranks(self, vertex_ids: Iterable[int]) -> np.ndarray:
        """Ranks of those ``vertex_ids`` that are entities of the cone."""
        rank = self._e_rank
        return np.array([rank[v] for v in vertex_ids if v in rank],
                        dtype=np.int64)

    # Fact lookups by global id, for witness extraction.

    def has_entity_pair(self, x: int, y: int) -> bool:
        rank = self._e_rank
        return x in rank and y in rank \
            and self.ee.has_pair(rank[x], rank[y])

    def has_activity_pair(self, x: int, y: int) -> bool:
        rank = self._a_rank
        return x in rank and y in rank \
            and self.aa.has_pair(rank[x], rank[y])

    def users(self, entity: int) -> list[int]:
        """Cone activities that used ``entity`` (follow U^-1)."""
        row = self.used_rev.neighbors(self._e_rank[entity])
        return self.a_ids[row].tolist()

    def generated(self, activity: int) -> list[int]:
        """Cone entities generated by ``activity`` (follow G^-1)."""
        row = self.gen_rev.neighbors(self._a_rank[activity])
        return self.e_ids[row].tolist()


# ----------------------------------------------------------------------
# Per-element worklist (set_impl="bitset" / "roaring": the Cbm ablation)
# ----------------------------------------------------------------------


class _PairTable:
    """Canonical symmetric pair storage: ``min -> compressed set of max``."""

    __slots__ = ("impl", "capacity", "rows", "count")

    def __init__(self, impl: str, capacity: int):
        self.impl = impl
        self.capacity = capacity
        self.rows: dict[int, IntBitSet | RoaringBitmap] = {}
        self.count = 0

    def add(self, x: int, y: int) -> bool:
        """Insert the unordered pair {x, y}; True when new."""
        if x > y:
            x, y = y, x
        bucket = self.rows.get(x)
        if bucket is None:
            bucket = (IntBitSet if self.impl == "bitset"
                      else RoaringBitmap)(self.capacity)
            self.rows[x] = bucket
        if not bucket.add(y):
            return False
        self.count += 1
        return True

    def contains(self, x: int, y: int) -> bool:
        if x > y:
            x, y = y, x
        bucket = self.rows.get(x)
        return bucket is not None and y in bucket


class _WorklistFacts:
    """The per-element solve's tables behind :class:`_PairCone`'s lookups."""

    def __init__(self, h_ee: _PairTable, h_aa: _PairTable,
                 adj: ProvAdjacency):
        self.has_entity_pair = h_ee.contains
        self.has_activity_pair = h_aa.contains
        self.users = adj.user_acts.__getitem__
        self.generated = adj.gen_ents.__getitem__


class SimProvAlg:
    """``L(SimProv)``-reachability solver on the rewritten grammar.

    Args:
        graph: the provenance graph.
        src_ids: Vsrc entity ids.
        dst_ids: Vdst entity ids.
        vertex_ok / edge_ok: inline boundary predicates (Appendix C).
        set_impl: ``"set"`` (default, the array kernel), or ``"bitset"`` /
            ``"roaring"`` (the Cbm variant: the per-element worklist over
            compressed pair tables).
        prune: enable the early-stopping rule (a no-op unless the
            traversed ancestry is monotone).
        activity_key / entity_key: property-constrained similarity keys;
            the array kernel calls each once per cone vertex.
        adjacency: pre-built :class:`ProvAdjacency` to reuse across queries.
        snapshot: a :class:`repro.store.snapshot.GraphSnapshot`; when given
            (and no explicit ``adjacency``), the solver reads the
            snapshot's frozen CSR instead of rebuilding from the live store.
        max_steps / timeout_seconds: work/time budget.

    Raises:
        SegmentationError: if src/dst ids are not entities of the graph.
    """

    def __init__(self, graph: ProvenanceGraph,
                 src_ids: Iterable[int], dst_ids: Iterable[int], *,
                 vertex_ok: VertexPredicate | None = None,
                 edge_ok: EdgePredicate | None = None,
                 set_impl: str = "set",
                 prune: bool = True,
                 activity_key: KeyFunction | None = None,
                 entity_key: KeyFunction | None = None,
                 adjacency: ProvAdjacency | None = None,
                 snapshot=None,
                 max_steps: int | None = None,
                 timeout_seconds: float | None = None):
        if set_impl not in _SET_IMPLS:
            raise SolverError(f"set_impl must be one of {_SET_IMPLS}")
        self._graph = graph
        self._src = list(dict.fromkeys(src_ids))
        self._dst = list(dict.fromkeys(dst_ids))
        if not self._src or not self._dst:
            raise SegmentationError("Vsrc and Vdst must be non-empty")
        is_entity = graph.is_entity if snapshot is None else snapshot.is_entity
        for vertex_id in (*self._src, *self._dst):
            if not is_entity(vertex_id):
                raise SegmentationError(
                    f"query vertex {vertex_id} is not an entity"
                )
        self._set_impl = set_impl
        self._adj = solver_adjacency(graph, snapshot, adjacency, vertex_ok,
                                     edge_ok, as_arrays=set_impl == "set")
        self._prune = prune and self._adj.monotone
        self._activity_key = activity_key
        self._entity_key = entity_key
        self._max_steps = max_steps
        self._timeout = timeout_seconds
        # Facts of the most recent solve, kept for witness extraction.
        self._facts: _PairCone | _WorklistFacts | None = None
        self._dst_set: set[int] = set()

    # ------------------------------------------------------------------

    def solve(self, collect_vertices: bool = True) -> SimProvResult:
        """Run to fixpoint; returns answers (and path vertices unless disabled)."""
        # A solve that raises must not leave the previous query's tables
        # behind for witness_path.
        self._facts = None
        self._dst_set = set()
        adj = self._adj
        start_time = time.perf_counter()
        deadline = None if self._timeout is None else start_time + self._timeout
        result = SimProvResult(answer_pairs=set())

        src_set = {v for v in self._src if adj.is_live(v)}
        dst_live = [v for v in self._dst if adj.is_live(v)]
        # No surviving Vsrc entity: nothing can match, skip the fixpoint.
        if src_set and dst_live:
            run = (self._solve_arrays if self._set_impl == "set"
                   else self._solve_per_element)
            self._facts = run(src_set, dst_live, collect_vertices, result,
                              deadline)
            self._dst_set = set(dst_live)
        result.stats.seconds = time.perf_counter() - start_time
        return result

    def _spend(self, stats: SimProvStats, pops: int) -> None:
        """Charge ``pops`` worklist pops against the step budget."""
        stats.worklist_pops += pops
        if self._max_steps is not None and stats.worklist_pops > self._max_steps:
            raise QueryTimeout(
                f"SimProvAlg exceeded step budget ({self._max_steps})"
            )

    def _check(self, deadline: float | None) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise QueryTimeout(
                f"SimProvAlg exceeded time budget ({self._timeout}s)"
            )

    # ------------------------------------------------------------------
    # Array kernel (set_impl="set")
    # ------------------------------------------------------------------

    def _solve_arrays(self, src_set: set[int], dst_live: list[int],
                      collect_vertices: bool, result: SimProvResult,
                      deadline: float | None) -> _PairCone:
        stats = result.stats
        cone = _PairCone(self._adj, dst_live)
        ee, aa = cone.ee, cone.aa
        in_src = np.zeros(ee.n, dtype=bool)
        in_src[cone.entity_ranks(src_set)] = True
        activity_class = _classes(self._activity_key, cone.a_ids)
        entity_class = _classes(self._entity_key, cone.e_ids)
        old_a = old_e = None
        if self._prune:
            min_src_order = min(int(self._adj.orders[v]) for v in src_set)
            old_a = cone.a_orders < min_src_order
            old_e = cone.e_orders < min_src_order

        def derive(rows: CsrAdjacency, table: _PairBits, frontier: np.ndarray,
                   classes: np.ndarray | None, old: np.ndarray | None,
                   into: _PairBits) -> np.ndarray:
            """Codes of every pair the frontier derives, repeats included."""
            t1, t2 = _pairs_through(rows, *table.split(frontier))
            if classes is not None:
                same = classes[t1] == classes[t2]
                t1, t2 = t1[same], t2[same]
            if old is not None:
                stale = old[t1] & old[t2]
                pruned = int(np.count_nonzero(stale))
                if pruned:
                    stats.pruned += pruned
                    t1, t2 = t1[~stale], t2[~stale]
            return into.codes(t1, t2)

        seeds = cone.entity_ranks(dst_live)
        frontier = ee.admit(ee.codes(seeds, seeds))
        stats.facts_entity = frontier.size
        # An answer is a *derived* pair with a side in Vsrc. A pair is
        # derived when it is first inserted — except a seed, which is in
        # the table before any derivation reaches it; the seeds that could
        # be answers are looked for among each level's raw derivations.
        src_seeds = seeds[in_src[seeds]]
        seed_answers = ee.codes(src_seeds, src_seeds)
        answers: list[np.ndarray] = []

        def admit_entities(derived: np.ndarray) -> np.ndarray:
            if seed_answers.size:
                answers.append(derived[np.isin(derived, seed_answers)])
            new = ee.admit(derived)
            x, y = ee.split(new)
            answers.append(new[in_src[x] | in_src[y]])
            return new

        while frontier.size:
            # r'2:  Aa(a1, a2) <- G^-1(a1, x) Ee(x, y) G(y, a2)
            self._spend(stats, frontier.size)
            self._check(deadline)
            frontier = aa.admit(derive(cone.gen, ee, frontier,
                                       activity_class, old_a, aa))
            stats.facts_activity += frontier.size
            # r'1:  Ee(e1, e2) <- U^-1(e1, x) Aa(x, y) U(y, e2)
            self._spend(stats, frontier.size)
            self._check(deadline)
            frontier = admit_entities(derive(cone.used, aa, frontier,
                                             entity_class, old_e, ee))
            stats.facts_entity += frontier.size

        answer_codes = _distinct(np.concatenate(answers))
        x, y = ee.split(answer_codes)
        vx, vy = cone.e_ids[x], cone.e_ids[y]
        x_in, y_in = in_src[x], in_src[y]
        result.sources_matched.update(vx[x_in].tolist(), vy[y_in].tolist())
        result.similar_entities.update(vy[x_in].tolist(), vx[y_in].tolist())
        result.answer_pairs.update(zip(np.minimum(vx, vy).tolist(),
                                       np.maximum(vx, vy).tolist()))
        if collect_vertices:
            result.path_vertices = self._collect_arrays(cone, answer_codes,
                                                        deadline)
        return cone

    def _collect_arrays(self, cone: _PairCone, answers: np.ndarray,
                        deadline: float | None) -> set[int]:
        """Top-down derivation walk from the answer facts, level by level.

        Every fact reachable from an answer fact through genuine derivation
        steps corresponds to a sub-path of an accepted path; the union of
        the facts' components is exactly the accepted-path vertex set. One
        half-level is the forward expansion run through the reversed rows
        and kept where the forward table has the pair.
        """
        ee, aa = cone.ee, cone.aa
        walked_e, walked_a = _PairBits(ee.n), _PairBits(aa.n)
        on_e = np.zeros(ee.n, dtype=bool)
        on_a = np.zeros(aa.n, dtype=bool)

        def walk(pairs: np.ndarray, table: _PairBits, on: np.ndarray,
                 rows: CsrAdjacency, into: _PairBits,
                 walked: _PairBits) -> np.ndarray:
            """The facts of ``into`` that derive ``pairs``, not walked yet."""
            self._check(deadline)
            x, y = table.split(pairs)
            on[x] = True
            on[y] = True
            codes = into.codes(*_pairs_through(rows, x, y))
            return walked.admit(codes[into.has(codes)])

        pairs = walked_e.admit(answers)
        while pairs.size:
            # Ee(x, y) may be derived from Aa(a1, a2) with a1 ∈ users(x),
            # a2 ∈ users(y) — the inward (toward Vdst) decomposition.
            pairs = walk(pairs, ee, on_e, cone.used_rev, aa, walked_a)
            # Aa(x, y) is derived from Ee(e1, e2) with e1 generated by x,
            # e2 generated by y.
            pairs = walk(pairs, aa, on_a, cone.gen_rev, ee, walked_e)
        return {*cone.e_ids[on_e].tolist(), *cone.a_ids[on_a].tolist()}

    # ------------------------------------------------------------------
    # Per-element worklist (set_impl="bitset" / "roaring")
    # ------------------------------------------------------------------

    def _solve_per_element(self, src_set: set[int], dst_live: list[int],
                           collect_vertices: bool, result: SimProvResult,
                           deadline: float | None) -> _WorklistFacts:
        adj = self._adj
        stats = result.stats
        orders = adj.orders
        min_src_order = min(orders[v] for v in src_set)
        prune = self._prune

        h_ee = _PairTable(self._set_impl, adj.n)
        h_aa = _PairTable(self._set_impl, adj.n)
        worklist: deque[tuple[bool, int, int]] = deque()   # (is_entity_pair, x, y)

        answers = result.answer_pairs
        sources_matched = result.sources_matched
        similar = result.similar_entities

        gen_acts = adj.gen_acts
        used_ents = adj.used_ents
        a_key = self._activity_key
        e_key = self._entity_key

        for vj in dst_live:
            if h_ee.add(vj, vj):
                stats.facts_entity += 1
                worklist.append((True, vj, vj))

        while worklist:
            self._spend(stats, 1)
            if (stats.worklist_pops & 0xFF) == 0:
                self._check(deadline)
            is_entity_pair, x, y = worklist.popleft()
            if is_entity_pair:
                # r'2:  Aa(a1, a2) <- G^-1(a1, x) Ee(x, y) G(y, a2)
                gx = gen_acts[x]
                gy = gen_acts[y]
                for a1 in gx:
                    key1 = a_key(a1) if a_key is not None else None
                    for a2 in gy:
                        if a_key is not None and key1 != a_key(a2):
                            continue
                        if prune and orders[a1] < min_src_order \
                                and orders[a2] < min_src_order:
                            stats.pruned += 1
                            continue
                        if h_aa.add(a1, a2):
                            stats.facts_activity += 1
                            worklist.append(
                                (False, a1, a2) if a1 <= a2 else (False, a2, a1)
                            )
            else:
                # r'1:  Ee(e1, e2) <- U^-1(e1, x) Aa(x, y) U(y, e2)
                ux = used_ents[x]
                uy = used_ents[y]
                for e1 in ux:
                    key1 = e_key(e1) if e_key is not None else None
                    in_src1 = e1 in src_set
                    for e2 in uy:
                        if e_key is not None and key1 != e_key(e2):
                            continue
                        if prune and orders[e1] < min_src_order \
                                and orders[e2] < min_src_order:
                            stats.pruned += 1
                            continue
                        if h_ee.add(e1, e2):
                            stats.facts_entity += 1
                            worklist.append(
                                (True, e1, e2) if e1 <= e2 else (True, e2, e1)
                            )
                        # Answer check on every derivation (a previously seen
                        # fact may pair a new Vsrc side only once, but answer
                        # membership is a property of the pair, so checking on
                        # first insertion is enough; do it cheaply here).
                        if in_src1 or e2 in src_set:
                            pair = (e1, e2) if e1 <= e2 else (e2, e1)
                            if pair not in answers:
                                answers.add(pair)
                                if in_src1:
                                    sources_matched.add(e1)
                                    similar.add(e2)
                                if e2 in src_set:
                                    sources_matched.add(e2)
                                    similar.add(e1)

        if collect_vertices:
            result.path_vertices = self._collect_per_element(h_ee, h_aa,
                                                             answers)
        return _WorklistFacts(h_ee, h_aa, adj)

    def _collect_per_element(self, h_ee: _PairTable, h_aa: _PairTable,
                             answers: set[tuple[int, int]]) -> set[int]:
        """:meth:`_collect_arrays` as a per-fact depth-first walk."""
        adj = self._adj
        user_acts = adj.user_acts
        gen_ents = adj.gen_ents
        vertices: set[int] = set()
        visited_e: set[tuple[int, int]] = set()
        visited_a: set[tuple[int, int]] = set()
        stack: list[tuple[bool, int, int]] = []

        for pair in answers:
            if pair not in visited_e:
                visited_e.add(pair)
                stack.append((True, pair[0], pair[1]))

        while stack:
            is_entity_pair, x, y = stack.pop()
            vertices.add(x)
            vertices.add(y)
            if is_entity_pair:
                for a1 in user_acts[x]:
                    for a2 in user_acts[y]:
                        if h_aa.contains(a1, a2):
                            pair = (a1, a2) if a1 <= a2 else (a2, a1)
                            if pair not in visited_a:
                                visited_a.add(pair)
                                stack.append((False, pair[0], pair[1]))
            else:
                for e1 in gen_ents[x]:
                    for e2 in gen_ents[y]:
                        if h_ee.contains(e1, e2):
                            pair = (e1, e2) if e1 <= e2 else (e2, e1)
                            if pair not in visited_e:
                                visited_e.add(pair)
                                stack.append((True, pair[0], pair[1]))
        return vertices

    # ------------------------------------------------------------------
    # Witness paths
    # ------------------------------------------------------------------

    def witness_path(self, vi: int, vt: int) -> "Path | None":
        """A concrete accepted path realizing the answer ``Ee(vi, vt)``.

        Provenance queries "require returning paths instead of answering
        yes/no" (Sec. I); this reconstructs one palindrome path — climb from
        ``vi`` to some ``v_j ∈ Vdst``, descend to ``vt`` — from the fact
        tables of the most recent :meth:`solve`. Returns None when the pair
        is not an answer.

        When parallel edges exist between the same endpoints, any one of
        them may be chosen for a step.
        """
        if self._facts is None or not self._facts.has_entity_pair(vi, vt):
            return None
        chain = self._derivation_chain(vi, vt)
        if chain is None:
            return None
        from repro.model.types import EdgeType
        from repro.query.paths import Path, Step

        # chain[k] -> chain[k + 1] climbs U^-1 from an entity pair and
        # G^-1 from an activity pair; the descent mirrors it.
        ups, downs = [], []
        for level, ((x, y), (p, q)) in enumerate(zip(chain, chain[1:])):
            edge_type = (EdgeType.WAS_GENERATED_BY if level % 2
                         else EdgeType.USED)
            ups.append(Step(self._find_edge(p, x, edge_type), forward=False))
            downs.append(Step(self._find_edge(q, y, edge_type), forward=True))
        return Path(self._graph, vi, ups + downs[::-1])

    def _find_edge(self, src: int, dst: int, edge_type) -> int:
        for edge_id in self._graph.store.out_edge_ids(src, edge_type):
            if self._graph.store.edge(edge_id).dst == dst:
                return edge_id
        raise SolverError(
            f"no {edge_type.name} edge {src} -> {dst} (store changed "
            "since solve?)"
        )

    def _derivation_chain(self, vi: int,
                          vt: int) -> list[tuple[int, int]] | None:
        """Oriented fact pairs from ``Ee(vi, vt)`` down to a seed.

        ``[(vi, vt), (a1, a2), (e1, e2), ..., (v_j, v_j)]``: each pair is
        derived from the next. Depth-first over an explicit stack, children
        in adjacency order and the first complete chain returned, so a deep
        derivation cannot overflow the interpreter's stack; a fact is
        entered once, so a failed one is never retried.
        """
        facts = self._facts
        dst = self._dst_set
        a_key = self._activity_key
        e_key = self._entity_key

        def derivations(is_entity_pair: bool, x: int,
                        y: int) -> Iterator[tuple[int, int]]:
            if is_entity_pair:
                # Ee(x, y): U^-1 A [Aa] A U.
                for a1 in facts.users(x):
                    for a2 in facts.users(y):
                        if facts.has_activity_pair(a1, a2) and (
                                a_key is None or a_key(a1) == a_key(a2)):
                            yield a1, a2
                return
            # Aa(x, y): G^-1 (v_j | E Ee E) G — a shared destination first.
            gen_x, gen_y = facts.generated(x), facts.generated(y)
            shared = dst.intersection(gen_y)
            for vj in gen_x:
                if vj in shared:
                    yield vj, vj
            for e1 in gen_x:
                for e2 in gen_y:
                    if e1 == e2 and e1 in dst:
                        continue            # the seed itself, tried above
                    if facts.has_entity_pair(e1, e2) and (
                            e_key is None or e_key(e1) == e_key(e2)):
                        yield e1, e2

        entered = {(True, vi, vt)}
        stack = [((vi, vt), derivations(True, vi, vt))]
        while stack:
            is_entity_pair = len(stack) % 2 == 1
            pair = next(stack[-1][1], None)
            if pair is None:
                stack.pop()
            elif not is_entity_pair and pair[0] == pair[1] and pair[0] in dst:
                return [fact for fact, _ in stack] + [pair]
            elif (fact := (not is_entity_pair, *pair)) not in entered:
                entered.add(fact)
                stack.append((pair, derivations(*fact)))
        return None


def solve_simprov(graph: ProvenanceGraph, src_ids: Iterable[int],
                  dst_ids: Iterable[int], **kwargs) -> SimProvResult:
    """One-shot convenience wrapper around :class:`SimProvAlg`."""
    collect = kwargs.pop("collect_vertices", True)
    return SimProvAlg(graph, src_ids, dst_ids, **kwargs).solve(collect)
