"""Labeled simulation preorders (Sec. IV.B).

``u ≤sin v`` ("u is in-simulate dominated by v") iff ``ρ(u) = ρ(v)`` and for
every parent ``p_u`` of ``u`` (via an edge labeled ℓ) there is a parent
``p_v`` of ``v`` via an ℓ-labeled edge with ``p_u ≤sin p_v``. ``≤sout`` is
the child-wise mirror. Simulation approximates trace equivalence from below
(Milo & Suciu [49]): ``u ≃sin v ⇒ u ≃tin v``, which is what makes merging by
Lemma 5 safe.

The preorder is the greatest fixpoint of that condition, so neither the
order in which nodes are examined nor a sound pre-contraction can change it;
both only change the work. :func:`solve_preorder` therefore

1. *contracts* nodes with equal refinement signatures ``(colour, {(edge
   label, neighbour colour)})`` (iterated to a stable colour count, so
   cycles are handled). Signature-equal nodes are bisimilar, hence mutually
   similar, hence interchangeable: the preorder of the quotient lifts to the
   input exactly. PgSum's segments are near-copies of one pipeline, so the
   quotient is typically about half the input.
2. *solves* the fixpoint on the quotient with candidate sets as Python-int
   bitmasks, visiting nodes in DFS post-order of the neighbours they must
   match and re-examining a node only after a matched neighbour's set
   shrank. A node's test is word-parallel: for each requirement ``(ℓ, p)``
   the mask of nodes with an ℓ-neighbour in ``sim(p)`` is built once (and
   dropped when ``sim(p)`` shrinks) and intersected. On acyclic input every
   neighbour is final before its dependants are examined, so one sweep
   suffices; index order needed one sweep per level.
3. *lifts* on demand. :class:`Preorder` keeps the contracted form, which is
   what PgSum consumes; :func:`simulation_preorder` materialises the n
   bitmasks of the original contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


@dataclass(slots=True)
class Preorder:
    """A simulation preorder in contracted form.

    Attributes:
        block_of: input node -> quotient block. Blocks are numbered by their
            smallest member, so singleton blocks make this the identity.
        members: block -> input nodes, ascending.
        sim: block -> bitmask over blocks; bit ``c`` of ``sim[b]`` is set iff
            every node of ``b`` is dominated by every node of ``c``.
        sweeps: passes over the quotient the fixpoint needed.
    """

    block_of: list[int]
    members: list[list[int]]
    sim: list[int]
    sweeps: int = 0

    def lift(self) -> list[int]:
        """The preorder as one bitmask per input node (reflexive)."""
        if len(self.members) == len(self.block_of):
            return list(self.sim)
        member_mask = [sum(1 << node for node in nodes)
                       for nodes in self.members]
        lifted = []
        for mask in self.sim:
            out = 0
            for block in _bits(mask):
                out |= member_mask[block]
            lifted.append(out)
        return [lifted[block] for block in self.block_of]

    def classes(self) -> list[list[int]]:
        """Mutual-similarity classes of the input nodes.

        Same contract as :func:`mutual_equivalence_classes` on the lifted
        masks: each class ascending, classes ordered by smallest member.
        """
        return [
            sorted(node for block in blocks for node in self.members[block])
            for blocks in mutual_equivalence_classes(self.sim)
        ]

    def merged(self) -> "Preorder":
        """The preorder of the graph with every mutual class merged.

        Quotienting by simulation equivalence preserves the preorder
        (``[u] ≤ [v]`` iff ``u ≤ v``), so it need not be solved again. Node
        ``j`` of the result is the ``j``-th class of :meth:`classes`.
        """
        block_classes = mutual_equivalence_classes(self.sim)
        rank = {blocks[0]: j for j, blocks in enumerate(block_classes)}
        sim = [
            sum(1 << rank[block] for block in _bits(self.sim[blocks[0]])
                if block in rank)
            for blocks in block_classes
        ]
        count = len(block_classes)
        return Preorder(list(range(count)), [[j] for j in range(count)], sim)


def _bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _contract(colour: list[int], needs: list[list[tuple[Hashable, int]]],
              ) -> list[int]:
    """Coarsest partition stable under ``(colour, {(label, nbr colour)})``.

    Each round's key contains the old colour, so rounds only split; an
    unchanged colour count means an unchanged partition. Colours are
    numbered by first occurrence in node order.
    """
    count = len(set(colour))
    while True:
        table: dict[tuple, int] = {}
        refined = [
            table.setdefault(
                (colour[u], frozenset([(label, colour[p])
                                       for label, p in needs[u]])),
                len(table))
            for u in range(len(colour))
        ]
        if len(table) == count:
            return refined
        colour, count = refined, len(table)


def _post_order(needs: list[list[tuple[Hashable, int]]]) -> list[int]:
    """DFS post-order: a node comes after the neighbours it must match."""
    n = len(needs)
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(needs[root]))]
        while stack:
            node, pending = stack[-1]
            for _label, nbr in pending:
                if not seen[nbr]:
                    seen[nbr] = 1
                    stack.append((nbr, iter(needs[nbr])))
                    break
            else:
                order.append(node)
                stack.pop()
    return order


def _fixpoint(labels: list[int], needs: list[list[tuple[Hashable, int]]],
              ) -> tuple[list[int], int]:
    """Greatest simulation on a (contracted) graph; returns (sim, sweeps)."""
    n = len(labels)
    # have[ℓ][p]: nodes with an ℓ-edge to p; dependants[p]: nodes needing p.
    have: dict[Hashable, list[int]] = {}
    dependants: list[list[int]] = [[] for _ in range(n)]
    for u, requirements in enumerate(needs):
        bit = 1 << u
        for label, p in requirements:
            row = have.get(label)
            if row is None:
                row = have[label] = [0] * n
            row[p] |= bit
            dependants[p].append(u)

    same_label: dict[int, int] = {}
    for u, label in enumerate(labels):
        same_label[label] = same_label.get(label, 0) | (1 << u)
    sim = [same_label[label] for label in labels]

    # able[(ℓ, p)]: nodes with an ℓ-neighbour in sim[p]; valid until sim[p]
    # shrinks.
    able: dict[tuple[Hashable, int], int] = {}
    order = _post_order(needs)
    dirty = bytearray(b"\x01") * n
    pending = n
    sweeps = 0
    while pending:
        sweeps += 1
        for u in order:
            if not dirty[u]:
                continue
            dirty[u] = 0
            pending -= 1
            keep = sim[u]
            for requirement in needs[u]:
                mask = able.get(requirement)
                if mask is None:
                    label, p = requirement
                    row = have[label]
                    mask = 0
                    for candidate in _bits(sim[p]):
                        mask |= row[candidate]
                    able[requirement] = mask
                keep &= mask
            if keep != sim[u]:
                sim[u] = keep
                for label in have:
                    able.pop((label, u), None)
                for w in dependants[u]:
                    if not dirty[w]:
                        dirty[w] = 1
                        pending += 1
    return sim, sweeps


def solve_preorder(labels: Sequence[Hashable],
                   edges: Iterable[tuple[int, int, Hashable]],
                   direction: str = "in") -> Preorder:
    """The maximal simulation preorder, left in contracted form.

    Args:
        labels: node index -> ρ label.
        edges: (src, dst, edge label) triples; parallel edges and repeated
            triples are allowed (simulation only asks whether an edge exists).
        direction: ``"in"`` (match parents) or ``"out"`` (match children).
    """
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    n = len(labels)
    needed: list[set[tuple[Hashable, int]]] = [set() for _ in range(n)]
    if direction == "in":
        for src, dst, label in edges:
            needed[dst].add((label, src))
    else:
        for src, dst, label in edges:
            needed[src].add((label, dst))
    needs = [list(requirements) for requirements in needed]

    label_ids: dict[Hashable, int] = {}
    colour = [label_ids.setdefault(label, len(label_ids)) for label in labels]
    block_of = _contract(colour, needs)

    members: list[list[int]] = []
    for node, block in enumerate(block_of):
        if block == len(members):
            members.append([])
        members[block].append(node)
    block_labels = [colour[nodes[0]] for nodes in members]
    block_needs = [
        list({(label, block_of[p]) for label, p in needs[nodes[0]]})
        for nodes in members
    ]
    sim, sweeps = _fixpoint(block_labels, block_needs)
    return Preorder(block_of, members, sim, sweeps)


def simulation_preorder(labels: Sequence[Hashable],
                        edges: Sequence[tuple[int, int, str]],
                        direction: str = "in") -> list[int]:
    """Compute the maximal simulation preorder.

    Args:
        labels: node index -> ρ label.
        edges: (src, dst, edge label) triples.
        direction: ``"in"`` (match parents) or ``"out"`` (match children).

    Returns:
        ``sim`` as a list of int bitmasks: bit ``v`` of ``sim[u]`` is set iff
        ``u ≤ v`` in the requested direction (reflexive by construction).
    """
    return solve_preorder(labels, edges, direction).lift()


def mutual_equivalence_classes(sim: Sequence[int]) -> list[list[int]]:
    """Partition nodes into mutual-simulation equivalence classes.

    ``u ≃ v`` iff ``u ≤ v`` and ``v ≤ u``; the relation is transitive, so the
    classes are well-defined.
    """
    n = len(sim)
    assigned = [False] * n
    classes: list[list[int]] = []
    for u in range(n):
        if assigned[u]:
            continue
        group = [u]
        assigned[u] = True
        for v in _bits(sim[u] & ~(1 << u)):
            if not assigned[v] and (sim[v] >> u) & 1:
                group.append(v)
                assigned[v] = True
        classes.append(sorted(group))
    return classes


def dominated_pairs(sim_in: Sequence[int], sim_out: Sequence[int],
                    ) -> list[tuple[int, int]]:
    """All ordered pairs ``(u, v)``, ``u ≠ v``, with ``u ≤sin v ∧ u ≤sout v``.

    These are the Lemma 5 condition-3 merge candidates (u merges into v).
    """
    return [
        (u, v)
        for u in range(len(sim_in))
        for v in _bits(sim_in[u] & sim_out[u] & ~(1 << u))
    ]
