"""Property tests for :class:`repro.store.sharding.ShardMap`.

Hypothesis pins the shard-assignment invariants the sharded serving
layer leans on (docs/architecture.md, "Sharding"):

- **total + in-range**: every vertex id maps to exactly one shard in
  ``[0, shards)``, in both modes;
- **deterministic**: the assignment is a pure function of the map
  record — two independently constructed maps with equal records agree
  on every vertex (the hash mode's pinned splitmix64 mixer, never
  Python's salted ``hash``);
- **persistence round-trip stable**: ``from_record(to_record())`` —
  including a real JSON round trip — assigns identically;
- **rebalance-minimal**: moving range cut points bumps the version and
  moves *only* vertices whose containing ordinal range changed.

Plus the error surface: malformed modes/boundaries/records must be
refused loudly at construction, never discovered mid-assignment.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.sharding import SHARD_MAP_FORMAT, ShardMap, _mix64

_VERTEX_IDS = st.integers(min_value=0, max_value=2**48)
_ORDINALS = st.integers(min_value=0, max_value=2**32)
_SHARDS = st.integers(min_value=1, max_value=12)


def _boundaries(shards):
    """Strictly increasing shards-1 cut points."""
    return st.lists(
        st.integers(min_value=0, max_value=2**32),
        min_size=shards - 1, max_size=shards - 1, unique=True,
    ).map(sorted).map(tuple)


_RANGE_MAPS = _SHARDS.flatmap(
    lambda n: _boundaries(n).map(
        lambda cuts: ShardMap(n, mode="range", boundaries=cuts)))


# ---------------------------------------------------------------------------
# Totality + determinism
# ---------------------------------------------------------------------------


@given(shards=_SHARDS, vertex_id=_VERTEX_IDS)
def test_hash_assignment_total_deterministic_in_range(shards, vertex_id):
    shard_map = ShardMap(shards)
    shard = shard_map.shard_of(vertex_id)
    assert 0 <= shard < shards
    # A second, independently constructed map agrees: assignment is a
    # pure function of the record, not of instance identity.
    assert ShardMap(shards).shard_of(vertex_id) == shard
    assert shard_map.shard_of(vertex_id) == shard


@given(shard_map=_RANGE_MAPS, order=_ORDINALS,
       vertex_id=_VERTEX_IDS)
def test_range_assignment_total_deterministic_in_range(
        shard_map, order, vertex_id):
    shard = shard_map.shard_of(vertex_id, order=order)
    assert 0 <= shard < shard_map.shards
    twin = ShardMap(shard_map.shards, mode="range",
                    boundaries=shard_map.boundaries)
    assert twin.shard_of(vertex_id, order=order) == shard
    # The assignment is exactly "count of boundaries <= order".
    assert shard == sum(1 for cut in shard_map.boundaries if cut <= order)
    lo, hi = shard_map.range_of(order)
    assert (lo is None or lo <= order) and (hi is None or order < hi)


def test_mix64_is_pinned():
    """The mixer is a constant of the format: cross-process stability is
    only real if these outputs can never drift."""
    assert _mix64(0) == 0
    assert _mix64(1) == 0x5692161D100B05E5
    assert _mix64(2) == 0xDBD238973A2B148A
    assert _mix64(2**63) == 0x25C26EA579CEA98A


# ---------------------------------------------------------------------------
# Persistence round trips
# ---------------------------------------------------------------------------


@given(shard_map=st.one_of(_SHARDS.map(ShardMap), _RANGE_MAPS),
       vertex_id=_VERTEX_IDS, order=_ORDINALS)
def test_record_round_trip_assigns_identically(shard_map, vertex_id, order):
    record = json.loads(json.dumps(shard_map.to_record()))
    revived = ShardMap.from_record(record)
    assert revived == shard_map
    assert revived.version == shard_map.version
    kwargs = {} if shard_map.mode == "hash" else {"order": order}
    assert revived.shard_of(vertex_id, **kwargs) \
        == shard_map.shard_of(vertex_id, **kwargs)


# ---------------------------------------------------------------------------
# Rebalance minimality
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(shards=st.integers(min_value=2, max_value=8),
       data=st.data())
def test_rebalance_moves_only_changed_ranges(shards, data):
    old = ShardMap(shards, mode="range",
                   boundaries=data.draw(_boundaries(shards)))
    new = old.rebalance(data.draw(_boundaries(shards)))
    assert new.version == old.version + 1
    assert new.shards == old.shards
    for order in data.draw(st.lists(_ORDINALS, min_size=1, max_size=30)):
        # A vertex keeps its shard unless a cut at or below its ordinal
        # moved (the shard index is the count of cuts <= order, so an
        # untouched prefix pins the assignment). When the prefix did
        # change, the vertex MAY move — the invariant is one-directional.
        if [c for c in old.boundaries if c <= order] \
                == [c for c in new.boundaries if c <= order]:
            assert old.shard_of(0, order=order) \
                == new.shard_of(0, order=order)


def test_rebalance_identity_moves_nothing():
    old = ShardMap(3, mode="range", boundaries=(10, 20))
    new = old.rebalance((10, 20))
    assert new.version == old.version + 1
    assert all(old.shard_of(0, order=o) == new.shard_of(0, order=o)
               for o in range(0, 40))


# ---------------------------------------------------------------------------
# Error surface
# ---------------------------------------------------------------------------


def test_construction_errors():
    with pytest.raises(ValueError, match=">= 1"):
        ShardMap(0)
    with pytest.raises(ValueError, match="mode"):
        ShardMap(2, mode="modulo")
    with pytest.raises(ValueError, match="shards-1 boundaries"):
        ShardMap(3, mode="range", boundaries=(5,))
    with pytest.raises(ValueError, match="strictly increasing"):
        ShardMap(3, mode="range", boundaries=(7, 7))
    with pytest.raises(ValueError, match="no boundaries"):
        ShardMap(2, mode="hash", boundaries=(5,))


def test_usage_errors():
    with pytest.raises(ValueError, match="ordinal"):
        ShardMap(2, mode="range", boundaries=(5,)).shard_of(1)
    with pytest.raises(ValueError, match="range mode"):
        ShardMap(2).range_of(3)
    with pytest.raises(ValueError, match="range-mode"):
        ShardMap(2).rebalance((5,))
    with pytest.raises(ValueError, match=SHARD_MAP_FORMAT):
        ShardMap.from_record({"format": "something-else", "shards": 2})
