"""Shared fixtures for the test suite.

The paper's Fig. 2/3 running example and the random lifecycle graphs are
built here once, not inline in test modules: `paper` / `paper_copy` for the
worked example, `team_medium` for a medium random team lifecycle, and
`pd_small` / `pd_medium` for generated Pd graphs. Session-scoped fixtures
are read-only by contract — tests that mutate must use the function-scoped
ones (or build their own copy). One autouse guard fails the run if a
checkpoint directory it created outlives it.
"""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path

import pytest

from repro.model.graph import ProvenanceGraph
from repro.workloads.lifecycle import (
    PaperExample,
    TeamProject,
    build_paper_example,
    generate_team_project,
)
from repro.workloads.pd_generator import PdInstance, generate_pd_sized


def _checkpoint_dirs() -> set[Path]:
    root = Path(tempfile.gettempdir())
    return {path for pattern in ("repro-ckpt-*", "repro-shard-boot-*")
            for path in root.glob(pattern)}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_checkpoint_dirs():
    """Every replication log, pool and cluster deletes the checkpoint
    directory it wrote — in-process clusters included — by close() or,
    unreferenced, by garbage collection. Checked once, at session end."""
    before = _checkpoint_dirs()
    yield
    gc.collect()
    leaked = sorted(str(path) for path in _checkpoint_dirs() - before)
    if leaked:
        pytest.fail(f"checkpoint directories outlived the run: {leaked}")


@pytest.fixture()
def paper() -> PaperExample:
    """The Fig. 2 running example (fresh copy per test)."""
    return build_paper_example()


@pytest.fixture()
def paper_copy() -> PaperExample:
    """A second, independent Fig. 2 build (for cross-graph comparisons)."""
    return build_paper_example()


@pytest.fixture(scope="session")
def team_medium() -> TeamProject:
    """A medium random team lifecycle (3 members x 10 iterations).

    Shared across the suite; treat as read-only.
    """
    return generate_team_project(members=3, iterations=10, seed=21)


@pytest.fixture(scope="session")
def paper_session() -> PaperExample:
    """The Fig. 2 running example (shared, read-only)."""
    return build_paper_example()


@pytest.fixture(scope="session")
def pd_small() -> PdInstance:
    """A small Pd graph shared by read-only tests."""
    return generate_pd_sized(120, seed=11)


@pytest.fixture(scope="session")
def pd_medium() -> PdInstance:
    """A medium Pd graph shared by read-only tests."""
    return generate_pd_sized(600, seed=11)


@pytest.fixture()
def tiny_chain() -> ProvenanceGraph:
    """e0 <-used- a0 <-gen- e1 <-used- a1 <-gen- e2 (a two-step pipeline).

    Edge directions follow PROV: a0 used e0; e1 wasGeneratedBy a0; etc.
    """
    g = ProvenanceGraph()
    e0 = g.add_entity(name="e0")
    a0 = g.add_activity(command="step0")
    g.used(a0, e0)
    e1 = g.add_entity(name="e1")
    g.was_generated_by(e1, a0)
    a1 = g.add_activity(command="step1")
    g.used(a1, e1)
    e2 = g.add_entity(name="e2")
    g.was_generated_by(e2, a1)
    return g
