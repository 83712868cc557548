"""Tier-1 guard for the performance ledger (ISSUE 11).

Runs all four workloads at ``--smoke`` size through the real command and
checks the contract between ``BENCHMARK.json``, ``spec.py`` and what a
run emits: every declared workload and metric is emitted with its unit
and nothing undeclared is; names and counts respect the benchmark
contract; no op failed; and no ``serve-worker`` process or scratch file
outlives the run. It asserts nothing about speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    sys.path.insert(0, str(REPO_ROOT))
    try:
        from benchmarks.ledger import spec
    finally:
        sys.path.remove(str(REPO_ROOT))
    return spec


def _ledger_workers() -> list[str]:
    """Command lines of live ``serve-worker`` processes using our scratch
    directory (``TMPDIR`` is exported to them by the run)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if b"serve-worker" in cmdline \
                and str(LEDGER_DIR / ".scratch").encode() in environ:
            found.append(cmdline.replace(b"\0", b" ").decode())
    return found


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke",
         "--seed", "5", "--json", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_contract_shape(contract):
    spec = _spec()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in contract["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in contract["end_to_end"]
    # BENCHMARK.json is the gated subset of spec.py, verbatim.
    assert [entry["name"] for entry in contract["workloads"]] \
        == list(spec.WORKLOADS)
    assert contract["end_to_end"] == [
        {"name": e.name, "unit": e.unit, "better": e.better,
         "bound": e.bound} for e in spec.GATED]
    assert contract["per_layer"] == [
        {"name": e.name, "unit": e.unit, "better": e.better}
        for e in spec.PER_LAYER]


def test_smoke_run_emits_exactly_what_is_declared(smoke_record):
    spec = _spec()
    [only_set] = smoke_record["sets"]
    assert list(only_set["workloads"]) == list(spec.WORKLOADS)
    for workload, record in only_set["workloads"].items():
        assert record["error"] is None, workload
        assert set(record["end_to_end"]) \
            == spec.expected_end_to_end(workload), workload
        assert set(record["per_layer"]) \
            == spec.expected_per_layer(workload), workload
        for section, table in (("end_to_end", spec.END_TO_END_BY_NAME),
                               ("per_layer", spec.PER_LAYER_BY_NAME)):
            for name, entry in record[section].items():
                assert entry["unit"] == table[name].unit, (workload, name)
                assert isinstance(entry["value"], (int, float))
        assert record["end_to_end"]["failed_share"]["value"] == 0
        for counts in record["counts"].values():
            assert counts["attempted"] >= 1 and counts["failed"] == 0
    assert not any(name.startswith("serve.") for name in
                   only_set["workloads"]["paper_ops"]["per_layer"])


def test_nothing_outlives_the_run(smoke_record):
    assert not (LEDGER_DIR / ".scratch").exists()
    assert _ledger_workers() == []


def test_driver_line_carries_exactly_the_gated_metrics(contract):
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke",
         "--workload", "paper_ops", "--seed", "5", "--seconds", "0.2",
         "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} \
        == {entry["name"]: entry["unit"]
            for entry in contract["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
