"""A journal directory written before the completion log still recovers.

``tests/data/journal_v1/`` was written by the server code that kept the
whole job table in every snapshot: a version-1 ``{"seq", "state"}``
snapshot, a journal tail and no ``completed.jsonl``.  It was produced
with::

    trace = generate_trace(60, "finance", 0.7, 2, seed=5)
    config = ServeConfig(m=2, policy="drep", seed=5, multi_tenant=True,
                         window=50.0)
    sched = config.build_scheduler()
    with RequestJournal(directory, snapshot_every=16) as journal:
        for entry in ENTRIES[:40]:      # ENTRIES as built below
            journal.append(entry)
            apply_entry(sched, entry)
            journal.maybe_snapshot(sched)

Recovery must equal an uninterrupted run bit for bit, and the reopened
journal must move the directory onto the completion log as it cuts.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.serve.journal import (
    COMPLETED_NAME,
    SNAPSHOT_NAME,
    RequestJournal,
    apply_entry,
    read_completed,
    recover,
)
from repro.serve.server import ServeConfig
from repro.serve.snapshot import _encode_policy
from repro.workloads.traces import generate_trace

DATA = Path(__file__).resolve().parents[1] / "data" / "journal_v1"
CONFIG = ServeConfig(m=2, policy="drep", seed=5, multi_tenant=True, window=50.0)
WRITTEN = 40


def _entries() -> list[dict]:
    return [
        {
            "op": "submit",
            "work": spec.work,
            "span": spec.span,
            "mode": spec.mode.value,
            "weight": spec.weight,
            "release": spec.release,
            "tenant": "abc"[i % 3],
        }
        for i, spec in enumerate(generate_trace(60, "finance", 0.7, 2, seed=5).jobs)
    ]


ENTRIES = _entries()


def _reference(n: int):
    sched = CONFIG.build_scheduler()
    for entry in ENTRIES[:n]:
        apply_entry(sched, entry)
    return sched


def _same(a, b) -> None:
    """Engine, policy RNG, admission, tenants and windowed stats agree.

    The metrics deque itself is not compared: version-1 snapshots carry
    the unpruned window, which reads the same but holds more entries.
    """
    assert json.dumps(a.stepper.state_dict()) == json.dumps(b.stepper.state_dict())
    assert json.dumps(_encode_policy(a.policy)) == json.dumps(_encode_policy(b.policy))
    assert json.dumps(a.admission.state_dict(), sort_keys=True) == json.dumps(
        b.admission.state_dict(), sort_keys=True
    )
    assert a.tenant_labels == b.tenant_labels
    assert json.dumps(a.stats(), sort_keys=True) == json.dumps(
        b.stats(), sort_keys=True
    )


@pytest.fixture
def directory(tmp_path) -> Path:
    target = tmp_path / "journal"
    shutil.copytree(DATA, target)
    return target


def test_fixture_is_a_version_1_directory():
    snap = json.loads((DATA / SNAPSHOT_NAME).read_text())
    assert set(snap) == {"seq", "state"}
    assert snap["state"]["version"] == 1
    engine = snap["state"]["engine"]
    assert 0 < engine["completed"] < len(engine["jobs"])
    assert not (DATA / COMPLETED_NAME).exists()


def test_version_1_directory_recovers_bit_for_bit(directory):
    recovered, seq, replayed = recover(directory)
    assert (seq, replayed) == (WRITTEN, WRITTEN - 32)
    _same(recovered, _reference(WRITTEN))


def test_reopened_version_1_directory_moves_to_the_completion_log(directory):
    recovered, _, _ = recover(directory)
    with RequestJournal(directory, snapshot_every=8) as journal:
        for entry in ENTRIES[WRITTEN:]:
            journal.append(entry)
            apply_entry(recovered, entry)
            journal.maybe_snapshot(recovered)
    final, seq, _ = recover(directory)
    assert seq == len(ENTRIES)
    full = _reference(len(ENTRIES))
    _same(final, full)
    snap = json.loads((directory / SNAPSHOT_NAME).read_text())
    assert snap["state"]["version"] == 2
    rows = read_completed(directory, snap["settled"])
    assert [r["job_id"] for r in rows] == [
        j for j, _ in full.stepper.completion_log[: snap["settled"]]
    ]
    assert final.drain().flow_times.tolist() == full.drain().flow_times.tolist()
