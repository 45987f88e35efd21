"""The journal cut at each of its I/O boundaries, and the state it keeps.

A cut appends the rows of newly completed jobs to ``completed.jsonl``,
renames a live-state ``snapshot.json`` into place and truncates the
journal.  Here a journaled workload is interrupted at the third cut:

* after the rows are appended, before the rename;
* after the rename, before the journal truncate;
* halfway through the row append (a torn final row).

Each boundary is hit twice: the process is SIGKILLed there, or the I/O
call raises ``OSError``.  Recovery must then equal an uninterrupted run
bit for bit (the whole self-contained snapshot, which carries the engine
state, policy RNG, admission and metrics), and a reopened journal must
keep cutting to the same final state.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import snapshot as snapshot_mod
from repro.serve import journal as journal_mod
from repro.serve.journal import (
    COMPLETED_NAME,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    RequestJournal,
    apply_entry,
    read_completed,
    read_journal,
    recover,
)
from repro.serve.server import ServeConfig
from repro.serve.snapshot import snapshot_scheduler
from repro.workloads.traces import generate_trace

REPO = Path(__file__).resolve().parents[2]
CONFIG = ServeConfig(m=2, policy="drep", seed=11, multi_tenant=True, window=40.0)
EVERY = 16
FAULT_CUT = 3
#: entries applied when the third automatic cut starts
PREFIX = EVERY * FAULT_CUT
BOUNDARIES = ("before_rename", "after_rename", "torn_row")


def _entries() -> list[dict]:
    jobs = generate_trace(90, "finance", 0.7, 2, seed=11).jobs
    out = []
    for i, spec in enumerate(jobs):
        out.append(
            {
                "op": "submit",
                "work": spec.work,
                "span": spec.span,
                "mode": spec.mode.value,
                "weight": spec.weight,
                "release": spec.release,
                "tenant": "abc"[i % 3],
            }
        )
        if i % 10 == 9 and i + 1 < len(jobs):
            out.append(
                {"op": "advance", "to": (spec.release + jobs[i + 1].release) / 2}
            )
    return out


ENTRIES = _entries()


def _drive(journal: RequestJournal, sched, entries) -> None:
    """What the server does per mutating request: log, apply, maybe cut."""
    for entry in entries:
        journal.append(entry)
        apply_entry(sched, entry)
        journal.maybe_snapshot(sched)


def _reference(n: int):
    sched = CONFIG.build_scheduler()
    for entry in ENTRIES[:n]:
        apply_entry(sched, entry)
    return sched


def _state(sched) -> str:
    return json.dumps(snapshot_scheduler(sched), sort_keys=True)


class _Fault:
    """Fires once at ``boundary`` of the ``FAULT_CUT``-th cut.

    Firing SIGKILLs the process (``kill=True``) or raises ``OSError``.
    The cut count comes from wrapping the module-level encoder, which
    every cut looks up at call time; the I/O calls are intercepted by
    handing the journal proxied file objects and patching ``Path.replace``
    and ``os.fsync``.
    """

    def __init__(self, boundary: str, kill: bool) -> None:
        self.boundary = boundary
        self.kill = kill
        self.cuts = 0
        self.fired = False
        self.rows_fd = -1

    def due(self, boundary: str) -> bool:
        return (
            boundary == self.boundary
            and self.cuts == FAULT_CUT
            and not self.fired
        )

    def fire(self) -> None:
        self.fired = True
        if self.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError(errno.EIO, f"injected failure {self.boundary}")

    def install(self, patch) -> None:
        """Install the hooks with ``patch(obj, name, value)``."""
        fault = self
        encode = snapshot_mod.snapshot_scheduler
        real_replace = Path.replace
        real_fsync = os.fsync

        def counted(*args, **kwargs):
            fault.cuts += 1
            return encode(*args, **kwargs)

        def replace(path, target):
            if Path(target).name == SNAPSHOT_NAME and fault.due("before_rename"):
                fault.fire()
            return real_replace(path, target)

        def fsync(fd):
            if fd == fault.rows_fd and fault.due("rows_fsync"):
                fault.fire()
            return real_fsync(fd)

        def open_(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if Path(path).name in (COMPLETED_NAME, JOURNAL_NAME):
                return _Proxy(fh, Path(path).name, fault)
            return fh

        patch(snapshot_mod, "snapshot_scheduler", counted)
        patch(Path, "replace", replace)
        patch(os, "fsync", fsync)
        patch(journal_mod, "open", open_)


class _Proxy:
    """A journal file whose write / truncate can fail mid-cut."""

    def __init__(self, fh, name: str, fault: _Fault) -> None:
        self._fh = fh
        self._name = name
        self._fault = fault
        if name == COMPLETED_NAME:
            fault.rows_fd = fh.fileno()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def write(self, data):
        if self._name == COMPLETED_NAME and self._fault.due("torn_row"):
            assert data, "the faulted cut must have rows to tear"
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            self._fault.fire()
        return self._fh.write(data)

    def truncate(self, size=None):
        if self._name == JOURNAL_NAME and self._fault.due("after_rename"):
            self._fault.fire()
        return self._fh.truncate(size)


def _child(directory: str, boundary: str) -> None:
    """Run the journaled workload until SIGKILLed at ``boundary``."""
    _Fault(boundary, kill=True).install(setattr)
    sched = CONFIG.build_scheduler()
    with RequestJournal(directory, snapshot_every=EVERY) as journal:
        _drive(journal, sched, ENTRIES)
    raise SystemExit("the fault never fired")


def _check_boundary(directory: Path, boundary: str) -> None:
    """The directory really was left at ``boundary``."""
    snap = json.loads((directory / SNAPSHOT_NAME).read_text())
    rows = (directory / COMPLETED_NAME).read_bytes()
    if boundary in ("before_rename", "rows_fsync"):
        assert rows.endswith(b"\n")
        assert rows.count(b"\n") > snap["settled"]
    elif boundary == "after_rename":
        assert rows.count(b"\n") == snap["settled"]
        assert read_journal(directory)[-1]["seq"] == snap["seq"] == PREFIX
    else:
        assert not rows.endswith(b"\n")


def _recover_and_continue(directory: Path) -> None:
    """Recovery equals the uninterrupted prefix; a reopened journal keeps
    cutting; the final recovery equals the uninterrupted full run."""
    recovered, seq, _ = recover(directory, build_empty=CONFIG.build_scheduler)
    assert seq == PREFIX
    assert _state(recovered) == _state(_reference(PREFIX))
    with RequestJournal(directory, snapshot_every=EVERY) as journal:
        _drive(journal, recovered, ENTRIES[PREFIX:])
    final, seq, _ = recover(directory, build_empty=CONFIG.build_scheduler)
    assert seq == len(ENTRIES)
    full = _reference(len(ENTRIES))
    assert _state(final) == _state(full)
    assert final.drain().flow_times.tolist() == full.drain().flow_times.tolist()
    # every settled completion is in the log exactly once, in order
    snap = json.loads((directory / SNAPSHOT_NAME).read_text())
    rows = read_completed(directory, snap["settled"])
    assert (directory / COMPLETED_NAME).read_bytes().count(b"\n") == len(rows)
    assert [r["job_id"] for r in rows] == [
        j for j, _ in full.stepper.completion_log[: len(rows)]
    ]


@pytest.mark.slow
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_sigkill_at_cut_boundary_recovers_bit_exact(tmp_path, boundary):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from tests.serve.test_journal_cut import _child; "
            "_child(sys.argv[1], sys.argv[2])",
            str(tmp_path),
            boundary,
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    _check_boundary(tmp_path, boundary)
    _recover_and_continue(tmp_path)


@pytest.mark.parametrize("boundary", (*BOUNDARIES, "rows_fsync"))
def test_oserror_at_cut_boundary_recovers_bit_exact(
    tmp_path, monkeypatch, boundary
):
    with monkeypatch.context() as mp:
        _Fault(boundary, kill=False).install(
            lambda obj, name, value: mp.setattr(obj, name, value, raising=False)
        )
        sched = CONFIG.build_scheduler()
        journal = RequestJournal(
            tmp_path, snapshot_every=EVERY, fsync=boundary == "rows_fsync"
        )
        with pytest.raises(OSError, match="injected"):
            _drive(journal, sched, ENTRIES)
        journal.close()
    _check_boundary(tmp_path, boundary)
    _recover_and_continue(tmp_path)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_journal_keeps_cutting_after_a_failed_cut(
    tmp_path, monkeypatch, boundary
):
    """A transient I/O error: the same journal object cuts on, and the
    partial rows of the failed cut never reach the log."""
    sched = CONFIG.build_scheduler()
    with monkeypatch.context() as mp:
        _Fault(boundary, kill=False).install(
            lambda obj, name, value: mp.setattr(obj, name, value, raising=False)
        )
        journal = RequestJournal(tmp_path, snapshot_every=EVERY)
        with pytest.raises(OSError, match="injected"):
            _drive(journal, sched, ENTRIES)
    with journal:
        _drive(journal, sched, ENTRIES[PREFIX:])
        journal.mark_snapshot(sched)
    final, seq, replayed = recover(tmp_path)
    assert (seq, replayed) == (len(ENTRIES), 0)
    full = _reference(len(ENTRIES))
    assert _state(final) == _state(full)
    rows = read_completed(tmp_path, full.n_completed)
    assert [r["job_id"] for r in rows] == [
        j for j, _ in full.stepper.completion_log
    ]
    assert (tmp_path / COMPLETED_NAME).read_bytes().count(b"\n") == len(rows)


class TestLayout:
    def test_snapshot_holds_only_live_state(self, tmp_path):
        sched = CONFIG.build_scheduler()
        with RequestJournal(tmp_path, snapshot_every=EVERY) as journal:
            _drive(journal, sched, ENTRIES)
            path = journal.mark_snapshot(sched)
        snap = json.loads(path.read_text())
        engine = snap["state"]["engine"]
        assert snap["settled"] == sched.n_completed > 0
        assert engine["done"] == []
        live = [r["job_id"] for r in engine["live"]]
        assert live == sorted(live)
        assert len(live) == sched.stepper.n_active + sched.stepper.n_pending
        assert "tenant_of" not in snap["state"]
        rows = read_completed(tmp_path, snap["settled"])
        assert {r["tenant"] for r in rows} == {"a", "b", "c"}
        assert set(rows[0]) == {
            "job_id", "finish", "release", "work", "span", "mode", "weight",
            "rem", "flow", "tenant",
        }

    def test_reopen_drops_rows_past_settled(self, tmp_path):
        sched = CONFIG.build_scheduler()
        with RequestJournal(tmp_path, snapshot_every=EVERY) as journal:
            _drive(journal, sched, ENTRIES[:PREFIX])
        good = (tmp_path / COMPLETED_NAME).read_bytes()
        with open(tmp_path / COMPLETED_NAME, "ab") as fh:
            fh.write(b'{"job_id": 999, "finish": 1.0}\n{"job_id": 10')
        RequestJournal(tmp_path).close()
        assert (tmp_path / COMPLETED_NAME).read_bytes() == good

    def test_missing_settled_rows_raise(self, tmp_path):
        sched = CONFIG.build_scheduler()
        with RequestJournal(tmp_path, snapshot_every=EVERY) as journal:
            _drive(journal, sched, ENTRIES[:PREFIX])
        rows = (tmp_path / COMPLETED_NAME).read_bytes()
        (tmp_path / COMPLETED_NAME).write_bytes(rows[: len(rows) // 2])
        with pytest.raises(journal_mod.JournalError, match="settled"):
            recover(tmp_path)
        with pytest.raises(journal_mod.JournalError, match="settled"):
            RequestJournal(tmp_path)

    def test_corrupt_settled_row_raises(self, tmp_path):
        sched = CONFIG.build_scheduler()
        with RequestJournal(tmp_path, snapshot_every=EVERY) as journal:
            _drive(journal, sched, ENTRIES[:PREFIX])
        rows = (tmp_path / COMPLETED_NAME).read_bytes()
        (tmp_path / COMPLETED_NAME).write_bytes(b"NOT JSON" + rows[rows.index(b"\n"):])
        with pytest.raises(journal_mod.JournalError, match="corrupt completion"):
            recover(tmp_path)


def test_snapshot_bytes_stay_flat_as_jobs_are_served(tmp_path):
    """A cut costs live state, not history: 8k served jobs vs 1k."""
    sched = ServeConfig(m=8, policy="drep", seed=0).build_scheduler()
    sizes = {}
    with RequestJournal(tmp_path, snapshot_every=256) as journal:
        jobs = generate_trace(8000, "finance", 0.7, 8, seed=0).jobs
        for served, spec in enumerate(jobs, 1):
            entry = {
                "op": "submit",
                "work": spec.work,
                "span": spec.span,
                "mode": spec.mode.value,
                "weight": spec.weight,
                "release": spec.release,
            }
            _drive(journal, sched, [entry])
            if served in (1000, 8000):
                sizes[served] = journal.mark_snapshot(sched).stat().st_size
    assert sched.n_completed > 7900
    assert sizes[8000] <= 1.25 * sizes[1000], sizes
