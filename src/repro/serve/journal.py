"""Write-ahead request journal + periodic snapshots for the server.

Crash safety for :class:`~repro.serve.server.SchedulerServer` rests on
three files inside one journal directory:

* ``journal.jsonl`` — every state-mutating request (``submit``,
  ``advance``, ``drain``), one JSON object per line, appended *after*
  validation but *before* the engine applies it (write-ahead);
* ``completed.jsonl`` — an append-only log with one row per completed
  job, in completion order (id, finish time, spec, final remaining work
  and flow, tenant label).  Each finished job is written exactly once;
* ``snapshot.json`` — ``{"seq", "settled", "state"}``: the live
  scheduler state (:func:`~repro.serve.snapshot.snapshot_scheduler` with
  ``settled=k``), tagged with the journal sequence number it covers and
  the number ``k`` of ``completed.jsonl`` rows it builds on.

Recovery (:func:`recover`) reads the first ``settled`` completion rows,
restores the snapshot on top of them, then replays every journal entry
with a later sequence number through :func:`apply_entry` — which mirrors
the server's own dispatch exactly (advance the trace clock to the
submission's resolved release, then submit).  Because the engine, policy
RNG and admission estimator are all deterministic given the request
sequence, a recovered scheduler is *bit-for-bit* identical to one that
was never killed; the crash-recovery tests assert exactly that on
per-job flow times and the full engine state.

Entries journal the **resolved** request — releases are concrete floats,
never "now" — so replay does not depend on any clock.  A torn final line
(the append that was racing the crash) is tolerated and dropped; any
earlier corruption raises :class:`JournalError` because silently
skipping interior entries would desynchronize the replayed trajectory.

Snapshots are cut automatically every ``snapshot_every`` appended
entries.  A cut (1) appends the rows of the jobs completed since the
last cut to ``completed.jsonl``, (2) writes ``snapshot.json`` atomically
(tmp file + rename), (3) truncates the journal and (4) remembers the
new row count.  So a cut costs O(live + newly completed jobs), not
O(jobs ever served).  Rows past ``settled`` can only come from a cut
that died before its rename; reopening the directory truncates them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.flowsim.engine import FlowSimError
from repro.serve.online import OnlineScheduler

__all__ = [
    "JournalError",
    "RequestJournal",
    "apply_entry",
    "read_completed",
    "read_journal",
    "recover",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
COMPLETED_NAME = "completed.jsonl"

_MUTATING_OPS = ("submit", "advance", "drain")


class JournalError(RuntimeError):
    """Raised when the journal directory cannot be read back consistently."""


class RequestJournal:
    """Append-only write-ahead log with automatic snapshot rotation.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Holds ``journal.jsonl``,
        ``completed.jsonl`` and ``snapshot.json``.
    snapshot_every:
        Cut a snapshot (and truncate the journal) after this many
        appended entries; ``0`` disables automatic snapshots.
    fsync:
        When true, ``fsync`` after every append and every cut — survives
        power loss, not just process death, at a large throughput cost.
        The default ``flush`` survives any crash of the serving process
        itself.
    """

    def __init__(
        self,
        directory: str | Path,
        snapshot_every: int = 0,
        fsync: bool = False,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = int(snapshot_every)
        self.fsync = bool(fsync)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.completed_path = self.directory / COMPLETED_NAME
        snap = _load_snapshot(self.directory)
        seq = 0 if snap is None else int(snap["seq"])
        for entry in read_journal(self.directory):
            seq = max(seq, int(entry["seq"]))
        self._seq = seq
        self._since_snapshot = _count_entries(self.journal_path)
        #: completion-log rows the current snapshot builds on, and the
        #: byte length they span in completed.jsonl
        self._settled = 0 if snap is None else int(snap.get("settled", 0))
        self._settled_bytes = sum(
            len(line) + 1
            for line in _settled_lines(self.completed_path, self._settled)
        )
        self._fh = open(self.journal_path, "a", encoding="utf-8")
        # rows past the settled prefix come from a cut that died before
        # its rename: no snapshot refers to them
        self._done_fh = open(self.completed_path, "ab")
        self._done_fh.truncate(self._settled_bytes)

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended entry."""
        return self._seq

    def append(self, entry: dict) -> int:
        """Durably record one resolved request; returns its sequence number."""
        self._seq += 1
        record = {"seq": self._seq, **entry}
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._since_snapshot += 1
        return self._seq

    def maybe_snapshot(self, scheduler: OnlineScheduler) -> bool:
        """Cut a snapshot if ``snapshot_every`` entries have accumulated."""
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.mark_snapshot(scheduler)
            return True
        return False

    def mark_snapshot(self, scheduler: OnlineScheduler) -> Path:
        """Checkpoint ``scheduler`` now and truncate the journal.

        The rows of jobs completed since the last cut are appended to
        ``completed.jsonl`` first, then the live state lands atomically
        (tmp + rename), and only then does the journal shrink.  A crash
        before the rename leaves the previous snapshot in charge (it
        ignores the extra rows); a crash between rename and truncate
        merely replays entries the snapshot already covers — replay is
        idempotent because recovery skips entries with
        ``seq <= snapshot.seq``.
        """
        # looked up per call, so a wrapper installed on the module
        # (e.g. a profiler's) sees every cut
        from repro.serve import snapshot

        state = snapshot.snapshot_scheduler(scheduler, settled=self._settled)
        done = state["engine"]["done"]
        state["engine"]["done"] = []
        settled = self._settled + len(done)
        rows = "".join(json.dumps(row) + "\n" for row in done).encode()
        # a cut that failed mid-append may have left a partial tail
        self._done_fh.truncate(self._settled_bytes)
        self._done_fh.write(rows)
        self._done_fh.flush()
        if self.fsync:
            os.fsync(self._done_fh.fileno())
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"seq": self._seq, "settled": settled, "state": state})
        )
        if self.fsync:
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
        tmp.replace(self.snapshot_path)
        # the rename committed the rows: record that before anything
        # else can fail
        self._settled = settled
        self._settled_bytes += len(rows)
        self._fh.truncate(0)
        self._fh.seek(0)
        self._since_snapshot = 0
        return self.snapshot_path

    def close(self) -> None:
        for fh in (self._fh, self._done_fh):
            if not fh.closed:
                fh.flush()
                fh.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- replay ----------------------------------------------------------------


def apply_entry(scheduler: OnlineScheduler, entry: dict) -> None:
    """Replay one journaled request, mirroring the server's dispatch.

    ``submit`` advances the clock to the entry's resolved release first —
    exactly what the server's trace-clock submit does — then re-runs
    admission + engine submission.  Deterministic failures (e.g. an entry
    that also failed live) re-raise; the caller decides whether to skip.
    """
    op = entry.get("op")
    if op == "submit":
        release = float(entry["release"])
        scheduler.advance_to(release)
        scheduler.submit(
            work=float(entry["work"]),
            span=entry.get("span"),
            mode=entry.get("mode", "sequential"),
            weight=float(entry.get("weight", 1.0)),
            release=release,
            tenant=entry.get("tenant"),
        )
    elif op == "advance":
        scheduler.advance_to(float(entry["to"]))
    elif op == "drain":
        scheduler.drain()
    else:
        raise JournalError(f"unknown journaled op {op!r}")


def read_journal(directory: str | Path) -> list[dict]:
    """Parse ``journal.jsonl``, tolerating only a torn *final* line."""
    path = Path(directory) / JOURNAL_NAME
    if not path.exists():
        return []
    entries: list[dict] = []
    raw_lines = path.read_bytes().split(b"\n")
    # a trailing "" after the final newline is normal, not a torn line
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    for i, raw in enumerate(raw_lines):
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or "seq" not in entry:
                raise ValueError("journal entry must be an object with a seq")
        except (ValueError, UnicodeDecodeError) as exc:
            if i == len(raw_lines) - 1:
                break  # torn tail: the append that was racing the crash
            raise JournalError(
                f"corrupt journal entry at line {i + 1}: {exc}"
            ) from exc
        entries.append(entry)
    return entries


def read_completed(directory: str | Path, settled: int) -> list[dict]:
    """The first ``settled`` rows of ``completed.jsonl``, in order.

    Raises :class:`JournalError` when fewer complete rows exist or they
    do not parse — a snapshot never refers to rows that were not flushed
    before its rename.
    """
    lines = _settled_lines(Path(directory) / COMPLETED_NAME, settled)
    try:
        # one parse for the whole prefix; rows hold no raw newlines
        rows = json.loads(b"[" + b",".join(lines) + b"]")
    except (ValueError, UnicodeDecodeError) as exc:
        raise JournalError(f"corrupt completion rows: {exc}") from exc
    if len(rows) != settled:
        raise JournalError(
            f"{settled} completion lines parsed to {len(rows)} rows"
        )
    return rows


def recover(
    directory: str | Path,
    build_empty=None,
) -> tuple[OnlineScheduler | None, int, int]:
    """Rebuild a scheduler from snapshot + completion rows + journal replay.

    Returns ``(scheduler, last_seq, n_replayed)``.  ``scheduler`` is
    ``None`` when the directory holds neither a snapshot nor journal
    entries *and* no ``build_empty`` factory was given; with a factory,
    journal-only recovery replays onto a fresh scheduler.
    """
    from repro.serve.snapshot import restore_scheduler

    directory = Path(directory)
    scheduler: OnlineScheduler | None = None
    base_seq = 0
    snap = _load_snapshot(directory)
    if snap is not None:
        # a snapshot written before the completion log has no "settled"
        settled = int(snap.get("settled", 0))
        rows = read_completed(directory, settled)
        scheduler = restore_scheduler(snap["state"], rows)
        base_seq = int(snap["seq"])
    entries = [e for e in read_journal(directory) if e["seq"] > base_seq]
    if scheduler is None:
        if not entries and build_empty is None:
            return None, base_seq, 0
        if build_empty is None:
            raise JournalError(
                f"{directory} has journal entries but no snapshot and no "
                "way to build an empty scheduler to replay onto"
            )
        scheduler = build_empty()
    replayed = 0
    last_seq = base_seq
    for entry in entries:
        if entry["seq"] <= last_seq:
            continue  # duplicate append from a crash mid-rotation
        try:
            apply_entry(scheduler, entry)
        except (ValueError, KeyError, FlowSimError) as exc:
            # the live request failed the same deterministic way; the
            # journal records the attempt, not a guarantee of success
            _ = exc
        last_seq = entry["seq"]
        replayed += 1
    return scheduler, last_seq, replayed


def _load_snapshot(directory: Path) -> dict | None:
    path = directory / SNAPSHOT_NAME
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise JournalError(f"corrupt snapshot {path}: {exc}") from exc


def _settled_lines(path: Path, settled: int) -> list[bytes]:
    """The first ``settled`` newline-terminated lines of ``path``."""
    if not settled:
        return []
    data = path.read_bytes() if path.exists() else b""
    lines = data.split(b"\n", settled)
    if len(lines) <= settled:
        raise JournalError(
            f"{path} holds {len(lines) - 1} complete rows but the "
            f"snapshot settled {settled}"
        )
    return lines[:settled]


def _count_entries(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_bytes().split(b"\n") if line.strip())
