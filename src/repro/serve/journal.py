"""Write-ahead request journal + periodic snapshots for the server.

Crash safety for :class:`~repro.serve.server.SchedulerServer` rests on
two files inside one journal directory:

* ``journal.jsonl`` — every state-mutating request (``submit``,
  ``advance``, ``drain``), one JSON object per line, appended *after*
  validation but *before* the engine applies it (write-ahead);
* ``snapshot.json`` — the most recent full scheduler checkpoint
  (:func:`~repro.serve.snapshot.snapshot_scheduler`), tagged with the
  journal sequence number it covers.

Recovery (:func:`recover`) restores the snapshot if present, then
replays every journal entry with a later sequence number through
:func:`apply_entry` — which mirrors the server's own dispatch exactly
(advance the trace clock to the submission's resolved release, then
submit).  Because the engine, policy RNG and admission estimator are all
deterministic given the request sequence, a recovered scheduler is
*bit-for-bit* identical to one that was never killed; the crash-recovery
tests assert exactly that on per-job flow times.

Entries journal the **resolved** request — releases are concrete floats,
never "now" — so replay does not depend on any clock.  A torn final line
(the append that was racing the crash) is tolerated and dropped; any
earlier corruption raises :class:`JournalError` because silently
skipping interior entries would desynchronize the replayed trajectory.

Snapshots are cut automatically every ``snapshot_every`` appended
entries: the checkpoint is written atomically (tmp file + rename) and
the journal is then truncated, bounding both recovery time and disk use.
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
    "read_journal",
    "recover",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"

_MUTATING_OPS = ("submit", "advance", "drain")


class JournalError(RuntimeError):
    """Raised when the journal directory cannot be read back consistently."""


class RequestJournal:
    """Append-only write-ahead log with automatic snapshot rotation.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Holds ``journal.jsonl``
        and ``snapshot.json``.
    snapshot_every:
        Cut a snapshot (and truncate the journal) after this many
        appended entries; ``0`` disables automatic snapshots.
    fsync:
        When true, ``fsync`` after every append — survives power loss,
        not just process death, at a large throughput cost.  The default
        ``flush`` survives any crash of the serving process itself.
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
        self._seq = _last_seq(self.directory)
        self._since_snapshot = _count_entries(self.journal_path)
        self._fh = open(self.journal_path, "a", encoding="utf-8")

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

        The snapshot lands atomically (tmp + rename) *before* the journal
        shrinks, so a crash between the two steps merely replays entries
        the snapshot already covers — replay is idempotent because
        recovery skips entries with ``seq <= snapshot.seq``.
        """
        from repro.serve.snapshot import snapshot_scheduler

        state = {"seq": self._seq, "state": snapshot_scheduler(scheduler)}
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state))
        if self.fsync:
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
        tmp.replace(self.snapshot_path)
        self._fh.truncate(0)
        self._fh.seek(0)
        self._since_snapshot = 0
        return self.snapshot_path

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

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


def recover(
    directory: str | Path,
    build_empty=None,
) -> tuple[OnlineScheduler | None, int, int]:
    """Rebuild a scheduler from snapshot + journal replay.

    Returns ``(scheduler, last_seq, n_replayed)``.  ``scheduler`` is
    ``None`` when the directory holds neither a snapshot nor journal
    entries *and* no ``build_empty`` factory was given; with a factory,
    journal-only recovery replays onto a fresh scheduler.
    """
    from repro.serve.snapshot import restore_scheduler

    directory = Path(directory)
    snap_path = directory / SNAPSHOT_NAME
    scheduler: OnlineScheduler | None = None
    base_seq = 0
    if snap_path.exists():
        try:
            snap = json.loads(snap_path.read_text())
        except ValueError as exc:
            raise JournalError(f"corrupt snapshot {snap_path}: {exc}") from exc
        scheduler = restore_scheduler(snap["state"])
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


def _last_seq(directory: Path) -> int:
    snap_path = directory / SNAPSHOT_NAME
    seq = 0
    if snap_path.exists():
        try:
            seq = int(json.loads(snap_path.read_text())["seq"])
        except (ValueError, KeyError):
            seq = 0
    for entry in read_journal(directory):
        seq = max(seq, int(entry["seq"]))
    return seq


def _count_entries(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_bytes().split(b"\n") if line.strip())
