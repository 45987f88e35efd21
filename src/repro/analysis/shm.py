"""Zero-copy trace shipping for the grid pool (``repro.analysis.pool``).

A figure grid runs many cells against few distinct traces.  The memo
path (:func:`repro.analysis.parallel.memoized_trace`) already avoids
*pickling* traces — workers regenerate them from parameters — but each
worker process still pays one full ``generate_trace`` per distinct key:
RNG sampling, JobSpec validation, Poisson arrivals.  This module ships
the numeric columns of every distinct trace to the workers **once**
through ``multiprocessing.shared_memory`` instead:

* the parent packs each trace's ``release`` / ``work`` / ``span`` /
  ``weight`` float64 columns plus a uint8 mode code into one shared
  segment (:func:`pack_flow_traces`) and hands the pool a picklable
  *manifest* of ``{trace key -> (offset, length, metadata)}``;
* each worker attaches the segment lazily on its first lookup
  (:func:`shared_trace`) and reconstructs the job list from **read-only
  memoryview-backed arrays** — the float data is never copied or
  re-derived, only the ``JobSpec`` objects are materialized (numbers
  bit-for-bit equal to the parent's trace, so grid rows stay
  byte-identical to ``workers=1``);
* when shared memory is unavailable (no ``/dev/shm``, exotic platform —
  :class:`ShmUnavailable`), or for keys outside the manifest (e.g. DAG
  traces, whose graph objects cannot be packed), everything falls back
  to the existing per-process memo regeneration, unchanged.

Lifecycle: the parent owns the segment and must call
:meth:`Shipment.close_and_unlink` after the grid completes (the pool
runner does this in a ``finally``).  Workers only ever attach; their
mappings die with the process.  ``Trace.meta`` and DAG attachments are
*not* shipped — flow-level simulation reads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.job import JobSpec, ParallelismMode

__all__ = [
    "ShmUnavailable",
    "Shipment",
    "pack_flow_traces",
    "install_manifest",
    "shared_trace",
    "shared_stats",
]

#: stable mode-code table (uint8 index); append-only by construction
_MODES = (
    ParallelismMode.SEQUENTIAL,
    ParallelismMode.FULLY_PARALLEL,
    ParallelismMode.DAG,
)
_MODE_CODE = {mode: i for i, mode in enumerate(_MODES)}

#: bytes per job: 4 float64 columns + 1 uint8 code, column-major per trace
_F64 = 8


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be used here; callers fall back to the memo."""


def _align8(x: int) -> int:
    return (x + 7) & ~7


@dataclass
class Shipment:
    """Parent-side handle to one shared segment holding packed traces."""

    shm: object  # multiprocessing.shared_memory.SharedMemory
    nbytes: int
    n_traces: int

    def close_and_unlink(self) -> None:
        """Release the segment (idempotent; swallows races with trackers)."""
        try:
            self.shm.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        try:
            self.shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - defensive
            pass


def pack_flow_traces(keyed_traces: dict) -> "tuple[dict, Shipment]":
    """Pack traces into one shared segment; return (manifest, shipment).

    ``keyed_traces`` maps the :func:`memoized_trace` key tuple
    ``(distribution, load, m, n_jobs, mode, seed)`` to the generated
    :class:`~repro.workloads.traces.Trace`.  Traces containing DAG jobs
    are skipped (graphs cannot be packed); if nothing is packable or
    shared memory cannot be created, :class:`ShmUnavailable` is raised
    and the caller stays on the memo path.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError as exc:  # pragma: no cover - always present on CPython
        raise ShmUnavailable(str(exc)) from exc

    entries = []
    offset = 0
    for key, trace in keyed_traces.items():
        if any(j.dag is not None for j in trace.jobs):
            continue  # graphs cannot be packed; memo path covers these
        n = len(trace.jobs)
        size = _align8(4 * _F64 * n + n)
        entries.append((key, trace, offset, n))
        offset += size
    if not entries:
        raise ShmUnavailable("no packable traces")
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    except (OSError, ValueError) as exc:
        raise ShmUnavailable(str(exc)) from exc

    manifest: dict = {"shm": shm.name, "traces": {}}
    buf = shm.buf
    for key, trace, off, n in entries:
        block = np.ndarray((4, n), dtype=np.float64, buffer=buf, offset=off)
        codes = np.ndarray(
            (n,), dtype=np.uint8, buffer=buf, offset=off + 4 * _F64 * n
        )
        for i, j in enumerate(trace.jobs):
            block[0, i] = j.release
            block[1, i] = j.work
            block[2, i] = j.span
            block[3, i] = j.weight
            codes[i] = _MODE_CODE[j.mode]
        manifest["traces"][key] = {
            "offset": off,
            "n": n,
            "m": trace.m,
            "load": trace.load,
            "distribution": trace.distribution,
            "name": trace.name,
        }
        # release the local views before the segment can be closed
        del block, codes
    return manifest, Shipment(shm=shm, nbytes=offset, n_traces=len(entries))


# -- worker side -----------------------------------------------------------

#: manifest installed by the pool initializer (None = no shipment active)
_MANIFEST: dict | None = None
#: lazily attached segment for the installed manifest
_ATTACHED = None
#: how many shared lookups this process served (test observability)
_STATS = {"hits": 0}


def install_manifest(manifest: dict | None) -> None:
    """Pool-initializer target: make ``manifest`` visible to lookups.

    Runs in every worker process before any task; also callable in the
    parent (``workers=1`` never needs it — the parent memo already holds
    the generated traces).  Passing ``None`` uninstalls.
    """
    global _MANIFEST, _ATTACHED
    _MANIFEST = manifest
    _ATTACHED = None
    _STATS["hits"] = 0


def _attach():
    global _ATTACHED
    if _ATTACHED is None:
        from multiprocessing import shared_memory

        assert _MANIFEST is not None
        _ATTACHED = shared_memory.SharedMemory(name=_MANIFEST["shm"])
    return _ATTACHED


def shared_trace(key: tuple):
    """Reconstruct the trace for ``key`` from shared memory, or ``None``.

    ``None`` means "not shipped" — the caller regenerates as before.
    The reconstruction reads the packed columns through read-only
    memoryview-backed arrays (zero copy of the numeric data) and
    materializes the ``JobSpec`` list exactly once per worker process;
    the caller memoizes the resulting trace.
    """
    manifest = _MANIFEST
    if manifest is None:
        return None
    entry = manifest["traces"].get(key)
    if entry is None:
        return None
    try:
        shm = _attach()
    except (OSError, FileNotFoundError):  # segment gone: fall back
        return None
    from repro.workloads.traces import Trace

    off = entry["offset"]
    n = entry["n"]
    ro = memoryview(shm.buf).toreadonly()
    block = np.ndarray((4, n), dtype=np.float64, buffer=ro, offset=off)
    codes = np.ndarray(
        (n,), dtype=np.uint8, buffer=ro, offset=off + 4 * _F64 * n
    )
    release, work, span, weight = block
    jobs = [
        JobSpec(
            job_id=i,
            release=float(release[i]),
            work=float(work[i]),
            span=float(span[i]),
            mode=_MODES[codes[i]],
            weight=float(weight[i]),
        )
        for i in range(n)
    ]
    _STATS["hits"] += 1
    return Trace(
        jobs=jobs,
        m=entry["m"],
        load=entry["load"],
        distribution=entry["distribution"],
        name=entry["name"],
    )


def shared_stats() -> dict:
    """Per-process lookup stats (``{"hits": int}``); for tests/benches."""
    return dict(_STATS)
