"""Per-process trace memo for the experiment grid.

A figure grid (:mod:`repro.analysis.pool`) runs many cells that differ
only in policy or scheduler, so every process would otherwise rebuild
the identical trace once per cell.  Trace construction is a
deterministic pure function of its parameters and simulators never
mutate specs, so the memo below shares one trace per parameter tuple.
The traces themselves come from the harness's single builders,
:func:`repro.analysis.experiments.flow_trace` and
:func:`repro.analysis.experiments.ws_trace`, so memoized and serial runs
see the same input.
"""

from __future__ import annotations

__all__ = ["memoized_trace", "memoized_ws_trace"]


#: Per-process memo of built traces, bounded FIFO so a long-lived pool
#: cannot grow without limit.
_TRACE_MEMO: dict[tuple, object] = {}
_TRACE_MEMO_MAX = 64


def _remember(key: tuple, trace):
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = trace
    return trace


def memoized_trace(
    distribution: str, load: float, m: int, n_jobs: int, mode: str, seed: int
):
    """:func:`~repro.analysis.experiments.flow_trace`, memoized per process."""
    key = (distribution, load, m, n_jobs, mode, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        # a grid run may have shipped this trace's columns via shared
        # memory (repro.analysis.shm); reconstructing from the packed
        # floats is exact, so the rows stay byte-identical to a local
        # rebuild — which remains the fallback
        from repro.analysis.shm import shared_trace

        trace = shared_trace(key)
        if trace is None:
            from repro.analysis.experiments import flow_trace

            trace = flow_trace(distribution, load, m, n_jobs, mode, seed)
        _remember(key, trace)
    return trace


def memoized_ws_trace(
    distribution: str,
    load: float,
    m: int,
    n_jobs: int,
    mean_work_units: int,
    parallelism: int,
    seed: int,
):
    """:func:`~repro.analysis.experiments.ws_trace`, memoized per process.

    A fig-3 grid runs every scheduler on the same trace; the memo builds
    it once per process instead of once per (scheduler × load) cell.
    """
    key = ("ws", distribution, load, m, n_jobs, mean_work_units, parallelism, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        from repro.analysis.experiments import ws_trace

        trace = _remember(
            key,
            ws_trace(
                distribution, load, m, n_jobs, mean_work_units, parallelism, seed
            ),
        )
    return trace
