"""Deterministic process-pool runner for experiment grids.

The paper's simulation arm (Sec. V-A, Figures 1-2) is a large grid —
{Bing, Finance} × loads × processor sweep × modes × replicates — and
every cell is an independent simulation, so the sweep is embarrassingly
parallel.  This module shards any such grid over a process pool while
keeping the library's repro contract *byte-for-byte*:

* **Determinism** — ``run_grid(fn, tasks, workers=N)`` returns exactly
  the list ``[fn(t) for t in tasks]`` for every ``N``: tasks are
  dispatched in chunks (cheap work stealing — a slow cell only delays
  its own chunk) and reassembled in submission order, and every cell
  carries its own explicit seed, derived with the library's single
  seed-derivation rule (:func:`repro.core.rng.derive_seed`).
* **No per-cell trace shipping** — cells are small frozen dataclasses;
  trace *columns* travel once per grid through a shared-memory segment
  (:mod:`repro.analysis.shm`) that workers attach lazily, and when
  shared memory is unavailable workers fall back to regenerating traces
  from generation parameters through the per-process memo of
  :mod:`repro.analysis.parallel`.  Either way a grid whose cells differ
  only in policy materializes each trace once per worker.
* **Observability** — pass a :class:`repro.perf.PerfCounters` and the
  dispatch shape lands in ``pool_tasks`` / ``pool_chunks`` /
  ``pool_workers`` / ``pool_shm_traces`` / ``pool_shm_bytes`` (reported
  by the grid-sweep bench cases).

This is the one grid runner: the CLI figures, the resilience and
autoscale experiments and the benchmark all run their cells here.  A
cell builds its trace and its row with the serial harness's builders
(:func:`~repro.analysis.experiments.flow_trace` /
:func:`~repro.analysis.experiments.flow_row` and their ``ws_`` twins),
so a cell row is the serial :func:`~repro.analysis.experiments.run_flow_sweep`
or :func:`~repro.analysis.experiments.run_ws_sweep` row plus ``seed``
and ``events`` — and deliberately nothing process-dependent (no pids,
no wall times), which is what makes serial/parallel output comparable
with a plain ``==``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.rng import derive_seed

__all__ = [
    "FlowSweepCell",
    "WsSweepCell",
    "default_chunk_size",
    "flow_sweep_cells",
    "resolve_workers",
    "run_flow_grid",
    "run_grid",
    "run_ws_grid",
    "ws_sweep_cells",
]

#: policy keys per mode, mirroring
#: :func:`repro.analysis.experiments.flow_policy_factories`
DEFAULT_SEQ_POLICIES = ("srpt", "sjf", "rr", "drep")
DEFAULT_PAR_POLICIES = ("srpt", "swf", "rr", "drep-par")
#: fig-3 series, mirroring
#: :func:`repro.analysis.experiments.ws_scheduler_factories` (the keys
#: double as the ``scheduler`` labels in result rows)
DEFAULT_WS_SCHEDULERS = ("DREP", "SWF", "steal-first", "admit-first")


def _available_cpus() -> int:
    """CPUs this *process* may use — affinity-aware, never zero."""
    probe = getattr(os, "process_cpu_count", None)  # Python >= 3.13
    if probe is not None:
        return probe() or 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_workers(workers: "int | str | None") -> int | None:
    """Normalize a worker count: int, ``None`` (all cores) or ``"auto"``.

    ``"auto"`` caps at the CPUs actually available to the process
    (``os.process_cpu_count`` when it exists, else the scheduler
    affinity mask) and falls back to serial on a 1-core box — spawning a
    pool there only adds fork/pickle overhead on top of a core the
    parent already saturates (the BENCH_4 ``grid_sweep_w4``
    oversubscription finding: w4 is *slower* than w1 on 1 core).
    Results are unaffected either way — the grid contract is
    byte-identical rows for every worker count.
    """
    if workers == "auto":
        return _available_cpus()
    if isinstance(workers, str):
        raise ValueError(f"workers must be an int, None or 'auto', got {workers!r}")
    return workers


def default_chunk_size(n_tasks: int, workers: int) -> int:
    """~4 chunks per worker: enough slack for stealing, little overhead."""
    return max(1, math.ceil(n_tasks / (4 * max(1, workers))))


def _run_cell(cell) -> dict:
    # looks ``run`` up on the instance, so a caller may wrap it per cell
    return cell.run()


def _run_chunk(fn: Callable, chunk: list) -> list:
    return [fn(item) for item in chunk]


def run_grid(
    fn: Callable,
    tasks: Iterable,
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list:
    """Run ``fn`` over ``tasks``; result order == task order, always.

    ``fn`` and every task must be picklable (module-level function,
    plain-data cells).  ``workers=None`` uses the CPU count;
    ``workers="auto"`` uses :func:`resolve_workers` (available CPUs,
    serial on 1 core); ``workers=1`` runs inline — same code path minus
    the pool, so the output is byte-identical by construction.  ``chunk_size`` tunes dispatch
    granularity (default :func:`default_chunk_size`): chunks are
    submitted up front and completed in any order (work stealing), then
    reassembled by chunk index.

    ``initializer`` / ``initargs`` run once in each worker process before
    any chunk (the hook the shared-memory trace shipment uses to install
    its manifest).  They are **not** invoked on the inline ``workers=1``
    path — the parent process already holds whatever state the
    initializer would install.

    Degenerate dispatch shapes are normalized rather than spawning a
    useless pool: an empty task list returns ``[]`` without touching the
    pool or the counters, and ``workers > len(tasks)`` is clamped so no
    worker is ever created without at least one chunk to run.  An
    explicit ``chunk_size < 1`` is a caller bug and raises.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not tasks:
        return []
    workers = min(workers, len(tasks))
    if counters is not None:
        counters.pool_tasks += len(tasks)
        counters.pool_workers = max(counters.pool_workers, workers)
    if workers == 1:
        if counters is not None:
            counters.pool_chunks += 1
        return [fn(task) for task in tasks]
    if chunk_size is None:
        chunk_size = default_chunk_size(len(tasks), workers)
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    if counters is not None:
        counters.pool_chunks += len(chunks)
    results: list[list | None] = [None] * len(chunks)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        futures = {
            pool.submit(_run_chunk, fn, chunk): i
            for i, chunk in enumerate(chunks)
        }
        for future in as_completed(futures):
            results[futures[future]] = future.result()
    out: list = []
    for chunk_rows in results:
        assert chunk_rows is not None
        out.extend(chunk_rows)
    return out


@dataclass(frozen=True)
class FlowSweepCell:
    """One (trace, policy) flow-simulation cell of a figure grid.

    Frozen and plain-data, so it pickles cheaply; the worker rebuilds
    the trace from the generation parameters (memoized per process).
    """

    distribution: str
    load: float
    m: int
    mode: str
    policy: str
    n_jobs: int
    seed: int
    figure: str = ""

    def run(self) -> dict:
        """Execute in the current process; returns a flat result row."""
        from repro.analysis.experiments import flow_row
        from repro.analysis.parallel import memoized_trace
        from repro.flowsim.engine import simulate
        from repro.flowsim.policies import policy_by_name

        trace = memoized_trace(
            self.distribution, self.load, self.m, self.n_jobs, self.mode, self.seed
        )
        result = simulate(
            trace, self.m, policy_by_name(self.policy), seed=self.seed
        )
        # the serial sweep's row plus the cell seed and event count;
        # nothing process-dependent may ever be added here — the
        # workers=N ≡ workers=1 guarantee is a byte-level comparison
        row = flow_row(
            result, result.scheduler, self.distribution, self.load, self.m,
            self.mode, self.figure,
        )
        row["seed"] = self.seed
        row["events"] = int(result.extra.get("events", 0))
        return row


def flow_sweep_cells(
    distribution: str,
    load: float,
    mode,
    m_values: Iterable[int],
    n_jobs: int,
    seed: int = 0,
    policies: Sequence[str] | None = None,
    replicates: int = 1,
    figure: str = "",
) -> list[FlowSweepCell]:
    """Figure-1/2 style grid as a flat cell list (m × policy × replicate).

    Replicate 0 runs on the base ``seed`` — matching the serial
    single-shot sweep — and replicate ``r`` on
    ``derive_seed(seed, f"rep/{r}")``, the same child a hand-rolled
    :meth:`repro.core.rng.RngFactory.child` loop would use.
    """
    mode_s = mode.value if hasattr(mode, "value") else str(mode)
    if policies is None:
        policies = (
            DEFAULT_PAR_POLICIES
            if mode_s == "fully_parallel"
            else DEFAULT_SEQ_POLICIES
        )
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    cells = []
    for r in range(replicates):
        cell_seed = seed if r == 0 else derive_seed(seed, f"rep/{r}")
        for m in m_values:
            for policy in policies:
                cells.append(
                    FlowSweepCell(
                        distribution=distribution,
                        load=float(load),
                        m=int(m),
                        mode=mode_s,
                        policy=policy,
                        n_jobs=int(n_jobs),
                        seed=int(cell_seed),
                        figure=figure,
                    )
                )
    return cells


def run_flow_grid(
    cells: Sequence[FlowSweepCell],
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
) -> list[dict]:
    """Run a flow-cell grid through :func:`run_grid`.

    When the grid actually fans out (resolved ``workers > 1``), the
    distinct traces behind the cells are generated once in the parent
    and shipped to the workers through one shared-memory segment
    (:mod:`repro.analysis.shm`): workers reconstruct each trace from the
    packed columns instead of re-running ``generate_trace`` per process.
    The reconstruction is bit-exact, so rows remain byte-identical to
    ``workers=1``; if shared memory is unavailable the grid silently
    stays on the per-process regeneration path.  The segment is unlinked
    as soon as the grid returns.
    """
    resolved = resolve_workers(workers)
    if resolved is None:
        resolved = os.cpu_count() or 1
    shipment = None
    initializer: Callable | None = None
    initargs: tuple = ()
    if resolved > 1 and len(cells) > 1:
        from repro.analysis import shm
        from repro.analysis.parallel import memoized_trace

        keyed: dict[tuple, object] = {}
        for cell in cells:
            key = (cell.distribution, cell.load, cell.m, cell.n_jobs,
                   cell.mode, cell.seed)
            if key not in keyed:
                keyed[key] = memoized_trace(*key)
        try:
            manifest, shipment = shm.pack_flow_traces(keyed)
        except shm.ShmUnavailable:
            shipment = None  # memo path: workers regenerate as before
        else:
            initializer = shm.install_manifest
            initargs = (manifest,)
            if counters is not None:
                counters.pool_shm_traces += shipment.n_traces
                counters.pool_shm_bytes += shipment.nbytes
    try:
        return run_grid(
            _run_cell,
            cells,
            workers=workers,
            chunk_size=chunk_size,
            counters=counters,
            initializer=initializer,
            initargs=initargs,
        )
    finally:
        if shipment is not None:
            shipment.close_and_unlink()


@dataclass(frozen=True)
class WsSweepCell:
    """One (trace, scheduler) work-stealing runtime cell of a fig-3 grid.

    Same discipline as :class:`FlowSweepCell`: frozen plain data, the
    worker process rebuilds the DAG trace from generation parameters
    (memoized — all four schedulers of a fig-3 point share one trace),
    and the result row carries nothing process-dependent, so
    ``workers=N`` output equals ``workers=1`` output byte-for-byte.
    """

    distribution: str
    load: float
    m: int
    scheduler: str  # ws_scheduler_factories key, doubles as the row label
    n_jobs: int
    seed: int
    mean_work_units: int = 400
    parallelism: int = 0  # 0 = the run_ws_point default of 2*m
    figure: str = ""

    def run(self) -> dict:
        """Execute in the current process; returns a flat result row."""
        from repro.analysis.experiments import ws_row, ws_scheduler_factories
        from repro.analysis.parallel import memoized_ws_trace
        from repro.wsim.runtime import simulate_ws

        trace = memoized_ws_trace(
            self.distribution,
            self.load,
            self.m,
            self.n_jobs,
            self.mean_work_units,
            self.parallelism or 2 * self.m,
            self.seed,
        )
        factory = ws_scheduler_factories()[self.scheduler]
        result = simulate_ws(trace, self.m, factory(), seed=self.seed)
        # run_ws_point's row plus the cell seed and the step count;
        # nothing process-dependent may ever be added here (see
        # FlowSweepCell.run)
        row = ws_row(
            result, self.scheduler, self.distribution, self.load, self.m, self.figure
        )
        row["seed"] = self.seed
        row["events"] = int(result.makespan)
        return row


def ws_sweep_cells(
    distribution: str,
    loads: Iterable[float],
    m_values: Iterable[int],
    n_jobs: int,
    seed: int = 0,
    schedulers: Sequence[str] | None = None,
    mean_work_units: int = 400,
    parallelism: int | None = None,
    replicates: int = 1,
    figure: str = "",
) -> list[WsSweepCell]:
    """Figure-3 style grid as a flat cell list (m × load × scheduler).

    Seeds follow the :func:`flow_sweep_cells` rule: replicate 0 on the
    base ``seed`` (matching the serial :func:`run_ws_sweep`), replicate
    ``r`` on ``derive_seed(seed, f"rep/{r}")``.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if schedulers is None:
        schedulers = DEFAULT_WS_SCHEDULERS
    cells = []
    for r in range(replicates):
        cell_seed = seed if r == 0 else derive_seed(seed, f"rep/{r}")
        for m in m_values:
            for load in loads:
                for scheduler in schedulers:
                    cells.append(
                        WsSweepCell(
                            distribution=distribution,
                            load=float(load),
                            m=int(m),
                            scheduler=scheduler,
                            n_jobs=int(n_jobs),
                            seed=int(cell_seed),
                            mean_work_units=int(mean_work_units),
                            parallelism=int(parallelism or 0),
                            figure=figure,
                        )
                    )
    return cells


def run_ws_grid(
    cells: Sequence[WsSweepCell],
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
) -> list[dict]:
    """Run a work-stealing-cell grid through :func:`run_grid`."""
    return run_grid(
        _run_cell,
        cells,
        workers=workers,
        chunk_size=chunk_size,
        counters=counters,
    )
