"""``paper_figs``: a reduced run of the paper's evaluation grids.

Part one is the Fig. 1/2 processor sweep (finance and bing, sequential
and fully parallel jobs, the default policy sets, load 0.7); part two is
the Fig. 3 work-stealing grid (m=16, loads 0.5/0.6/0.7, the four default
schedulers).  Both run through the serial grid runner, the way users of
the reproduction run them.  At these sizes each engine takes about half
of a round, and no run reaches the 1,024 active jobs at which flowsim
switches to its incremental order kernels, so ``order.*`` must read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time

from common import (
    PER_LAYER,
    POLICY_HOOKS,
    POLICY_RATES,
    Outcome,
    check_rows,
    end_to_end,
    flow_layers,
    load_reference,
    perf_fields,
    process_hwm_mb,
    run_rounds,
)
from tracing import Tracer, instrument, mean_summary, patched

#: per-cell job counts; the reference values hold for exactly these
SIZES = {"flow_jobs": 1000, "ws_jobs": 100}
M_VALUES = (2, 8, 32)
LOAD = 0.7
DISTRIBUTIONS = ("finance", "bing")
MODES = ("sequential", "fully_parallel")
WS_M = 16
WS_LOADS = (0.5, 0.6, 0.7)
SETUPS = 5

WS_HOOKS = ("on_arrival", "on_completion", "on_abort", "steal_target", "out_of_work")


def make_cells(seed: int, sizes: dict):
    from repro.analysis.pool import flow_sweep_cells, ws_sweep_cells

    flow = []
    for dist in DISTRIBUTIONS:
        for mode in MODES:
            flow += flow_sweep_cells(
                dist,
                LOAD,
                mode,
                M_VALUES,
                sizes["flow_jobs"],
                seed=seed,
                figure="fig1" if mode == "sequential" else "fig2",
            )
    ws = ws_sweep_cells(
        "finance", WS_LOADS, [WS_M], sizes["ws_jobs"], seed=seed, figure="fig3"
    )
    return flow, ws


def _trace_of(cell):
    """The cell's input trace, from the grid runner's per-process memo."""
    from repro.analysis.parallel import memoized_trace, memoized_ws_trace

    if hasattr(cell, "policy"):
        return memoized_trace(
            cell.distribution, cell.load, cell.m, cell.n_jobs, cell.mode, cell.seed
        )
    return memoized_ws_trace(
        cell.distribution,
        cell.load,
        cell.m,
        cell.n_jobs,
        cell.mean_work_units,
        cell.parallelism or 2 * cell.m,
        cell.seed,
    )


def generate(cells, tracer: Tracer) -> int:
    """Build every input trace of ``cells`` from scratch; returns job count.

    The memo is emptied first, so each call pays the full generation
    cost the first round of a grid would otherwise pay.
    """
    from repro.analysis import parallel

    parallel._TRACE_MEMO.clear()
    jobs = 0
    seen = set()
    for cell in cells:
        key = (type(cell), cell.distribution, cell.load, cell.m, cell.seed,
               getattr(cell, "mode", None))
        if key in seen:
            continue
        seen.add(key)
        with tracer.span("workloads.gen"):
            jobs += len(_trace_of(cell))
    return jobs


@contextlib.contextmanager
def _captured(sink: list, tracer: Tracer | None):
    """Rebind the engine entry points to record each run's outputs and
    counters in ``sink``.

    With a tracer they also wrap the policy or scheduler *instance* the
    cell built, and time the engine run as a span.
    """
    from repro.flowsim import engine
    from repro.wsim import runtime

    orig_sim = engine.simulate
    orig_ws = runtime.simulate_ws

    def simulate(trace, m, policy, *args, **kwargs):
        if tracer is None:
            result = orig_sim(trace, m, policy, *args, **kwargs)
        else:
            instrument(tracer, policy, POLICY_RATES, "policy.rates")
            instrument(tracer, policy, POLICY_HOOKS, "policy.hooks")
            with tracer.span("flowsim.run"):
                result = orig_sim(trace, m, policy, *args, **kwargs)
        sink.append(
            ("flow", result.extra["events"], result.mean_flow,
             perf_fields(result.extra["perf"]))
        )
        return result

    def simulate_ws(trace, m, scheduler, *args, **kwargs):
        if tracer is None:
            result = orig_ws(trace, m, scheduler, *args, **kwargs)
        else:
            instrument(tracer, scheduler, WS_HOOKS, "wsched.hooks")
            with tracer.span("wsim.run"):
                result = orig_ws(trace, m, scheduler, *args, **kwargs)
        extra = result.extra
        sink.append(
            ("ws", result.makespan, result.mean_flow, result.steal_attempts,
             result.muggings, extra["work_steps"], extra["failed_steals"],
             extra["idle_steps"], perf_fields(extra["perf"]))
        )
        return result

    with patched(engine, "simulate", simulate), patched(
        runtime, "simulate_ws", simulate_ws
    ):
        yield


def _grid(flow, ws, tracer: Tracer | None):
    from repro.analysis.pool import run_flow_grid, run_ws_grid

    if tracer is None:
        return run_flow_grid(flow, workers=1) + run_ws_grid(ws, workers=1)
    flow = [dataclasses.replace(c) for c in flow]
    ws = [dataclasses.replace(c) for c in ws]
    for cell in flow + ws:
        # a frozen dataclass: set the wrapper on this copy only
        object.__setattr__(cell, "run", tracer.wrap("pool.cell", cell.run))
    with tracer.span("pool.grid"):
        rows = run_flow_grid(flow, workers=1)
    with tracer.span("pool.grid"):
        rows += run_ws_grid(ws, workers=1)
    return rows


def run(seed: int, seconds: float, trace: bool, sizes: dict = SIZES):
    started = time.perf_counter()
    from repro.theory.bounds import flow_lower_bound

    flow, ws = make_cells(seed, sizes)
    cells = flow + ws
    setup_tracer = Tracer()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        gen_jobs = generate(cells, setup_tracer)
        setups.append(time.perf_counter() - t0)
    lower = [flow_lower_bound(_trace_of(c), c.m) for c in cells]
    flow_jobs = [c.n_jobs for c in flow] + [None] * len(ws)
    reference = load_reference("paper_figs", sizes, seed)
    round_jobs = sum(c.n_jobs for c in cells)
    outcome = Outcome()
    first: dict = {}

    def one_round(i):
        traced = trace and i % 2 == 1
        tracer = Tracer() if traced else None
        sink: list = []
        t0 = time.perf_counter()
        c0 = time.process_time()
        if trace:
            with _captured(sink, tracer):
                rows = _grid(flow, ws, tracer)
        else:
            rows = _grid(flow, ws, None)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        problems = check_rows(rows, lower, reference, flow_jobs)
        first.setdefault("rows", rows)
        first.setdefault("sink", sink)
        if rows != first["rows"] or sink != first["sink"]:
            problems[0].append(
                "outputs or engine counters differ from the first round"
            )
        for found in problems:
            outcome.op(found)
        return traced, wall, cpu, tracer, sink

    rounds = run_rounds(one_round, seconds, started)
    if not trace:
        walls = [r[1] for r in rounds]
        return end_to_end(round_jobs, walls, setups, process_hwm_mb()), outcome

    plain = [r for r in rounds if not r[0]]
    traced = [r for r in rounds if r[0]]
    wall = statistics.median(r[1] for r in plain)
    spans = mean_summary(r[3].summary() for r in traced)
    sink = traced[0][4]
    ws_runs = [s for s in sink if s[0] == "ws"]

    def tot(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    attempts = sum(s[3] for s in ws_runs)
    failed = sum(s[6] for s in ws_runs)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(flow_layers(spans, [s[3] for s in sink if s[0] == "flow"]))
    layer.update({
        "fail_frac": outcome.fail_frac,
        "wsim.run_s": tot("wsim.run"),
        "wsim.work_steps": sum(s[5] for s in ws_runs),
        "wsim.steal_attempts": attempts,
        "wsim.steal_success": 1.0 - failed / attempts if attempts else 0.0,
        "wsim.muggings": sum(s[4] for s in ws_runs),
        "wsim.idle_steps": sum(s[7] for s in ws_runs),
        "wsched.hooks_s": tot("wsched.hooks"),
        "wsched.hooks_calls": tot("wsched.hooks", "calls"),
        "pool.grid_s": tot("pool.grid"),
        "pool.cells": len(cells),
        "pool.overhead_s": tot("pool.grid") - tot("pool.cell"),
        "workloads.gen_s": setup_tracer.summary()["workloads.gen"]["total_s"] / SETUPS,
        "workloads.jobs": gen_jobs,
        "loadgen.sent": round_jobs,
        "loadgen.server_cpu_s": statistics.median(r[2] for r in plain),
        "trace.overhead_frac": statistics.median(r[1] for r in traced) / wall - 1.0,
    })
    return layer, outcome
