"""Frozen-workload pins: exact ``events`` and ``mean_flow`` per workload.

Each row rebuilds one fixed workload at full size (per-workload seeds
301-310 and 399) and asserts the event count and the mean flow time bit
for bit.  The numbers were recorded from the engines before these
workloads were retired as timing cases, so any drift here is a semantic
change in an engine, the pool, the stream path or the elastic
controller, never noise.  Worker-count and dense/incremental twins of
these workloads are pinned equal elsewhere (``make sweep-smoke``,
``test_parallel_parity``, ``test_incremental_equivalence``), so one row
per workload is enough.

Two slower pins live in their CI smokes instead: the 10^6-job stream in
``scripts/stream_smoke.py`` and the scaling-ladder event sum in
``scripts/scaling_smoke.py``.
"""

from __future__ import annotations

import numpy as np
import pytest


def _summary(result) -> tuple[int, float]:
    # wsim reports no event count; its step count is the makespan
    return int(result.extra.get("events", result.makespan)), result.mean_flow


def _flowsim(n, distribution, policy_key, seed):
    from repro.flowsim.engine import simulate
    from repro.flowsim.policies import policy_by_name
    from repro.workloads.traces import generate_trace

    trace = generate_trace(n, distribution, 0.7, 8, seed=seed)
    return _summary(simulate(trace, 8, policy_by_name(policy_key), seed=seed))


def _flowsim_profiled():
    from repro.analysis.experiments import ws_trace
    from repro.flowsim.engine import FlowSimConfig, simulate
    from repro.flowsim.policies import SRPT

    trace = ws_trace("finance", 0.6, 4, 300, 200, 8, 304)
    config = FlowSimConfig(use_profiles=True)
    return _summary(simulate(trace, 4, SRPT(), seed=304, config=config))


def _wsim(speeds=None):
    from repro.analysis.experiments import ws_trace
    from repro.wsim.runtime import simulate_ws
    from repro.wsim.schedulers import DrepWS

    trace = ws_trace("finance", 0.6, 8, 150, 300, 16, 305)
    return _summary(simulate_ws(trace, 8, DrepWS(), seed=305, speeds=speeds))


def _grid_summary(rows) -> tuple[int, float]:
    return (
        sum(r["events"] for r in rows),
        sum(r["mean_flow"] for r in rows) / len(rows),
    )


def _flow_grid():
    from repro.analysis.pool import flow_sweep_cells, run_flow_grid

    cells = flow_sweep_cells(
        distribution="finance",
        load=0.7,
        mode="sequential",
        m_values=[2, 4, 8],
        n_jobs=400,
        seed=306,
        policies=("srpt", "rr", "drep"),
        replicates=2,
        figure="bench",
    )
    return _grid_summary(run_flow_grid(cells, workers=1))


def _ws_grid():
    from repro.analysis.pool import run_ws_grid, ws_sweep_cells

    cells = ws_sweep_cells(
        distribution="finance",
        loads=[0.5, 0.7],
        m_values=[4],
        n_jobs=60,
        seed=307,
        mean_work_units=50,
        replicates=2,
        figure="bench",
    )
    return _grid_summary(run_ws_grid(cells, workers=1))


def _autoscale():
    from repro.autoscale.guard import AutoscaleConfig
    from repro.autoscale.loop import run_flowsim_elastic
    from repro.flowsim.policies import policy_by_name
    from repro.workloads.traces import generate_trace

    cfg = AutoscaleConfig(
        m_min=1,
        m_max=8,
        tick=5.0,
        up_watermark=15.0,
        down_watermark=4.0,
        cooldown_up=0.0,
        cooldown_down=0.0,
        requeue_delay=1.0,
    )
    trace = generate_trace(1500, "finance", 0.7, 8, seed=308)
    row = run_flowsim_elastic(trace, policy_by_name("drep"), cfg, seed=308)
    return int(row["events"]), row["mean_flow"]


def _churn():
    from repro.flowsim.policies import policy_by_name
    from repro.flowsim.stream import simulate_stream
    from repro.perf.scaling import staircase_jobs

    res = simulate_stream(
        staircase_jobs(10_000), 8, policy_by_name("fifo"), seed=310
    )
    return _summary(res)


PINS = [
    ("flowsim_srpt", lambda: _flowsim(3000, "finance", "srpt", 301),
     6000, 8.438794214795319),
    ("flowsim_rr", lambda: _flowsim(3000, "bing", "rr", 302),
     6000, 8.952936094938028),
    ("flowsim_drep", lambda: _flowsim(3000, "finance", "drep", 303),
     6000, 8.880944715736733),
    ("flowsim_profiled", _flowsim_profiled, 2248, 75.90547613629273),
    ("wsim_drep", _wsim, 9068, 112.64666666666666),
    ("wsim_hetero",
     lambda: _wsim(np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5])),
     9076, 114.98666666666666),
    ("grid_sweep_w1", _flow_grid, 14400, 5.189112954799977),
    ("wsim_grid_w1", _ws_grid, 23725, 90.59687500000001),
    ("autoscale", _autoscale, 3413, 9.454401316324445),
    ("flowsim_churn_10k", _churn, 19999, 31274.995004001135),
    ("calibration", lambda: _flowsim(1500, "finance", "srpt", 399),
     3000, 8.526684520389907),
]


@pytest.mark.parametrize(
    "build,events,mean_flow",
    [pytest.param(b, e, f, id=name) for name, b, e, f in PINS],
)
def test_workload_pin(build, events, mean_flow):
    assert build() == (events, mean_flow)
