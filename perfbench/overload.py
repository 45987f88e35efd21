"""``overload_stream``: a streamed finance trace at offered load 1.1.

The arrival clock of a finance stream is compressed until the offered
load on m=8 is 1.1, so the backlog grows past the 1,024 active jobs at
which flowsim promotes SRPT to its incremental order kernels, and then
drains once the stream ends.  The stream runs once under SRPT (the
incremental ``flowsim.order`` path) and once under DREP (the dense path
at depth), both through ``simulate_stream`` and ``StreamingMetrics``.
No other workload reaches that depth.
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

SIZES = {"jobs": 36000}
M = 8
LOAD = 1.1
POLICIES = ("srpt", "drep")
SETUPS = 5


def generate(seed: int, n_jobs: int) -> list:
    """The overload stream's jobs, with releases scaled to load 1.1."""
    from repro.workloads.stream import generate_stream

    base = list(generate_stream(n_jobs, "finance", 0.5, M, seed=seed))
    offered = sum(s.work for s in base) / (M * base[-1].release)
    factor = offered / LOAD
    return [dataclasses.replace(s, release=s.release * factor) for s in base]


@contextlib.contextmanager
def _traced_stream(tracer: Tracer):
    """Rebind the names ``simulate_stream`` builds its engine and metrics
    from to factories that wrap each built *instance*."""
    from repro.flowsim import stream

    stepper_cls = stream.FlowStepper
    metrics_cls = stream.StreamingMetrics

    def flow_stepper(*args, **kwargs):
        stepper = stepper_cls(*args, **kwargs)
        instrument(tracer, stepper, ("harvest",), "stream.harvest")
        return stepper

    def streaming_metrics(*args, **kwargs):
        metrics = metrics_cls(*args, **kwargs)
        instrument(tracer, metrics, ("add_batch",), "metrics.fold")
        return metrics

    with patched(stream, "FlowStepper", flow_stepper), patched(
        stream, "StreamingMetrics", streaming_metrics
    ):
        yield


def run_stream(jobs, policy_key: str, seed: int, tracer: Tracer | None):
    """One streamed run of ``jobs`` under the policy ``policy_key``."""
    from repro.flowsim.policies import policy_by_name
    from repro.flowsim.stream import simulate_stream

    policy = policy_by_name(policy_key)
    if tracer is None:
        return simulate_stream(iter(jobs), M, policy, seed=seed)
    instrument(tracer, policy, POLICY_RATES, "policy.rates")
    instrument(tracer, policy, POLICY_HOOKS, "policy.hooks")
    with _traced_stream(tracer), tracer.span("flowsim.run"):
        return simulate_stream(iter(jobs), M, policy, seed=seed)


def run(seed: int, seconds: float, trace: bool, sizes: dict = SIZES):
    started = time.perf_counter()
    n_jobs = sizes["jobs"]
    setup_tracer = Tracer()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with setup_tracer.span("workloads.gen"):
            jobs = generate(seed, n_jobs)
        setups.append(time.perf_counter() - t0)
    lower = sum(s.lower_bound(M) for s in jobs) / n_jobs
    reference = load_reference("overload_stream", sizes, seed)
    outcome = Outcome()
    first: dict = {}

    def one_round(i):
        traced = trace and i % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        c0 = time.process_time()
        results = [run_stream(jobs, p, seed, tracer) for p in POLICIES]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rows = [
            {"events": r.extra["events"], "mean_flow": r.mean_flow}
            for r in results
        ]
        captured = [perf_fields(r.extra["perf"]) for r in results]
        problems = check_rows(rows, [lower] * len(rows), reference, [n_jobs] * len(rows))
        first.setdefault("rows", rows)
        first.setdefault("captured", captured)
        if rows != first["rows"] or captured != first["captured"]:
            problems[0].append(
                "outputs or engine counters differ from the first round"
            )
        for found in problems:
            outcome.op(found)
        return traced, wall, cpu, tracer, captured

    rounds = run_rounds(one_round, seconds, started)
    round_jobs = n_jobs * len(POLICIES)
    if not trace:
        walls = [r[1] for r in rounds]
        return end_to_end(round_jobs, walls, setups, process_hwm_mb()), outcome

    plain = [r for r in rounds if not r[0]]
    traced = [r for r in rounds if r[0]]
    wall = statistics.median(r[1] for r in plain)
    spans = mean_summary(r[3].summary() for r in traced)

    def tot(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(flow_layers(spans, traced[0][4]))
    layer.update({
        "fail_frac": outcome.fail_frac,
        "stream.harvest_s": tot("stream.harvest"),
        "metrics.fold_s": tot("metrics.fold"),
        "metrics.fold_calls": tot("metrics.fold", "calls"),
        "workloads.gen_s": setup_tracer.summary()["workloads.gen"]["total_s"] / SETUPS,
        "workloads.jobs": n_jobs,
        "loadgen.sent": round_jobs,
        "loadgen.server_cpu_s": statistics.median(r[2] for r in plain),
        "trace.overhead_frac": statistics.median(r[1] for r in traced) / wall - 1.0,
    })
    return layer, outcome
