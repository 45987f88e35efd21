"""Shared pieces of the benchmark: metric tables, rounds, checks."""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "POLICY_HOOKS",
    "POLICY_RATES",
    "Outcome",
    "check_drained",
    "check_rows",
    "end_to_end",
    "flow_layers",
    "load_reference",
    "perf_fields",
    "percentile",
    "process_cpu_s",
    "process_hwm_mb",
    "run_rounds",
]

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit.  A layer the workload
#: never enters reads 0.
PER_LAYER = {
    # serving, measured on the untraced rounds of a traced run
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "recover_s": "s",
    "fail_frac": "ratio",
    # journal and snapshot
    "journal.appends": "count",
    "journal.append_s": "s",
    "journal.snapshots": "count",
    "journal.snapshot_s": "s",
    "journal.snapshot_bytes": "B",
    "snapshot.encode_s": "s",
    # request path
    "server.self_s": "s",
    "online.submit_s": "s",
    "online.submit_calls": "count",
    "online.advance_s": "s",
    "online.query_s": "s",
    "online.stats_s": "s",
    "admission.decide_s": "s",
    "admission.shed": "count",
    # flow-level engine and policies
    "flowsim.run_s": "s",
    "flowsim.self_s": "s",
    "flowsim.events": "count",
    "flowsim.events_per_s": "1/s",
    "flowsim.view_builds": "count",
    "flowsim.rate_misses": "count",
    "flowsim.batch_events_folded": "count",
    "policy.rates_s": "s",
    "policy.rates_calls": "count",
    "policy.hooks_s": "s",
    "policy.hooks_calls": "count",
    # incremental order kernels
    "order.ops": "count",
    "order.calendar_pops": "count",
    "order.calendar_invalidations": "count",
    "order.invalidation_ratio": "ratio",
    # streamed runs and their metrics
    "stream.harvest_s": "s",
    "metrics.fold_s": "s",
    "metrics.fold_calls": "count",
    # work-stealing runtime and schedulers
    "wsim.run_s": "s",
    "wsim.work_steps": "count",
    "wsim.steal_attempts": "count",
    "wsim.steal_success": "ratio",
    "wsim.muggings": "count",
    "wsim.idle_steps": "count",
    "wsched.hooks_s": "s",
    "wsched.hooks_calls": "count",
    # grid runner and workload generation
    "pool.grid_s": "s",
    "pool.cells": "count",
    "pool.overhead_s": "s",
    "workloads.gen_s": "s",
    "workloads.jobs": "count",
    # benchmark health
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.submit_samples": "count",
    "loadgen.read_samples": "count",
    "loadgen.server_cpu_s": "s",
    "trace.overhead_frac": "ratio",
}

#: flowsim policy methods the engine calls for rates, and for events
POLICY_RATES = ("rates", "rates_array", "rates_array_patch")
POLICY_HOOKS = ("on_arrival", "on_completion", "on_fault", "next_timer")

#: PerfCounters fields that hold wall time or memory, not counts; the
#: traced-equals-untraced check skips them
_TIMING_FIELDS = ("wall_s", "peak_rss_mb", "py_peak_mb")

#: rounds every run makes at least, so each median has three samples
MIN_ROUNDS = 3


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, problems: list[str]) -> None:
        """Count one operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of ``values``."""
    import numpy as np

    return float(np.percentile(values, q))


def run_rounds(one_round, seconds: float, started: float) -> list:
    """Call ``one_round(i)`` until ``seconds`` since ``started`` are used.

    Runs at least :data:`MIN_ROUNDS` rounds, and starts another only if
    the median round so far still fits in the time left.
    """
    out = []
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        out.append(one_round(len(out)))
        walls.append(time.perf_counter() - t0)
        left = seconds - (time.perf_counter() - started)
        if len(out) >= MIN_ROUNDS and statistics.median(walls) > left:
            return out


def end_to_end(work: float, walls, setups, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one run.

    ``walls`` holds the wall time of each timed round of ``work`` jobs,
    ``setups`` the wall time of each set-up.
    """
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(work / wall for wall in walls),
        "peak_rss_mb": peak_rss_mb,
    }


def process_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def process_cpu_s(pid: int | str = "self") -> float:
    """User plus system CPU seconds a process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def perf_fields(perf: dict) -> dict:
    """Engine counters without their wall-time and memory fields."""
    return {k: v for k, v in perf.items() if k not in _TIMING_FIELDS}


def check_rows(rows, lower_bounds, reference=None, flow_jobs=None) -> list:
    """Problems found in one round's result rows, one list per row.

    Every row's ``mean_flow`` must reach its Observation-1 lower bound.
    A row with ``flow_jobs[i]`` set is a flow-level run and must have
    processed exactly one arrival and one completion per job.  With a
    ``reference`` (recorded at the default seed and sizes) each row's
    ``(events, mean_flow)`` must match it exactly.
    """
    problems = []
    for i, row in enumerate(rows):
        found = []
        lb = lower_bounds[i]
        if not row["mean_flow"] >= lb * (1.0 - 1e-12):
            found.append(f"row {i}: mean_flow {row['mean_flow']!r} < bound {lb!r}")
        if flow_jobs is not None and flow_jobs[i] is not None:
            if row["events"] != 2 * flow_jobs[i]:
                found.append(
                    f"row {i}: {row['events']} events for {flow_jobs[i]} jobs"
                )
        if reference is not None:
            want = reference[i]
            got = [row["events"], row["mean_flow"]]
            if got != list(want):
                found.append(f"row {i}: (events, mean_flow) {got} != {want}")
        problems.append(found)
    return problems


def check_drained(drained, offline, recovered) -> list[str]:
    """Problems with a server's drained flows.

    They must equal an offline simulation of the accepted jobs within
    ``loadgen --verify``'s tolerance, and the scheduler rebuilt from the
    journal must reproduce them exactly.
    """
    import numpy as np

    drained = np.asarray(drained, dtype=float)
    offline = np.asarray(offline, dtype=float)
    problems = []
    # loadgen --verify's rule: equal within 1e-9 of the largest flow
    scale = max(1.0, float(np.max(np.abs(offline), initial=0.0)))
    if drained.shape != offline.shape or not np.all(
        np.abs(drained - offline) <= 1e-9 * scale
    ):
        problems.append("drained flows differ from offline flowsim.simulate")
    if not np.array_equal(drained, np.asarray(recovered, dtype=float)):
        problems.append("recovered scheduler's flows differ from the drained ones")
    return problems


def load_reference(workload: str, sizes: dict, seed: int):
    """Reference rows for ``workload``, or None off the recorded point."""
    if not REFERENCE_PATH.exists():
        return None
    ref = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if ref is None or ref["seed"] != seed or ref["sizes"] != sizes:
        return None
    return ref["rows"]


def flow_layers(spans: dict, perfs: list[dict]) -> dict:
    """Flowsim, policy and order metrics from spans and engine counters."""

    def tot(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    def perf_sum(key):
        return sum(p.get(key, 0) for p in perfs)

    events = perf_sum("events")
    pops = perf_sum("calendar_pops")
    run_s = tot("flowsim.run")
    return {
        "flowsim.run_s": run_s,
        "flowsim.self_s": tot("flowsim.run", "self_s"),
        "flowsim.events": events,
        "flowsim.events_per_s": events / run_s if run_s else 0.0,
        "flowsim.view_builds": perf_sum("view_builds"),
        "flowsim.rate_misses": perf_sum("rate_misses"),
        "flowsim.batch_events_folded": perf_sum("batch_events_folded"),
        "policy.rates_s": tot("policy.rates"),
        "policy.rates_calls": tot("policy.rates", "calls"),
        "policy.hooks_s": tot("policy.hooks"),
        "policy.hooks_calls": tot("policy.hooks", "calls"),
        "order.ops": perf_sum("order_ops"),
        "order.calendar_pops": pops,
        "order.calendar_invalidations": perf_sum("calendar_invalidations"),
        "order.invalidation_ratio": (
            perf_sum("calendar_invalidations") / pops if pops else 0.0
        ),
    }
