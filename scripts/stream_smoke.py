#!/usr/bin/env python
"""CI smoke for the streaming path (`make stream-smoke`).

Pushes 100k generated jobs through `simulate_stream` without ever
materializing the trace and requires the process peak RSS (via
`resource.getrusage`) to stay under a ceiling far below what the dense
arrays for that trace would need.  Then runs a frozen 10^6-job stream
and pins its exact event count and mean flow, and spot-checks the wsim
streaming driver and the `drep-sim stream` CLI on the sanitized SWF
fixture.

This is the bounded-RAM contract in the exact form users rely on: a
stream of n jobs must cost O(active jobs), not O(n).  Exits non-zero on
the first violation.  Needs only the package itself — no pytest.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

N_JOBS = 100_000
#: generous for CI noise (interpreter + numpy alone are ~50 MB) yet far
#: below a materialized 100k-job trace with per-job result arrays
RSS_CEILING_MB = 400.0

#: the frozen million-job stream (seed 309) and its exact results
MILLION_SEED = 309
MILLION_EVENTS = 2_000_000
MILLION_MEAN_FLOW = 16.73782247236193


def fail(msg: str) -> None:
    print(f"stream-smoke: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on some BSDs
    return peak / 1024.0 if peak < (1 << 40) else peak / (1024.0 * 1024.0)


def main() -> None:
    from repro.core.job import ParallelismMode
    from repro.flowsim import policy_by_name, simulate_stream
    from repro.workloads.stream import attach_dags_stream, generate_stream
    from repro.wsim import simulate_ws_stream, ws_scheduler_by_name

    # -- flowsim: 100k jobs, never materialized -------------------------
    res = simulate_stream(
        generate_stream(N_JOBS, "exponential", 0.8, 16, seed=7),
        16,
        policy_by_name("srpt"),
        seed=7,
    )
    if res.n_jobs != N_JOBS:
        fail(f"expected {N_JOBS} completions, got {res.n_jobs}")
    if not res.mean_flow > 0:
        fail(f"degenerate mean flow {res.mean_flow}")
    if res.metrics.quantiles_exact:
        fail("100k jobs should exceed the exact-quantile reservoir")
    if not res.extra["perf"].get("peak_rss_mb", 0) > 0:
        fail("perf counters did not capture peak RSS")
    after_flowsim = rss_mb()
    if after_flowsim > RSS_CEILING_MB:
        fail(
            f"peak RSS {after_flowsim:.1f} MB exceeds the "
            f"{RSS_CEILING_MB:.0f} MB ceiling after the flowsim stream"
        )
    print(
        f"stream-smoke: flowsim {N_JOBS} jobs, mean_flow="
        f"{res.mean_flow:.4f}, peak RSS {after_flowsim:.1f} MB"
    )

    # -- flowsim: the frozen 10^6-job stream, pinned bit for bit -------
    big = simulate_stream(
        generate_stream(10**6, "exponential", 0.8, 16, seed=MILLION_SEED),
        16,
        policy_by_name("srpt"),
        seed=MILLION_SEED,
    )
    got = (int(big.extra["events"]), big.mean_flow)
    if got != (MILLION_EVENTS, MILLION_MEAN_FLOW):
        fail(
            f"10^6-job stream ran (events, mean_flow) = {got}, pinned "
            f"{(MILLION_EVENTS, MILLION_MEAN_FLOW)}"
        )
    print(
        f"stream-smoke: flowsim 10^6 jobs, events={got[0]}, "
        f"mean_flow={got[1]!r} (pinned), peak RSS {rss_mb():.1f} MB"
    )

    # -- wsim: lazy DAG attachment feeding the work-stealing runtime ----
    ws = simulate_ws_stream(
        attach_dags_stream(
            generate_stream(
                400,
                "finance",
                0.6,
                4,
                seed=11,
                mode=ParallelismMode.FULLY_PARALLEL,
                scale_work_with_m=False,
            ),
            parallelism=6,
            seed=11,
        ),
        4,
        ws_scheduler_by_name("drep"),
        seed=11,
    )
    if ws.n_jobs != 400:
        fail(f"wsim stream completed {ws.n_jobs}/400 jobs")
    if not ws.mean_flow > 0:
        fail("wsim stream produced degenerate flows")

    # -- CLI: replay the sanitized SWF fixture through `drep-sim stream`
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "stream",
            "--trace-file",
            str(REPO / "tests" / "data" / "sanitized_cluster.swf"),
            "--m",
            "8",
            "--time-scale",
            "0.001",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO,
    )
    if proc.returncode != 0:
        fail(f"`drep-sim stream` exited {proc.returncode}: {proc.stderr}")
    if "streamed run" not in proc.stdout:
        fail("`drep-sim stream` report missing from stdout")

    final = rss_mb()
    if final > RSS_CEILING_MB:
        fail(f"peak RSS {final:.1f} MB exceeds {RSS_CEILING_MB:.0f} MB")
    print(f"stream-smoke: PASS (peak RSS {final:.1f} MB)")


if __name__ == "__main__":
    main()
