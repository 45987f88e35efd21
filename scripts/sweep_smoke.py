#!/usr/bin/env python
"""CI smoke for the experiment grid runner (`make sweep-smoke`).

Runs the same small figure-style grid three ways — serial (`workers=1`),
through a 2-worker process pool, and through a 4-worker pool with a
pathological chunk size — and requires the row lists to be **equal**,
element for element.  Then does the same for the resilience experiment
(fault plans serialized into pool workers) and for the `drep-sim
fig1/fig2/fig3 --workers` CLI paths (stdout compared byte-for-byte).

This is the grid runner's determinism contract under test in the exact
form users rely on: `workers=N` must be indistinguishable from
`workers=1` in everything but wall time.  Exits non-zero on the first
mismatch.  Needs only the package itself — no pytest.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))


def fail(msg: str) -> None:
    print(f"sweep-smoke: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    from repro.analysis.pool import flow_sweep_cells, run_flow_grid
    from repro.faults.experiment import run_resilience_experiment
    from repro.perf.counters import PerfCounters

    # -- flow grid: serial vs pooled vs oddly-chunked pooled ---------------
    cells = flow_sweep_cells(
        distribution="finance",
        load=0.7,
        mode="sequential",
        m_values=[2, 4],
        n_jobs=120,
        seed=7,
        replicates=2,
        figure="smoke",
    )
    counters = PerfCounters()
    serial = run_flow_grid(cells, workers=1)
    pooled = run_flow_grid(cells, workers=2, counters=counters)
    chunky = run_flow_grid(cells, workers=4, chunk_size=3)
    if serial != pooled:
        fail("flow grid rows differ between workers=1 and workers=2")
    if serial != chunky:
        fail("flow grid rows differ between workers=1 and workers=4/chunk=3")
    if counters.pool_tasks != len(cells) or counters.pool_workers < 2:
        fail(
            f"pool counters look wrong: tasks={counters.pool_tasks} "
            f"(want {len(cells)}), workers={counters.pool_workers}"
        )
    print(
        f"sweep-smoke: flow grid ok — {len(serial)} rows identical across "
        f"workers 1/2/4 ({counters.pool_chunks} chunks dispatched)"
    )

    # -- wsim grid: same contract for the work-stealing engine -------------
    from repro.analysis.pool import run_ws_grid, ws_sweep_cells

    ws_cells = ws_sweep_cells(
        distribution="finance",
        loads=[0.5, 0.7],
        m_values=[4],
        n_jobs=40,
        seed=7,
        mean_work_units=50,
        replicates=2,
        figure="smoke",
    )
    ws_counters = PerfCounters()
    ws_serial = run_ws_grid(ws_cells, workers=1)
    ws_pooled = run_ws_grid(ws_cells, workers=2, counters=ws_counters)
    ws_auto = run_ws_grid(ws_cells, workers="auto")
    if ws_serial != ws_pooled:
        fail("wsim grid rows differ between workers=1 and workers=2")
    if ws_serial != ws_auto:
        fail("wsim grid rows differ between workers=1 and workers='auto'")
    print(
        f"sweep-smoke: wsim grid ok — {len(ws_serial)} rows identical "
        f"across workers 1/2/auto ({ws_counters.pool_chunks} chunks dispatched)"
    )

    # -- resilience grid: fault plans must survive pickling ----------------
    base = run_resilience_experiment(m=4, n_jobs=60, seed=3, workers=1)
    pooled = run_resilience_experiment(m=4, n_jobs=60, seed=3, workers=2)
    if base != pooled:
        fail("resilience rows differ between workers=1 and workers=2")
    print(f"sweep-smoke: resilience ok — {len(base)} rows identical across workers 1/2")

    # -- CLI surface: the table users see must match too -------------------
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    for fig in ("fig1", "fig2"):
        cmd = [
            sys.executable, "-m", "repro.cli", fig,
            "--n-jobs", "120", "--m-values", "2", "4", "--seed", "7",
        ]
        out1 = subprocess.run(
            cmd, capture_output=True, text=True, env=env, check=True
        ).stdout
        out2 = subprocess.run(
            cmd + ["--workers", "2"], capture_output=True, text=True, env=env,
            check=True,
        ).stdout
        if out1 != out2:
            fail(f"drep-sim {fig} output differs with --workers 2")
        print(f"sweep-smoke: CLI ok — {fig} stdout byte-identical with --workers 2")

    cmd3 = [
        sys.executable, "-m", "repro.cli", "fig3",
        "--m", "4", "--n-jobs", "40", "--loads", "0.5", "0.7", "--seed", "7",
    ]
    out_w1 = subprocess.run(
        cmd3 + ["--workers", "1"], capture_output=True, text=True, env=env,
        check=True,
    ).stdout
    out_w2 = subprocess.run(
        cmd3 + ["--workers", "2"], capture_output=True, text=True, env=env,
        check=True,
    ).stdout
    out_auto = subprocess.run(  # the default --workers auto
        cmd3, capture_output=True, text=True, env=env, check=True
    ).stdout
    if out_w1 != out_w2 or out_w1 != out_auto:
        fail("drep-sim fig3 output differs across --workers 1/2/auto")
    print("sweep-smoke: CLI ok — fig3 stdout byte-identical across --workers 1/2/auto")
    print("sweep-smoke: PASS")


if __name__ == "__main__":
    main()
