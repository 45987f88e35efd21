#!/usr/bin/env python
"""CI smoke for journaled serving state (`make serve-state-smoke`).

Serves 10^5 generated jobs (DREP, finance, m=8, load 0.7) through a
journaled scheduler in process: each request is journaled, applied and
may cut a snapshot every 256 requests, exactly the server's path under
its engine lock (minus the wire codec).  The live server's state must be
bounded by active work, not uptime, so at 10^4 and again at 10^5 served
jobs it compares:

* the bytes of ``snapshot.json`` cut at that point;
* the p99 wall time of the last 5,000 requests before it.

Each ratio (10^5 over 10^4) must stay at or below 1.25.  Exits non-zero
on the first violation.  Needs only the package itself — no pytest.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

MARKS = (10_000, 100_000)
WINDOW = 5_000
MAX_RATIO = 1.25


def fail(msg: str) -> None:
    print(f"serve-state-smoke: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    from repro.serve.journal import RequestJournal, apply_entry
    from repro.serve.server import ServeConfig
    from repro.workloads.traces import generate_trace

    jobs = generate_trace(MARKS[-1], "finance", 0.7, 8, seed=0).jobs
    sched = ServeConfig(m=8, policy="drep", seed=0).build_scheduler()
    wall = np.zeros(len(jobs))
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        with RequestJournal(tmp, snapshot_every=256) as journal:
            for i, spec in enumerate(jobs):
                entry = {
                    "op": "submit",
                    "work": spec.work,
                    "span": spec.span,
                    "mode": spec.mode.value,
                    "weight": spec.weight,
                    "release": spec.release,
                }
                t0 = time.perf_counter()
                journal.append(entry)
                apply_entry(sched, entry)
                journal.maybe_snapshot(sched)
                wall[i] = time.perf_counter() - t0
                served = i + 1
                if served in MARKS:
                    t0 = time.perf_counter()
                    size = journal.mark_snapshot(sched).stat().st_size
                    cut_ms = (time.perf_counter() - t0) * 1e3
                    p99_ms = float(np.percentile(wall[served - WINDOW : served], 99)) * 1e3
                    rows[served] = (size, p99_ms)
                    print(
                        f"serve-state-smoke: {served} served, "
                        f"{sched.stepper.n_active} active: snapshot "
                        f"{size} B (cut {cut_ms:.1f} ms), request p99 "
                        f"{p99_ms:.3f} ms"
                    )
    (small_bytes, small_p99), (large_bytes, large_p99) = (rows[m] for m in MARKS)
    for what, small, large in (
        ("snapshot bytes", small_bytes, large_bytes),
        ("request p99", small_p99, large_p99),
    ):
        ratio = large / small
        print(f"serve-state-smoke: {what} ratio {ratio:.3f} (max {MAX_RATIO})")
        if ratio > MAX_RATIO:
            fail(
                f"{what} grew {ratio:.2f}x from {MARKS[0]} to {MARKS[1]} "
                "served jobs: state is not bounded by active work"
            )
    print("serve-state-smoke: OK")


if __name__ == "__main__":
    main()
