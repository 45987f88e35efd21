#!/usr/bin/env python
"""Fan a parameter sweep out over worker processes.

Sweep cells are independent simulations, and the engines are pure
Python, so real speedup needs processes (the GIL rules out threads).
`repro.analysis.pool` runs declaratively-described cells over a process
pool with deterministic, submission-ordered results.

Run:  python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import time

from repro.analysis.pool import flow_sweep_cells, run_flow_grid
from repro.analysis.tables import series_table


def main() -> None:
    cells = flow_sweep_cells(
        distribution="bing",
        load=0.6,
        mode="sequential",
        m_values=(1, 4, 16),
        n_jobs=4000,
        seed=17,
    )

    t0 = time.time()
    serial = run_flow_grid(cells, workers=1)
    t_serial = time.time() - t0

    workers = min(4, os.cpu_count() or 1)
    t0 = time.time()
    parallel = run_flow_grid(cells, workers=workers)
    t_parallel = time.time() - t0

    assert serial == parallel, "determinism violated!"

    print(f"{len(cells)} cells: serial {t_serial:.1f}s, "
          f"{workers} workers {t_parallel:.1f}s "
          f"(speedup {t_serial / t_parallel:.1f}x)\n")
    print(series_table(parallel, x="m", series="scheduler", value="mean_flow"))
    print("\nIdentical results either way — workers only change wall time.")


if __name__ == "__main__":
    main()
