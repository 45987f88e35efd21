#!/usr/bin/env python
"""CI gate for the incremental kernels' asymptotics (`make scaling-smoke`).

Runs the adversarial staircase ladder 10² → 10⁴ on the incremental
order/calendar kernels for every order-driven policy and fits the
scaling exponent of wall-per-event vs active-set size (see
`repro.perf.scaling`).  The exponent — unlike raw wall time — is
machine-drift-free, which is what makes it gateable on shared CI
runners.

Thresholds:

* SRPT / SJF / FIFO: exponent must stay **below 0.5**.  Their served set
  is O(m), so the incremental per-event cost is O(m log n); the dense
  path fits ≈1 on the same ladder.
* LAPS(0.05): gated at **0.85**.  LAPS serves ceil(beta·n) jobs by
  definition — beta·n rates change at every event, so every exact
  engine has an Ω(beta·n) per-event floor and the fitted slope rises
  toward 1 as beta·n overtakes the O(log n) terms.  The win over the
  dense path is the removed sort and scan (constants and the log
  factor), not the exponent; 0.85 catches a regression to dense-like
  behavior without pretending the floor away (docs/performance.md has
  the full table).

The ladder also pins its summed event count (``EVENTS``, at seed
``SEED``): the staircase workload is frozen, so any other count means
the event loop changed what it counts, not how fast it runs.

Exits non-zero on a violated bound or a moved event count.  Needs only
the package — no pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.perf.scaling import measure_scaling  # noqa: E402

LADDER = (100, 1_000, 10_000)
BOUNDS = {"srpt": 0.5, "sjf": 0.5, "fifo": 0.5, "laps": 0.85}
SEED = 311
EVENTS = 82_112


def main() -> int:
    print(f"# scaling smoke — staircase ladder {LADDER}, incremental kernels")
    results = measure_scaling(LADDER, tuple(BOUNDS), repeats=2, seed=SEED)
    status = 0
    events = sum(p["events"] for r in results.values() for p in r["points"])
    print(f"summed ladder events {events} (pinned {EVENTS})")
    if events != EVENTS:
        print(
            f"scaling smoke: the frozen ladder ran {events} events, "
            f"pinned {EVENTS}",
            file=sys.stderr,
        )
        status = 1
    for key, bound in BOUNDS.items():
        r = results[key]
        exp = r["exponent"]
        per_event = " -> ".join(
            f"{p['us_per_event']:.1f}us" for p in r["points"]
        )
        verdict = "ok" if exp < bound else "FAIL"
        if exp >= bound:
            status = 1
        print(
            f"{key:6s} exponent {exp:+.3f} (bound {bound:.2f}) "
            f"[{per_event}]  {verdict}"
        )
    if status:
        print(
            "scaling smoke: fitted exponent at or above its bound — the "
            "incremental kernels have regressed toward per-event costs "
            "linear in the active-set size",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
