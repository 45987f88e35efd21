"""Active-set scaling measurements: the asymptotics behind PR 10.

The incremental order/calendar kernels claim O(log n_active) per event
where the dense path pays O(n_active) (next-event scan) to
O(n_active log n_active) (policy re-sort).  This module measures that
claim directly: :func:`measure_scaling` runs an adversarial *staircase*
workload — ``n_active`` jobs arriving back-to-back with work far
exceeding the arrival span, so the whole set is simultaneously active —
at a ladder of ``n_active`` values, normalizes wall time per event, and
:func:`fit_exponent` least-squares fits the slope of
``log(wall/event)`` against ``log(n_active)``.

A per-event cost of ``c * n_active^p`` fits slope ``p``: the dense path
shows ``p ≈ 1``, the incremental kernels must stay **below 0.5** (the
CI gate in ``scripts/scaling_smoke.py`` / ``make scaling-smoke``).
Absolute wall times vary with the machine; the *exponent* is
machine-drift-free, which is why the gate fits it instead of thresholding
throughput.
"""

from __future__ import annotations

import math
import time
from typing import Iterator, Sequence

from repro.core.job import JobSpec

__all__ = [
    "SCALING_POLICIES",
    "staircase_jobs",
    "measure_scaling",
    "fit_exponent",
]

#: the order-driven policy set the exponent gate covers.  LAPS runs at a
#: small beta so its served head is o(n) — at the default beta=0.5 the
#: *policy* touches n/2 jobs per rebuild by definition and no event core
#: can make that sublinear.
SCALING_POLICIES = ("srpt", "sjf", "fifo", "laps")


def staircase_jobs(n_active: int, work: float = 50.0) -> Iterator[JobSpec]:
    """Adversarial staircase: ``n_active`` jobs arriving 1µs apart.

    The arrival span (``n_active`` µs) is far below ``work``, so every
    job is simultaneously active before the first completion — the
    regime where per-event costs proportional to the active-set size
    dominate.
    """
    for i in range(n_active):
        yield JobSpec(job_id=i, release=i * 1e-6, work=work, span=work)


def _policy(key: str):
    from repro.flowsim.policies import LAPS, policy_by_name

    if key == "laps":
        return LAPS(0.05)
    return policy_by_name(key)


def measure_scaling(
    n_actives: Sequence[int] = (100, 1_000, 10_000),
    policies: Sequence[str] = SCALING_POLICIES,
    *,
    m: int = 8,
    repeats: int = 1,
    seed: int = 0,
) -> dict[str, dict]:
    """Run the staircase ladder; returns per-policy points + fitted exponent.

    Each point records best-of-``repeats`` wall seconds, the event count
    (``2 * n_active``: one arrival and one completion per job — fixed
    per rung by construction, so rungs are comparable across PRs),
    microseconds per event, and the incremental structure counters.
    """
    from repro.flowsim.engine import FlowSimConfig
    from repro.flowsim.stream import simulate_stream

    # promote at construction: the ladder measures the *pure*
    # incremental path at every rung, not the adaptive hybrid (small
    # rungs would otherwise stay dense below incremental_min_active and
    # pollute the fitted exponent with the dense path's slope)
    config = FlowSimConfig(incremental_min_active=0)
    out: dict[str, dict] = {}
    for key in policies:
        points = []
        for n in n_actives:
            best = float("inf")
            best_perf: dict = {}
            events = 0
            mean_flow = 0.0
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                res = simulate_stream(
                    staircase_jobs(n), m, _policy(key), seed=seed,
                    config=config,
                )
                dt = time.perf_counter() - t0
                if dt < best:
                    best = dt
                    best_perf = dict(res.extra.get("perf", {}))
                    events = int(res.extra["events"])
                    mean_flow = res.mean_flow
            point = {
                "n_active": int(n),
                "wall_s": best,
                "events": events,
                "us_per_event": 1e6 * best / events if events else None,
                "mean_flow": mean_flow,
            }
            for counter in (
                "order_ops", "calendar_pops", "calendar_invalidations"
            ):
                if counter in best_perf:
                    point[counter] = int(best_perf[counter])
            points.append(point)
        out[key] = {
            "points": points,
            "exponent": fit_exponent(
                [p["n_active"] for p in points],
                [p["wall_s"] / p["events"] for p in points],
            ),
        }
    return out


def fit_exponent(ns: Sequence[int], per_event: Sequence[float]) -> float:
    """Least-squares slope of ``log(per_event)`` vs ``log(n)``.

    The scaling exponent ``p`` of a per-event cost ``c * n^p``; needs at
    least two rungs.
    """
    if len(ns) != len(per_event) or len(ns) < 2:
        raise ValueError("need >= 2 aligned (n, per_event) points")
    xs = [math.log(float(n)) for n in ns]
    ys = [math.log(float(v)) for v in per_event]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
