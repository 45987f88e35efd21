"""Weighted flow time policies (extension beyond the paper).

The paper's objective is unweighted average flow; the natural
generalization weights each job's waiting by an importance ``w_i`` and
minimizes ``Σ w_i (f_i - r_i)``.  Standard preemptive heuristics:

* :class:`HDF` — Highest Density First: static priority ``w_i / W_i``
  (the preemptive analogue of weighted-shortest-processing-time);
* :class:`WSRPT` — Weighted SRPT: dynamic priority ``w_i / remaining_i``;
* :class:`WDrep` — weighted DREP: on an arrival each processor switches
  with probability ``w_new / W_active`` (the newcomer's share of the
  total active weight) and completion re-draws pick a job with
  probability proportional to its weight.  With unit weights this is
  exactly the paper's DREP; the expected processor share of job ``j``
  becomes ``m · w_j / W_active``, a weighted equi-partition.

``WDrep`` keeps DREP's practicality: preemptions happen only on arrivals
and the expected number per arrival is ``m · w_new / W_active ≤ m``
(still one when weights are balanced).
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.policies.drep import (
    _FREE,
    _DrepBase,
    _one_proc_rates,
    _one_proc_rates_arr,
    _unassigned_ids,
)
from repro.flowsim.rates import priority_waterfill

__all__ = ["HDF", "WSRPT", "WDrep"]


class _WeightAware(Policy):
    """Mixin: policies that need per-job weights from the trace.

    The engine exposes weights via ``set_weights`` before the run; views
    carry only ids, so weighted policies index this table.
    """

    def __init__(self) -> None:
        self._weights: np.ndarray | None = None

    def set_weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    def weights_of(self, view: ActiveView) -> np.ndarray:
        return self._weights_for(view.job_ids)

    def _weights_for(self, job_ids: np.ndarray) -> np.ndarray:
        if self._weights is None:
            return np.ones(job_ids.size)
        return self._weights[job_ids]


class HDF(_WeightAware):
    """Serve jobs in decreasing static density ``weight / work``."""

    name = "HDF"
    clairvoyant = True
    rates_stable = True  # density uses static weight / total work

    def rates(self, view: ActiveView) -> np.ndarray:
        density = self.weights_of(view) / view.work
        order = np.lexsort((view.job_ids, -density))
        return priority_waterfill(view.caps, order, view.m)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        density = self._weights_for(job_ids) / work
        order = np.lexsort((job_ids, -density))
        return priority_waterfill(caps, order, m)


class WSRPT(_WeightAware):
    """Serve jobs in decreasing dynamic density ``weight / remaining``."""

    name = "WSRPT"
    clairvoyant = True

    def rates(self, view: ActiveView) -> np.ndarray:
        remaining = np.maximum(view.remaining, 1e-300)
        density = self.weights_of(view) / remaining
        order = np.lexsort((view.job_ids, -density))
        return priority_waterfill(view.caps, order, view.m)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        rem = np.maximum(remaining, 1e-300)
        density = self._weights_for(job_ids) / rem
        order = np.lexsort((job_ids, -density))
        return priority_waterfill(caps, order, m)


class WDrep(_DrepBase):
    """Weight-proportional DREP (sequential-job form).

    Reduces to :class:`~repro.flowsim.policies.drep.DrepSequential` when
    every weight is 1.
    """

    name = "WDREP"

    def __init__(self) -> None:
        super().__init__()
        self._weights: np.ndarray | None = None

    def set_weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    def _weight(self, job_id: int) -> float:
        if self._weights is None:
            return 1.0
        return float(self._weights[job_id])

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        free = np.flatnonzero(self._assignment == _FREE)
        if free.size:
            self._assign(int(free[0]), job_id, preempt=False)
            return
        if self._weights is None:
            total = float(view.n)
            share = 1.0 / total
        else:
            total = float(self._weights[view.job_ids].sum())
            share = self._weight(job_id) / total
        flips = self._rng.random(self._assignment.size) < share
        winners = np.flatnonzero(flips)
        if winners.size == 0:
            return
        proc = int(winners[self._rng.integers(winners.size)])
        self._assign(proc, job_id, preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        for proc in freed:
            unassigned = _unassigned_ids(view.job_ids, self._assignment)
            if unassigned.size == 0:
                continue
            if self._weights is None:
                pick = int(unassigned[self._rng.integers(unassigned.size)])
            else:
                w = self._weights[unassigned]
                p = w / w.sum()
                pick = int(self._rng.choice(unassigned, p=p))
            self._assign(int(proc), pick, preempt=False)

    def rates(self, view: ActiveView) -> np.ndarray:
        assert self._assignment is not None
        return _one_proc_rates(view, self._assignment)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        return _one_proc_rates_arr(job_ids, caps, self._assignment)
