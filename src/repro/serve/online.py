"""Submit-while-running wrapper around the incremental flow engine.

:class:`OnlineScheduler` is the serving layer's view of one machine: a
clock that only moves forward (:meth:`OnlineScheduler.advance_to`), a
:meth:`~OnlineScheduler.submit` call that offers a job *now* (or at a
stamped future release), and a :meth:`~OnlineScheduler.drain` that runs
the machine empty and returns the exact
:class:`~repro.core.metrics.ScheduleResult` the batch simulator would
have produced for the same job sequence.

Admission control and rolling metrics are optional collaborators: when
an :class:`~repro.serve.admission.AdmissionController` is attached,
``submit`` may *shed* the job instead of queueing it; when a
:class:`~repro.serve.metrics.RollingMetrics` is attached, every
submission, shed and completion is recorded against the simulation
clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.autoscale.controller import AutoscaleController
from repro.autoscale.guard import AutoscaleConfig
from repro.core.job import JobSpec, ParallelismMode
from repro.core.metrics import ScheduleResult
from repro.flowsim.engine import FlowSimConfig, FlowStepper
from repro.flowsim.policies.base import Policy
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.metrics import RollingMetrics
from repro.serve.tenancy import MultiTenantAdmission

__all__ = ["OnlineScheduler", "SubmitOutcome"]


@dataclass(frozen=True)
class SubmitOutcome:
    """What happened to one offered job.

    ``job_id`` is the engine id of an accepted job, ``None`` when shed;
    ``decision`` explains why; ``backpressure`` ∈ [0, 1] is the load
    signal clients should use to slow down *before* sheds start.
    """

    job_id: int | None
    decision: AdmissionDecision
    backpressure: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.job_id is not None


class OnlineScheduler:
    """A live scheduler: one policy, one machine, jobs arriving over time.

    Parameters mirror :func:`repro.flowsim.simulate` — same ``m``,
    ``policy``, ``seed`` and :class:`~repro.flowsim.FlowSimConfig` give
    the same trajectory — plus the optional serving collaborators.
    """

    def __init__(
        self,
        m: int,
        policy: Policy,
        seed: int = 0,
        config: FlowSimConfig = FlowSimConfig(),
        admission: AdmissionController | None = None,
        metrics: RollingMetrics | None = None,
        autoscale: AutoscaleConfig | None = None,
    ) -> None:
        faults = None
        if autoscale is not None:
            if autoscale.m_max != m:
                raise ValueError(
                    f"autoscale.m_max ({autoscale.m_max}) must equal the "
                    f"machine size m ({m})"
                )
            from repro.faults.plan import FaultPlan

            faults = FaultPlan((), name="elastic").timeline(m)
        self._stepper = FlowStepper(
            m, policy, seed=seed, config=config, faults=faults
        )
        self.admission = admission
        self.metrics = metrics
        self._offered = 0
        self._shed = 0
        self._pumped = 0  # completion-log entries already sent to metrics
        #: tenant label per accepted job id (None = untenanted submission)
        self._tenant_of: list[str | None] = []
        self._controller: AutoscaleController | None = None
        if autoscale is not None:
            self._init_autoscale(autoscale, seed)

    def _init_autoscale(self, autoscale: AutoscaleConfig, seed: int) -> None:
        """Attach the elastic timeline and controller to a fresh engine."""
        # the controller name is fixed so a restored snapshot re-derives
        # the same jitter stream — serve determinism is per (seed, policy)
        self._controller = AutoscaleController(autoscale, seed=seed, name="serve")
        self._m_cur = autoscale.initial_m
        self._controller.bind(0.0, self._m_cur)
        self._next_tick = autoscale.tick
        #: (release, seq, work) of accepted jobs not yet past a tick —
        #: the controller's arrived-work ledger, release-ordered
        self._unreleased: list[tuple[float, int, float]] = []
        self._arr_seq = 0
        for p in range(self._m_cur, self._stepper.m):
            self._stepper.faults.push_action(0.0, {"kind": "crash", "proc": p})
        self._stepper.refresh_event_budget()

    # -- plumbing shared with snapshot/restore -----------------------------

    @property
    def stepper(self) -> FlowStepper:
        return self._stepper

    @classmethod
    def _from_stepper(
        cls,
        stepper: FlowStepper,
        tenant_of: list[str | None],
        admission: AdmissionController | None = None,
        metrics: RollingMetrics | None = None,
        offered: int | None = None,
        shed: int = 0,
        autoscale_state: dict | None = None,
    ) -> "OnlineScheduler":
        sched = cls.__new__(cls)
        sched._stepper = stepper
        sched.admission = admission
        sched.metrics = metrics
        sched._offered = stepper.n_jobs + shed if offered is None else offered
        sched._shed = shed
        sched._pumped = len(stepper.completion_log)
        sched._tenant_of = tenant_of
        sched._controller = None
        if autoscale_state is not None:
            sched._controller = AutoscaleController.from_state_dict(
                autoscale_state["controller"]
            )
            sched._m_cur = int(autoscale_state["m_cur"])
            sched._next_tick = float(autoscale_state["next_tick"])
            sched._unreleased = [
                (float(r), int(s), float(w))
                for r, s, w in autoscale_state["unreleased"]
            ]
            sched._arr_seq = int(autoscale_state["arr_seq"])
        return sched

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        return self._stepper.now

    @property
    def m(self) -> int:
        return self._stepper.m

    @property
    def policy(self) -> Policy:
        return self._stepper.policy

    @property
    def n_submitted(self) -> int:
        """Jobs accepted into the engine (excludes sheds)."""
        return self._stepper.n_jobs

    @property
    def n_offered(self) -> int:
        """All jobs ever offered, accepted or shed."""
        return self._offered

    @property
    def n_shed(self) -> int:
        return self._shed

    @property
    def n_completed(self) -> int:
        return self._stepper.n_completed

    @property
    def n_active(self) -> int:
        return self._stepper.n_active + self._stepper.n_pending

    @property
    def drained(self) -> bool:
        return self._stepper.drained

    def query(self, job_id: int) -> dict:
        """Status of one accepted job: pending, running or completed."""
        st = self._stepper
        if not 0 <= job_id < st.n_jobs:
            raise KeyError(f"unknown job {job_id}")
        flow = st.flow_time_of(job_id)
        spec = st.specs[job_id]
        if flow is not None:
            return {
                "job_id": job_id,
                "state": "completed",
                "flow_time": flow,
                "finish": spec.release + flow,
            }
        if job_id in st.active_ids():
            return {
                "job_id": job_id,
                "state": "running",
                "remaining": st.remaining_of(job_id),
            }
        return {"job_id": job_id, "state": "pending", "release": spec.release}

    def stats(self) -> dict:
        """Instantaneous counters plus windowed metrics when attached."""
        out = {
            "now": self.now,
            "m": self.m,
            "policy": self.policy.name,
            "offered": self.n_offered,
            "submitted": self.n_submitted,
            "shed": self.n_shed,
            "completed": self.n_completed,
            "active": self._stepper.n_active,
            "pending": self._stepper.n_pending,
            "backlog_work": self._stepper.backlog_work(),
            "events": self._stepper.events,
        }
        if self._controller is not None:
            summary = self._controller.summary()
            out["autoscale"] = {
                "m_current": self._m_cur,
                "m_min": self._controller.config.m_min,
                "m_max": self._controller.config.m_max,
                "ticks": summary["ticks"],
                "scale_ups": summary["scale_ups"],
                "scale_downs": summary["scale_downs"],
                "capacity_seconds": summary["capacity_seconds"],
                "displaced_work": self._stepper.displaced_work,
                "requeues": len(self._stepper.requeue_log),
            }
        if self.admission is not None:
            out["load_estimate"] = self.admission.load_estimate(self.now)
            out["backpressure"] = self.admission.backpressure(
                self.now, self.n_active
            )
        if isinstance(self.admission, MultiTenantAdmission):
            out["tenants"] = self.admission.tenant_stats(self.now)
        if self.metrics is not None:
            out["window"] = self.metrics.windowed(self.now)
        return out

    # -- the online API ----------------------------------------------------

    def submit(
        self,
        work: float,
        span: float | None = None,
        mode: ParallelismMode | str = ParallelismMode.SEQUENTIAL,
        weight: float = 1.0,
        release: float | None = None,
        tenant: str | None = None,
    ) -> SubmitOutcome:
        """Offer one job; returns whether it was queued or shed.

        ``release`` defaults to the current clock (``now``); a future
        release stamps the job as a scheduled arrival (the clock does
        *not* jump to it).  Submitting into the past is an error — the
        trajectory up to ``now`` is already fixed.  ``tenant`` labels the
        job for multi-tenant admission, per-tenant metrics and the
        per-tenant drained report; ``None`` keeps the single-tenant
        behavior exactly.
        """
        if isinstance(mode, str):
            mode = ParallelismMode(mode)
        if release is None:
            release = self.now
        if span is None:
            span = work if mode is ParallelismMode.SEQUENTIAL else work / self.m
        self._offered += 1
        decision = AdmissionDecision.ACCEPT
        backpressure = 0.0
        if self.admission is not None:
            self.admission.observe(release, work)
            if isinstance(self.admission, MultiTenantAdmission):
                decision = self.admission.decide_tenant(
                    t=release,
                    tenant=tenant if tenant is not None else "default",
                    work=work,
                    active=self.n_active,
                    backlog_work=self._stepper.backlog_work(),
                )
            else:
                decision = self.admission.decide(
                    t=release,
                    work=work,
                    active=self.n_active,
                    backlog_work=self._stepper.backlog_work(),
                )
            backpressure = self.admission.backpressure(release, self.n_active)
        if decision is not AdmissionDecision.ACCEPT:
            self._shed += 1
            if self.metrics is not None:
                self.metrics.on_shed(release, tenant=tenant)
            return SubmitOutcome(None, decision, backpressure)
        spec = JobSpec(
            job_id=self._stepper.n_jobs,
            release=release,
            work=work,
            span=span,
            mode=mode,
            weight=weight,
        )
        job_id = self._stepper.add_job(spec)
        self._tenant_of.append(tenant)
        if self._controller is not None:
            heapq.heappush(self._unreleased, (release, self._arr_seq, work))
            self._arr_seq += 1
        if self.metrics is not None:
            self.metrics.on_submit(release, tenant=tenant)
        return SubmitOutcome(job_id, decision, backpressure)

    def submit_spec(self, spec: JobSpec) -> int:
        """Register a pre-built spec verbatim, bypassing admission control.

        The spec's ``job_id`` must equal :attr:`n_submitted` — this is the
        replay path used by the equivalence tests, where the job sequence
        must match an offline trace exactly.
        """
        self._offered += 1
        job_id = self._stepper.add_job(spec)
        self._tenant_of.append(None)
        if self._controller is not None:
            heapq.heappush(
                self._unreleased, (float(spec.release), self._arr_seq, float(spec.work))
            )
            self._arr_seq += 1
        if self.metrics is not None:
            self.metrics.on_submit(spec.release)
        return job_id

    # -- tenancy -----------------------------------------------------------

    def tenant_of(self, job_id: int) -> str | None:
        """Tenant label of an accepted job (``None`` = untenanted)."""
        return self._tenant_of[job_id]

    @property
    def tenant_labels(self) -> list[str | None]:
        """Tenant label per accepted job id (a copy)."""
        return list(self._tenant_of)

    def flows_by_tenant(self) -> dict[str, list[float]]:
        """Completed flow times grouped by tenant, in completion order.

        Untenanted jobs land under ``"default"`` so a mixed trace still
        sums to the global result.
        """
        out: dict[str, list[float]] = {}
        for job_id, _finish in self._stepper.completion_log:
            flow = self._stepper.flow_time_of(job_id)
            assert flow is not None
            label = self._tenant_of[job_id] or "default"
            out.setdefault(label, []).append(float(flow))
        return out

    def advance_to(self, t: float) -> None:
        """Run the machine forward to sim-time ``t``; never rewinds."""
        if self._controller is not None:
            self._advance_elastic(float(t))
        else:
            self._stepper.advance_to(t)
        self._pump_completions()

    def drain(self) -> ScheduleResult:
        """Run until every accepted job completes; return the full result.

        The result is directly comparable to (and, for a faithfully
        replayed trace, identical to) :func:`repro.flowsim.simulate` on
        the same job sequence.  Under autoscale the controller keeps
        ticking through the drain — the machine empties at whatever
        capacity the closed loop decides, not at a frozen m.
        """
        if self._controller is not None:
            while not self._stepper.drained:
                self._advance_elastic(self._next_tick)
        else:
            self._stepper.drain()
        self._pump_completions()
        return self._stepper.result()

    # -- elastic capacity (autoscale attached) -----------------------------

    def _advance_elastic(self, t: float) -> None:
        """Advance to ``t``, firing controller ticks at fixed boundaries.

        Ticks land at exact multiples of the configured tick regardless
        of how callers chunk their ``advance_to`` calls, which is what
        makes the decision trace a pure function of the journaled request
        sequence (and thus bit-for-bit recoverable).
        """
        while self._next_tick <= t:
            boundary = self._next_tick
            self._stepper.advance_to(boundary)
            self._autoscale_tick(boundary)
            self._next_tick = boundary + self._controller.config.tick
        self._stepper.advance_to(t)

    def _autoscale_tick(self, t: float) -> None:
        st = self._stepper
        arrived = 0.0
        while self._unreleased and self._unreleased[0][0] <= t:
            arrived += heapq.heappop(self._unreleased)[2]
        future_work = sum(w for _, _, w in self._unreleased)
        backlog = max(0.0, st.backlog_work() - future_work)
        target = self._controller.observe(
            t,
            arrived_work=arrived,
            backlog_work=backlog,
            n_active=st.n_active,
        )
        if target == self._m_cur:
            return
        cfg = self._controller.config
        if target > self._m_cur:
            for p in range(self._m_cur, target):
                st.faults.push_action(t, {"kind": "recover", "proc": p})
        else:
            for p in range(target, self._m_cur):
                st.faults.push_action(t, {"kind": "crash", "proc": p})
            if cfg.displace:
                n_victims = max(0, min(st.n_active, self._m_cur) - target)
                if n_victims:
                    for j in sorted(st.active_ids())[-n_victims:]:
                        st.faults.push_action(
                            t,
                            {
                                "kind": "displace",
                                "job_id": int(j),
                                "resubmit_after": cfg.requeue_delay,
                            },
                        )
        self._m_cur = target
        st.refresh_event_budget()

    @property
    def m_effective(self) -> int:
        """Current controlled capacity (= ``m`` without autoscale)."""
        if self._controller is None:
            return self._stepper.m
        return self._m_cur

    @property
    def autoscale(self) -> AutoscaleController | None:
        return self._controller

    def autoscale_state_dict(self) -> dict | None:
        """Snapshot payload for the elastic layer (None when disabled)."""
        if self._controller is None:
            return None
        return {
            "controller": self._controller.state_dict(),
            "m_cur": self._m_cur,
            "next_tick": self._next_tick,
            "unreleased": [list(e) for e in self._unreleased],
            "arr_seq": self._arr_seq,
        }

    def result(self, partial: bool = True) -> ScheduleResult:
        """Result so far (completed jobs only unless already drained)."""
        return self._stepper.result(partial=partial and not self.drained)

    def _pump_completions(self) -> None:
        if self.metrics is None and not isinstance(
            self.admission, MultiTenantAdmission
        ):
            return
        log = self._stepper.completion_log
        for job_id, finish in log[self._pumped :]:
            flow = self._stepper.flow_time_of(job_id)
            assert flow is not None
            tenant = self._tenant_of[job_id]
            if self.metrics is not None:
                self.metrics.on_complete(finish, flow, tenant=tenant)
            if isinstance(self.admission, MultiTenantAdmission):
                self.admission.on_complete(
                    tenant if tenant is not None else "default"
                )
        self._pumped = len(log)
