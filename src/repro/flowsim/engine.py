"""Event-driven flow-level simulator.

Simulates jobs on an ``m``-processor machine under a
:class:`~repro.flowsim.policies.base.Policy`.  Between events the policy's
rate vector is constant, so job progress is linear and the engine jumps
straight to the earliest of (a) the next arrival, (b) the earliest
predicted completion, (c) a policy timer.  This is exact for every policy
in the paper's simulation study (their rate vectors only change at events)
and for SETF via its timers.

Two entry points share one core:

* :func:`simulate` — the batch harness: registers a whole
  :class:`~repro.workloads.traces.Trace` up front and drains it.
* :class:`FlowStepper` — the incremental core itself, usable directly:
  ``add_job`` registers jobs *while the clock runs* and ``advance_to``
  processes events up to a horizon, which is what the online serving
  layer (:mod:`repro.serve`) builds on.

This mirrors the paper's simulation methodology (Sec. V-A): no scheduling
or preemption overheads are charged, so results "can be thought of as the
lower bounds of what these scheduling algorithms can achieve".

Invariant checks (rates within per-job caps, total rate within machine
capacity) are *amortized*: full-strength on the first rate computation
and every :attr:`FlowSimConfig.check_every_k`-th thereafter, so simulation
bugs still fail loudly without paying four array passes per event.  Tests
that exercise the checks set ``check_every_k=1``.

There is one event loop (``FlowStepper._run``), which both entry points
drive.  Its active set is a flat structure-of-arrays: persistent,
id-sorted parallel buffers (ids / remaining / caps / tol / work /
release) read and updated in place — no per-event gathers against the
master job table.  Order-driven policies switch to an O(log n) backing
(:mod:`repro.flowsim.order`) once their active set grows past a
threshold.  Policies that implement the vectorized
:meth:`~repro.flowsim.policies.base.Policy.rates_array` hook are fed the
buffers directly; the engine materializes an
:class:`~repro.flowsim.policies.base.ActiveView` only for policy hooks,
timers, and policies that only implement ``rates(view)``.  Policies
declaring :attr:`~repro.flowsim.policies.base.Policy.rates_stable` have
their rate vector reused until the composition of the active set
changes.  ``ScheduleResult.extra["perf"]`` reports what the caches did
(:class:`repro.perf.PerfCounters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.job import JobSpec, ParallelismMode
from repro.core.metrics import ScheduleResult
from repro.core.rng import RngFactory
from repro.dag.profile import ParallelismProfile
from repro.flowsim.order import CompletionCalendar, OrderIndex, sparse_sum
from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import equal_split
from repro.perf.counters import PerfCounters
from repro.workloads.traces import Trace

__all__ = [
    "FlowSimConfig",
    "FlowStepper",
    "simulate",
    "FlowSimError",
    "default_max_events",
]

_RATE_TOL = 1e-7
#: relative clock tolerance used when admitting arrivals that are "due now"
_ADMIT_TOL = 1e-15
_INF = float("inf")
#: the order backing's allocation while every processor is down
_NO_ALLOC = (np.empty(0, dtype=np.int64), np.empty(0, dtype=float), 0.0)


class FlowSimError(RuntimeError):
    """Raised when a policy violates an engine invariant or the run stalls."""


def _make_view(
    t: float,
    m: int,
    job_ids: np.ndarray,
    remaining: np.ndarray,
    work: np.ndarray,
    release: np.ndarray,
    caps: np.ndarray,
    speed: float,
) -> ActiveView:
    """Build an :class:`ActiveView` without the frozen-dataclass
    ``__init__`` (one ``object.__setattr__`` per field, ~3× the cost of a
    plain dict fill); field values are exactly what the constructor would
    store, so views from either path are indistinguishable."""
    view = ActiveView.__new__(ActiveView)
    view.__dict__.update(
        t=t,
        m=m,
        job_ids=job_ids,
        remaining=remaining,
        work=work,
        release=release,
        caps=caps,
        speed=speed,
    )
    return view


def default_max_events(n: int) -> int:
    """Event-budget used when :attr:`FlowSimConfig.max_events` is ``None``.

    ``60 * n + 1000`` for an ``n``-job run: generous against the ~3 events
    a job normally costs (arrival, completion, a few timer/re-rate events)
    yet finite, so Zeno behaviour from a buggy policy timer raises
    :class:`FlowSimError` instead of hanging the run.
    """
    return 60 * n + 1000


@dataclass(frozen=True)
class FlowSimConfig:
    """Engine knobs.

    ``completion_tol`` is the relative remaining-work threshold below which
    a job counts as finished (guards float drift); ``max_events`` bounds the
    event loop (default :func:`default_max_events`, i.e. ``60 * n + 1000``)
    to catch Zeno behaviour from a buggy policy timer.

    ``speed`` implements **resource augmentation** (Sec. II): every
    processor runs ``speed`` times faster than the adversary's unit-speed
    machine.  Theorem 1.1 gives DREP O(1/ε³)-competitiveness at speed
    4+ε; benches use this to compare DREP-at-speed-s against OPT proxies
    at speed 1.  Rate caps and the total-capacity check are unchanged
    (they are in *processors*); only work drains faster.

    ``use_profiles`` turns on **changing-parallelism** simulation for jobs
    carrying a DAG: the per-job rate cap follows the DAG's parallelism
    profile (:class:`repro.dag.ParallelismProfile`) as the job's attained
    work crosses profile breakpoints, instead of the paper's
    equally-parallel assumption.  Breakpoints generate exact event times,
    so the simulation stays event-exact.

    ``record_segments`` stores the piecewise-constant schedule itself:
    the result's ``extra["segments"]`` becomes a list of
    ``(t_start, t_end, {job_id: rate})`` tuples — every constant-rate
    interval with its non-zero allocations.  Costs memory (one entry per
    event); meant for schedule-shape verification and visualization, not
    large sweeps.

    ``check_every_k`` amortizes the rate-invariant checks: the cap /
    total-capacity / negativity passes run on the first rate computation
    and every ``k``-th thereafter (the shape check is always on).  The
    default of 32 keeps buggy policies failing within a few dozen events
    while removing four full array passes from the steady-state hot loop;
    tests that exercise the checks directly set ``check_every_k=1``.

    ``use_incremental`` enables the O(log n) order backing of the event
    loop for policies that declare an
    :class:`~repro.flowsim.policies.base.OrderSpec`: the engine maintains
    their priority order incrementally across admissions / completions /
    fault evictions (:class:`repro.flowsim.order.OrderIndex`), allocates
    rates by walking only the O(m) order head (or the O(beta n) LAPS
    share set), and picks the next completion from a lazy-invalidation
    calendar (:class:`repro.flowsim.order.CompletionCalendar`) instead
    of the dense finish-time sweep — per-event work then scales with the
    *change*, not with ``n_active``.  Bit-for-bit identical to the dense
    backing by construction (goldens plus the incremental≡dense
    Hypothesis suite pin it); ``False`` keeps the dense ``np.lexsort``
    backing, which is mainly useful for equivalence testing and A/B
    benches.

    ``incremental_min_active`` is the promotion threshold for that
    backing: the run starts on the dense buffers and switches to the
    incremental structures the first time the active set reaches this
    many jobs (one O(n log n) build from the live buffers; promotion is
    one-way).  Below a thousand-odd active jobs one C-speed
    ``np.lexsort`` per event beats Python-level order maintenance, so
    promoting immediately would *slow down* low-concurrency runs — the
    default sits just under the measured crossover (~1.5k for SRPT and
    FIFO alike).  ``0`` promotes at construction (the pure-incremental
    mode the scaling benches and the equivalence suite measure).  The
    switch is unobservable in results: both backings are bit-for-bit
    equal, so a promoted run composes two identical trajectory
    prefixes.

    Every other execution choice — the vectorized ``rates_array`` hook
    versus ``rates(view)``, sparse rate patches, the sparse segment
    solve — is made by the engine from the policy and the run, never by
    a knob, because all of them give the same trajectory.
    """

    completion_tol: float = 1e-9
    max_events: int | None = None
    speed: float = 1.0
    use_profiles: bool = False
    record_segments: bool = False
    check_every_k: int = 32
    use_incremental: bool = True
    incremental_min_active: int = 1024

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError("speed must be > 0")
        if self.check_every_k < 1:
            raise ValueError("check_every_k must be >= 1")
        if self.incremental_min_active < 0:
            raise ValueError("incremental_min_active must be >= 0")


class _IncrementalCore:
    """Engine-side state for the event loop's O(log n) order backing.

    One instance per run of a policy with an
    :class:`~repro.flowsim.policies.base.OrderSpec`.  Holds the live
    priority order (:class:`~repro.flowsim.order.OrderIndex`, kept in
    sync by the admission / completion / fault-eviction hooks), the
    completion calendar, the cached sparse allocation, and the *dust
    set* — jobs admitted or resumed already within completion tolerance.

    The dust set is what makes completion detection O(served): every
    active non-dust job has ``rem > tol`` at segment start (its ``rem``
    only moves while served, and crossing the tolerance while served is
    caught in that segment), so the dense ``rem <= tol`` sweep can be
    replaced by checking the served set plus the dust set.

    ``alloc`` caches ``(positions, rates, rsum)`` — positions into the
    id-sorted active buffers, ascending; every cached rate is strictly
    positive, so the positions *are* the served set.  It is invalidated
    (set to ``None``) at exactly the points the dense backing drops
    ``_rates_cache``: any composition change.  Positions therefore stay
    valid for the cache's whole lifetime.
    """

    __slots__ = ("kind", "neg", "share", "beta", "order", "cal",
                 "cal_jobs", "alloc", "dust")

    def __init__(self, spec, policy: Policy) -> None:
        self.kind = spec.key
        self.neg = spec.descending
        self.share = spec.alloc == "share_topk"
        self.beta = float(getattr(policy, "beta", 1.0))
        self.order = OrderIndex()
        self.cal = CompletionCalendar()
        self.cal_jobs: set[int] = set()  # jobs with a live calendar entry
        self.alloc: tuple[np.ndarray, np.ndarray, float] | None = None
        self.dust: list[int] = []

    def key_tie(self, j: int, rem: float, work: float,
                rel: float) -> tuple[float, int]:
        """The ``(key, tie)`` pair job ``j`` sorts under (Python floats —
        ``(key, tie)`` ascending replicates the policy's lexsort)."""
        if self.kind == "remaining":
            k = rem
        elif self.kind == "work":
            k = work
        else:
            k = rel
        if self.neg:
            return -k, -j
        return k, j

    def insert(self, j: int, rem: float, work: float, rel: float,
               tol: float) -> None:
        """Track a job joining the active set (admission or fault resume)."""
        self.order.insert(*self.key_tie(j, rem, work, rel))
        if rem <= tol:
            self.dust.append(j)
        self.alloc = None

    def drop(self, j: int, rem: float, work: float, rel: float) -> None:
        """Forget a job leaving the active set (completion or eviction)."""
        self.order.remove(*self.key_tie(j, rem, work, rel))
        self.cal.discard(j)
        self.cal_jobs.discard(j)
        self.alloc = None

    def predict(self, served: list[int], quotients: list[float]) -> float:
        """Re-file the served jobs' completion quotients ``rem / eff`` and
        return the earliest (``inf`` when nothing is served); entries of
        jobs that left the served set are invalidated."""
        cal = self.cal
        newset = set(served)
        for j in self.cal_jobs - newset:
            cal.discard(j)
        self.cal_jobs = newset
        if not newset:
            return _INF
        for j, q in zip(served, quotients):
            cal.update(j, q)
        return cal.min_quotient()

    def rekey(self, served: list[int], olds: list[float],
              news: list[float]) -> None:
        """Move the served jobs to their decremented remaining-work keys
        (SRPT's order moves only where work was done)."""
        order = self.order
        neg = self.neg
        for j, ov, nv in zip(served, olds, news):
            if nv == ov:
                continue
            if neg:
                order.remove(-ov, -j)
                order.insert(-nv, -j)
            else:
                order.remove(ov, j)
                order.insert(nv, j)

    def take_dust(self, dpos: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Merge the dust set into the completion positions ``dpos``
        (ascending positions into ``ids``).  A fault eviction may have
        removed a dust job before any segment ran; such stale entries
        are dropped."""
        cand = set(dpos.tolist())
        na = ids.size
        for j in self.dust:
            p = int(ids.searchsorted(j))
            if p < na and ids[p] == j:
                cand.add(p)
        self.dust.clear()
        return np.array(sorted(cand), dtype=np.int64)


class FlowStepper:
    """Incremental, event-exact core of the flow-level simulator.

    Drives one policy on an ``m``-processor machine event by event and
    accepts new jobs *while the clock runs* — the foundation of both
    the batch :func:`simulate` wrapper (register a whole trace, then
    :meth:`drain`) and the online serving layer (:mod:`repro.serve`),
    which submits jobs as they arrive over the wire.

    :meth:`drain` runs the event loop to the end; :meth:`advance_to`
    bounds it by a *horizon* so the clock can be parked at an arbitrary
    time ``t`` before mutating the job set.  A horizon stop splits a
    constant-rate segment in two — one more event, and the split
    progress may round differently — but leaves the schedule otherwise
    unchanged: job progress is linear in time, ``Policy.rates`` is a
    pure function of the view, and randomness only happens inside
    arrival/completion hooks.  When horizons coincide with event times
    (e.g. submitting each job at exactly its release), the trajectory —
    including every RNG draw — is *bit-for-bit* the same as the batch
    run.

    Jobs must be registered with dense ids ``0, 1, 2, ...`` in
    non-decreasing release order, and never released in the stepper's
    past; :class:`repro.serve.online.OnlineScheduler` handles the
    bookkeeping for callers that just want to submit work.
    """

    def __init__(
        self,
        m: int,
        policy: Policy,
        seed: int = 0,
        config: FlowSimConfig = FlowSimConfig(),
        faults=None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.policy = policy
        self.seed = int(seed)
        self.config = config
        # ``faults`` is a repro.faults FaultPlan (compiled here) or an
        # already-compiled FaultTimeline; duck-typed so this module never
        # imports repro.faults (the dependency points the other way)
        if faults is not None and not hasattr(faults, "pop_due"):
            faults = faults.timeline(self.m)
        if faults is not None and faults.m != self.m:
            raise ValueError(
                f"fault timeline compiled for m={faults.m}, engine has m={self.m}"
            )
        self.faults = faults
        self._fault_log: list[dict] = []
        self._lost_work = 0.0
        self._displaced_work = 0.0
        self._requeue_log: list[dict] = []
        self._suspended: set[int] = set()
        rng = RngFactory(seed).stream(f"flowsim/{policy.name}")
        policy.reset(self.m, rng)

        self._specs: list[JobSpec] = []
        self._profiles: list[ParallelismProfile | None] = []
        # master columns hold rows for job ids [_base, _n): row = id - _base.
        # _base is 0 for batch/online runs (every index below degenerates to
        # the absolute id); harvest() advances it, freeing completed-prefix
        # rows so a streamed run is O(active + pending) in memory
        self._base = 0
        cap = 16
        self._release = np.zeros(cap, dtype=float)
        self._work = np.zeros(cap, dtype=float)
        self._caps_all = np.zeros(cap, dtype=float)
        self._weights = np.ones(cap, dtype=float)
        self._rem = np.zeros(cap, dtype=float)
        self._tol = np.zeros(cap, dtype=float)
        self._flow = np.full(cap, np.nan, dtype=float)
        self._n = 0

        self._act_ids: list[int] = []
        self._t = 0.0
        self._next_arrival = 0
        self._completed = 0
        self._busy_time = 0.0
        self._events = 0
        self._segments: list[tuple[float, float, dict[int, float]]] = []
        #: append-only ``(job_id, finish_time)`` log for observers
        self._completions: list[tuple[int, float]] = []
        self._weights_dirty = False
        self._init_runtime_caches()

    def _init_runtime_caches(self) -> None:
        """Hot-loop state derived from the policy/config, never snapshotted.

        The active set is a flat structure-of-arrays: persistent parallel
        buffers ``_a_ids`` / ``_a_rem`` / ``_a_caps`` / ``_a_tol`` /
        ``_a_work`` / ``_a_rel`` whose first ``_na`` entries are valid,
        kept sorted ascending by job id by construction — admissions
        append dense increasing ids, completions compact left, and fault
        resumes insert at the searchsorted position.  The event loop reads
        and updates these slices in place; the master ``_rem`` column is
        refreshed only at completions/aborts and on :meth:`state_dict`.
        ``self._act_ids`` (a plain id list set by ``__init__`` /
        :meth:`from_state_dict`) seeds the buffers here and is then
        retired — the buffers are the only runtime truth.
        """
        cap = self._release.size
        self._a_ids = np.zeros(cap, dtype=np.int64)
        # the five float columns are rows of one (5, cap) block, so a
        # completion compacts all of them with a single 2-D memmove
        # instead of five 1-D ones; the named attributes are row *views*
        self._a_blk = np.zeros((5, cap), dtype=float)
        (
            self._a_rem,
            self._a_caps,
            self._a_tol,
            self._a_work,
            self._a_rel,
        ) = self._a_blk
        # scratch for per-segment finish times (no job state — outside
        # the block, never compacted, contents dead between events)
        self._a_fin = np.zeros(cap, dtype=float)
        # scratch holding the event loop's aligned rate vector: shifts
        # and appends mutate it in place instead of reallocating per
        # event (no job state; dead outside one loop pass)
        self._vec_buf = np.zeros(cap, dtype=float)
        ids = sorted(int(j) for j in self._act_ids)
        base = self._base
        self._na = len(ids)
        for k, j in enumerate(ids):
            self._a_ids[k] = j
            self._a_rem[k] = self._rem[j - base]
            self._a_caps[k] = self._caps_all[j - base]
            self._a_tol[k] = self._tol[j - base]
            self._a_work[k] = self._work[j - base]
            self._a_rel[k] = self._release[j - base]
        self._act_ids = None  # superseded by the SoA buffers

        self._rates_cache: tuple[np.ndarray, float] | None = None
        self._rate_calls = 0
        self._max_events = 0  # 0 = recompute from config/_n on next run
        cfg = self.config
        self._check_k = cfg.check_every_k
        self._speed = float(cfg.speed)
        self._use_profiles = cfg.use_profiles
        self._record_segments = cfg.record_segments
        self._update_next_rel()
        ptype = type(self.policy)
        self._has_arrival_hook = ptype.on_arrival is not Policy.on_arrival
        self._has_completion_hook = (
            ptype.on_completion is not Policy.on_completion
        )
        self._has_timer = ptype.next_timer is not Policy.next_timer
        self._has_fault_hook = ptype.on_fault is not Policy.on_fault
        # policies without the vectorized hook are asked through
        # rates(view) instead (MLF, SETF, random)
        self._rates_array_fn = (
            self.policy.rates_array
            if ptype.rates_array is not Policy.rates_array
            else None
        )
        self._rates_patch_fn = (
            self.policy.rates_array_patch
            if self._rates_array_fn is not None
            and ptype.rates_array_patch is not Policy.rates_array_patch
            else None
        )
        # profile-driven caps move with attained work, which changes
        # between events without any composition change — no reuse then
        self._rates_stable = (
            bool(self.policy.rates_stable) and not self.config.use_profiles
        )
        # the order backing: policies declaring an OrderSpec get their
        # priority order maintained across events instead of re-lexsorted
        # per rate rebuild.  Profiles move caps between events (the order
        # alone no longer determines rates), timers need views anyway,
        # segment recording wants the dense vector, and weighted policies
        # fold a table the spec can't see — all of those stay dense.
        spec = getattr(self.policy, "order_spec", None)
        self._inc: _IncrementalCore | None = None
        self._inc_spec = None
        if (
            cfg.use_incremental
            and spec is not None
            and self._rates_array_fn is not None
            and not self._has_timer
            and not self._use_profiles
            and not self._record_segments
            and not hasattr(self.policy, "set_weights")
        ):
            self._inc_spec = spec
        self._inc_min = int(cfg.incremental_min_active)
        if self._inc_spec is not None and self._na >= self._inc_min:
            self._inc_promote()
        self.perf = PerfCounters()

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._t

    @property
    def n_jobs(self) -> int:
        """Number of jobs registered so far."""
        return self._n

    @property
    def n_completed(self) -> int:
        return self._completed

    @property
    def n_active(self) -> int:
        """Jobs admitted and not yet finished."""
        return self._na

    @property
    def n_pending(self) -> int:
        """Jobs registered but not yet admitted (release in the future)."""
        return self._n - self._next_arrival

    @property
    def drained(self) -> bool:
        """True when every registered job has completed."""
        return self._completed == self._n

    @property
    def events(self) -> int:
        return self._events

    @property
    def lost_work(self) -> float:
        """Work destroyed by fault aborts (redone from scratch)."""
        return self._lost_work

    @property
    def displaced_work(self) -> float:
        """Work redone because scale-downs displaced running jobs."""
        return self._displaced_work

    @property
    def requeue_log(self) -> list[dict]:
        """Append-only displacement records (job_id/t/resume_at/redone_work)."""
        return self._requeue_log

    def refresh_event_budget(self) -> None:
        """Recompute the Zeno event budget on the next advance.

        Callers that push dynamic fault actions (the autoscale loop's
        capacity changes and displacements) grow ``faults.n_points`` after
        the budget was first cached; this makes the next
        :meth:`advance_to` / :meth:`drain` re-derive it from the new count.
        """
        self._max_events = 0

    @property
    def completion_log(self) -> list[tuple[int, float]]:
        """Append-only ``(job_id, finish_time)`` pairs in completion order."""
        return self._completions

    @property
    def specs(self) -> list[JobSpec]:
        """Registered job specs, indexed by job id."""
        return self._specs

    def active_ids(self) -> list[int]:
        return self._a_ids[: self._na].tolist()

    def _active_pos(self, job_id: int) -> int:
        """Buffer position of an active job, or ``-1`` (binary search)."""
        na = self._na
        ids = self._a_ids[:na]
        pos = int(ids.searchsorted(job_id))
        if pos < na and ids[pos] == job_id:
            return pos
        return -1

    def remaining_of(self, job_id: int) -> float:
        """Remaining work of an admitted, unfinished job (O(log n_active))."""
        pos = self._active_pos(job_id)
        if pos < 0:
            raise KeyError(f"job {job_id} not active")
        return float(self._a_rem[pos])

    def flow_time_of(self, job_id: int) -> float | None:
        """Flow time of ``job_id`` if it has completed, else ``None``."""
        if not 0 <= job_id < self._n:
            raise KeyError(f"unknown job {job_id}")
        if job_id < self._base:
            raise KeyError(
                f"job {job_id} was harvested (folded into streaming metrics)"
            )
        f = float(self._flow[job_id - self._base])
        return None if np.isnan(f) else f

    def backlog_work(self) -> float:
        """Total remaining work of admitted jobs plus work of pending ones."""
        base = self._base
        active = float(self._a_rem[: self._na].sum()) if self._na else 0.0
        pending = float(
            self._work[self._next_arrival - base : self._n - base].sum()
        )
        return active + pending

    # -- job registration --------------------------------------------------

    def add_job(self, spec: JobSpec) -> int:
        """Register ``spec``; it is admitted when the clock reaches its release.

        Ids must be dense in registration order and releases non-decreasing
        (the same contract :class:`~repro.workloads.traces.Trace` enforces);
        a job must not be released in the stepper's past.
        """
        if spec.job_id != self._n:
            raise ValueError(
                f"job_id must be dense in submit order: expected {self._n}, "
                f"got {spec.job_id}"
            )
        base = self._base
        if self._n > base and spec.release < self._release[self._n - 1 - base]:
            raise ValueError("job releases must be non-decreasing")
        if spec.release < self._t - 1e-9 * max(1.0, self._t):
            raise ValueError(
                f"cannot register a job released in the past "
                f"(release={spec.release:.6g} < now={self._t:.6g})"
            )
        self._ensure_capacity(self._n + 1 - base)
        j = self._n
        r = j - base
        self._release[r] = spec.release
        self._work[r] = spec.work
        self._caps_all[r] = spec.mode.rate_cap(self.m)
        self._weights[r] = spec.weight
        self._tol[r] = self.config.completion_tol * max(1.0, spec.work)
        self._flow[r] = np.nan
        self._specs.append(spec)
        prof: ParallelismProfile | None = None
        if (
            self.config.use_profiles
            and spec.mode is ParallelismMode.DAG
            and spec.dag is not None
        ):
            base = ParallelismProfile.from_dag(spec.dag)
            unit = spec.work / base.total_work
            prof = ParallelismProfile(
                work_breaks=base.work_breaks * unit,
                parallelism=base.parallelism,
            )
        self._profiles.append(prof)
        self._n += 1
        self._max_events = 0  # budget scales with n; recompute lazily
        if self._next_arrival == j:
            self._next_rel = float(spec.release)
        if hasattr(self.policy, "set_weights"):
            self._weights_dirty = True
        return j

    def add_jobs(self, specs: list[JobSpec]) -> None:
        """Bulk :meth:`add_job`: register a whole trace in one pass.

        Semantically identical to calling ``add_job`` per spec (same
        validation, same stored values bit for bit) but the per-job
        column writes become sliced vector stores, which matters when a
        harness registers thousands of jobs before every run.
        """
        n_new = len(specs)
        if not n_new:
            return
        n0 = self._n
        for i, spec in enumerate(specs):
            if spec.job_id != n0 + i:
                raise ValueError(
                    f"job_id must be dense in submit order: expected "
                    f"{n0 + i}, got {spec.job_id}"
                )
        rel = np.fromiter((s.release for s in specs), float, n_new)
        if n_new > 1 and (rel[1:] < rel[:-1]).any():
            raise ValueError("job releases must be non-decreasing")
        base = self._base
        if n0 > base and rel[0] < self._release[n0 - 1 - base]:
            raise ValueError("job releases must be non-decreasing")
        if rel[0] < self._t - 1e-9 * max(1.0, self._t):
            raise ValueError(
                f"cannot register a job released in the past "
                f"(release={rel[0]:.6g} < now={self._t:.6g})"
            )
        self._ensure_capacity(n0 + n_new - base)
        end = n0 + n_new
        r0, r1 = n0 - base, end - base
        work = np.fromiter((s.work for s in specs), float, n_new)
        self._release[r0:r1] = rel
        self._work[r0:r1] = work
        m = self.m
        self._caps_all[r0:r1] = np.fromiter(
            (s.mode.rate_cap(m) for s in specs), float, n_new
        )
        self._weights[r0:r1] = np.fromiter(
            (s.weight for s in specs), float, n_new
        )
        # completion_tol * max(1.0, work) elementwise — the same two
        # IEEE ops per entry as the scalar path
        self._tol[r0:r1] = self.config.completion_tol * np.maximum(1.0, work)
        self._flow[r0:r1] = np.nan
        self._specs.extend(specs)
        use_profiles = self.config.use_profiles
        for spec in specs:
            prof: ParallelismProfile | None = None
            if (
                use_profiles
                and spec.mode is ParallelismMode.DAG
                and spec.dag is not None
            ):
                base = ParallelismProfile.from_dag(spec.dag)
                unit = spec.work / base.total_work
                prof = ParallelismProfile(
                    work_breaks=base.work_breaks * unit,
                    parallelism=base.parallelism,
                )
            self._profiles.append(prof)
        self._n = end
        self._max_events = 0  # budget scales with n; recompute lazily
        if self._next_arrival == n0:
            self._next_rel = float(rel[0])
        if hasattr(self.policy, "set_weights"):
            self._weights_dirty = True

    def _ensure_capacity(self, rows: int) -> None:
        """Grow the master columns to hold ``rows`` stored rows.

        ``rows`` counts *stored* jobs (``_n - _base``), not absolute ids —
        after a harvest the columns only ever hold the unharvested tail.
        """
        cap = self._release.size
        if rows <= cap:
            return
        new = max(rows, 2 * cap)
        stored = self._n - self._base

        def grow(a: np.ndarray, fill: float) -> np.ndarray:
            out = np.full(new, fill, dtype=float)
            out[:stored] = a[:stored]
            return out

        self._release = grow(self._release, 0.0)
        self._work = grow(self._work, 0.0)
        self._caps_all = grow(self._caps_all, 0.0)
        self._weights = grow(self._weights, 1.0)
        self._rem = grow(self._rem, 0.0)
        self._tol = grow(self._tol, 0.0)
        self._flow = grow(self._flow, np.nan)

        def grow_active(a: np.ndarray) -> np.ndarray:
            out = np.zeros(new, dtype=a.dtype)
            out[: self._na] = a[: self._na]
            return out

        self._a_ids = grow_active(self._a_ids)
        blk = np.zeros((5, new), dtype=float)
        blk[:, : self._na] = self._a_blk[:, : self._na]
        self._a_blk = blk
        (
            self._a_rem,
            self._a_caps,
            self._a_tol,
            self._a_work,
            self._a_rel,
        ) = blk
        self._a_fin = np.zeros(new, dtype=float)
        self._vec_buf = np.zeros(new, dtype=float)

    # -- stepping ----------------------------------------------------------

    def _update_next_rel(self) -> None:
        i = self._next_arrival
        self._next_rel = (
            float(self._release[i - self._base]) if i < self._n else np.inf
        )

    def _push_weights(self) -> None:
        if self._weights_dirty:
            if self._base:
                # weight-aware policies index their table by absolute job
                # id; a harvested prefix makes that table unreconstructable
                raise FlowSimError(
                    "weighted policies are not supported after harvest() "
                    "(streaming mode)"
                )
            self.policy.set_weights(self._weights[: self._n].copy())
            self._weights_dirty = False
            self._rates_cache = None

    def _caps_for(self, ids: np.ndarray, remaining: np.ndarray) -> np.ndarray:
        base = self._base
        rows = ids - base if base else ids
        caps = self._caps_all[rows].copy()
        if self.config.use_profiles:
            for k, r in enumerate(rows):
                prof = self._profiles[r]
                if prof is not None:
                    attained = max(0.0, self._work[r] - remaining[k])
                    tol = self.config.completion_tol * max(1.0, self._work[r])
                    caps[k] = min(float(self.m), prof.cap_at(attained, tol=tol))
        return caps

    def _machine(self) -> tuple[int, float]:
        """Effective ``(processors up, work speed)`` right now: resource
        augmentation (Sec. II) times the current fault speed factor, both
        piecewise-constant between events."""
        if self.faults is None:
            return self.m, self._speed
        return self.faults.m_eff(), self._speed * self.faults.speed_factor()

    def _segment_caps(
        self, ids: np.ndarray, rem: np.ndarray, m_view: int
    ) -> np.ndarray:
        """Effective per-job caps for the current segment.

        Either the static cap buffer slice or a fresh array (profile caps,
        or caps clipped to the up-processor count) — never mutated in
        place.
        """
        if self._use_profiles and ids.size:
            caps = self._caps_for(ids, rem)
        else:
            caps = self._a_caps[: ids.size]
        if m_view < self.m:
            caps = np.minimum(caps, float(m_view))
        return caps

    def _build_view(self) -> ActiveView:
        na = self._na
        ids = self._a_ids[:na]
        rem = self._a_rem[:na]
        m_view, speed = self._machine()
        self.perf.view_builds += 1
        return _make_view(
            self._t,
            m_view,
            ids,
            rem,
            self._a_work[:na],
            self._a_rel[:na],
            self._segment_caps(ids, rem, m_view),
            speed,
        )

    def _view_at(self, t: float, na: int) -> ActiveView:
        """:meth:`_build_view` for the event loop, which keeps the clock
        and the active count in locals until it flushes them here."""
        self._t = t
        self._na = na
        return self._build_view()

    def _verify_rates(
        self, rates: np.ndarray, caps: np.ndarray, m: int
    ) -> np.ndarray:
        """Sign, per-job cap and total-capacity checks; returns the
        vector clipped at zero."""
        if (rates < -_RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: negative rate")
        if (rates > caps * (1 + _RATE_TOL) + _RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: rate exceeds per-job cap")
        if rates.sum() > m * (1 + _RATE_TOL) + _RATE_TOL:
            raise FlowSimError(
                f"{self.policy.name}: total rate {rates.sum():.6g} "
                f"exceeds m={m}"
            )
        return np.clip(rates, 0.0, None)

    def _profile_break_dt(
        self, ids: np.ndarray, rem: np.ndarray, served: np.ndarray,
        eff: np.ndarray,
    ) -> float:
        """Time to the next parallelism-profile breakpoint of any served
        job, so its cap change takes effect on time."""
        dt = _INF
        base = self._base
        ctol = self.config.completion_tol
        for k in np.flatnonzero(served):
            r = int(ids[k]) - base
            prof = self._profiles[r]
            if prof is None:
                continue
            tol = ctol * max(1.0, self._work[r])
            attained = max(0.0, self._work[r] - rem[k])
            brk = prof.next_break_after(attained, tol=tol)
            if brk is not None:
                dt_brk = float((brk - attained) / eff[k])
                if dt_brk < dt:
                    dt = dt_brk
        return dt

    def _remove_active(self, pos: int) -> None:
        """Drop the job at buffer position ``pos``, compacting left."""
        inc = self._inc
        if inc is not None:
            # the order holds the job's *current* key (the loop re-keys
            # served jobs before processing completions)
            inc.drop(
                int(self._a_ids[pos]),
                float(self._a_rem[pos]),
                float(self._a_work[pos]),
                float(self._a_rel[pos]),
            )
        na = self._na
        self._a_ids[pos : na - 1] = self._a_ids[pos + 1 : na]
        self._a_blk[:, pos : na - 1] = self._a_blk[:, pos + 1 : na]
        self._na = na - 1

    def _insert_active(self, j: int, rem_val: float) -> None:
        """Insert job ``j`` at its sorted position (fault resume path)."""
        na = self._na
        r = j - self._base
        pos = int(self._a_ids[:na].searchsorted(j))
        self._a_ids[pos + 1 : na + 1] = self._a_ids[pos:na]
        self._a_blk[:, pos + 1 : na + 1] = self._a_blk[:, pos:na]
        self._a_ids[pos] = j
        self._a_rem[pos] = rem_val
        self._a_caps[pos] = self._caps_all[r]
        self._a_tol[pos] = self._tol[r]
        self._a_work[pos] = self._work[r]
        self._a_rel[pos] = self._release[r]
        self._na = na + 1
        if self._inc is not None:
            self._inc.insert(
                j, float(rem_val), float(self._work[r]),
                float(self._release[r]), self._tol[r],
            )

    def _apply_due_faults(self) -> bool:
        """Apply every fault action scheduled at or before the clock;
        ``True`` when any was due.

        Machine-state actions (crash/recover/slowdowns) were already folded
        into the timeline by ``pop_due``; here we drop stale caches and give
        the policy its :meth:`Policy.on_fault` look.  Job aborts are
        replayed through the policy's completion/arrival hooks — an abort
        *is* a completion from the policy's point of view (its processors
        free up and re-draw) and the resubmission is an arrival, which
        preserves DREP's "preempt only on arrival" accounting.  Every
        action lands in the fault log with an ``applied`` flag.
        """
        due = self.faults.pop_due(self._t)
        for action in due:
            kind = action["kind"]
            entry = dict(action)
            entry["applied"] = True
            if kind in ("abort", "displace"):
                j = int(action["job_id"])
                pos = self._active_pos(j)
                if pos >= 0:
                    r = j - self._base
                    redone = float(self._work[r] - self._a_rem[pos])
                    resume_at = float(action["t"]) + float(
                        action.get("resubmit_after", 0.0)
                    )
                    if kind == "displace":
                        # capacity management, not a failure: same preempt
                        # + full-work requeue mechanics, separate books —
                        # every displaced unit must land in the requeue log
                        self._displaced_work += redone
                        self._requeue_log.append(
                            {
                                "job_id": j,
                                "t": float(action["t"]),
                                "resume_at": resume_at,
                                "redone_work": redone,
                            }
                        )
                    else:
                        self._lost_work += redone
                    self._remove_active(pos)
                    self._rem[r] = self._work[r]
                    self._suspended.add(j)
                    self._rates_cache = None
                    if self._has_completion_hook:
                        self.policy.on_completion(j, self._build_view())
                    self.faults.push_resume(resume_at, j)
                else:
                    # pending, finished, or already suspended: nothing to kill
                    entry["applied"] = False
            elif kind == "resume":
                j = int(action["job_id"])
                if j in self._suspended:
                    r = j - self._base
                    self._suspended.discard(j)
                    self._insert_active(j, float(self._work[r]))
                    self._rem[r] = self._work[r]
                    self._rates_cache = None
                    if self._has_arrival_hook:
                        self.policy.on_arrival(j, self._build_view())
                else:
                    entry["applied"] = False
            else:
                # machine-state change: composition is intact but the
                # effective capacity moved, so both caches are stale
                self._rates_cache = None
                if self._inc is not None:
                    self._inc.alloc = None
                if self._has_fault_hook:
                    self.policy.on_fault(action, self._build_view())
            self._fault_log.append(entry)
        return bool(due)

    def _run(self, horizon: float | None) -> None:
        """The event loop: process events up to ``horizon``, or until every
        registered job has completed when ``horizon`` is ``None``.

        One iteration is one event of the flow-level model (paper
        Sec. V-A): apply the fault actions due now, admit the arrivals
        due now, solve the constant-rate segment up to the next event
        (arrival, completion, policy timer, profile breakpoint, fault
        point or horizon), progress every job along it, and retire the
        jobs it finished — lowest id first, each completion hook seeing
        the active set after that job left.  A horizon stop splits a
        segment in two, which changes nothing observable: progress is
        linear in time and randomness only happens inside hooks.

        The active set has two backings, chosen from its observed size:
        the dense id-sorted buffers, and — once an order-driven policy's
        active set reaches ``incremental_min_active`` — the
        :class:`OrderIndex` plus :class:`CompletionCalendar` pair, whose
        per-event work scales with the change instead of the set.  Only
        the segment solve, the progress step (with SRPT's re-key) and the
        completion-candidate scan differ between them; both produce the
        same trajectory bit for bit.

        Per-iteration engine state lives in locals and is flushed back
        in the ``finally`` block; the rare paths that need ``self`` in
        sync (fault actions, views for hooks, timers and ``rates(view)``
        policies) flush the clock and active count first.
        """
        if self._weights_dirty:
            self._push_weights()
        faults = self.faults
        max_events = self._max_events
        if not max_events:
            max_events = self.config.max_events or default_max_events(self._n)
            if faults is not None:
                # each fault point costs O(1) extra events (segment split,
                # re-rate, possible resume); 8x is far above the worst case
                max_events += 8 * faults.n_points + 64
            self._max_events = max_events
        perf = self.perf
        policy = self.policy
        fn = self._rates_array_fn
        rates_stable = self._rates_stable
        patch_fn = self._rates_patch_fn if rates_stable else None
        has_completion = self._has_completion_hook
        has_arrival = self._has_arrival_hook
        has_timer = self._has_timer
        use_profiles = self._use_profiles
        record = self._record_segments
        # hook views and segment caps come straight off the buffers (the
        # hooks are hot for DREP: views are built inline, not via
        # _view_at, on this path)
        plain = faults is None and not use_profiles
        m = m_view = self.m
        speed = self._speed
        n = self._n
        admit_mul = 1.0 + _ADMIT_TOL
        a_ids = self._a_ids
        a_rem = self._a_rem
        a_caps = self._a_caps
        a_tol = self._a_tol
        a_work = self._a_work
        a_rel = self._a_rel
        a_fin = self._a_fin
        a_blk = self._a_blk
        vbuf = self._vec_buf
        flow = self._flow
        release = self._release
        work_all = self._work
        caps_all = self._caps_all
        tol_all = self._tol
        rem_all = self._rem
        completions = self._completions
        # master rows are stored base-relative; harvest() only runs
        # between passes, so the offset is stable here
        base = self._base
        radd = np.add.reduce
        rmin = np.minimum.reduce
        inc = self._inc
        inc_pending = self._inc_spec is not None and inc is None
        inc_min = self._inc_min
        ev0 = ev = self._events
        t = self._t
        na = self._na
        ja = self._next_arrival
        next_rel = self._next_rel
        cache = self._rates_cache
        busy = self._busy_time
        completed = self._completed
        # the amortized check cadence: the first rate computation and
        # every check_every_k-th one after it are verified
        check_k = self._check_k
        rc0 = rate_calls = self._rate_calls
        c_miss = c_hit = c_reuse = c_patch = c_views = 0
        # the dense completion scan may skip unserved jobs only when none
        # of them can already sit within tolerance: not on entry, and not
        # after an admission or a fault resume
        fresh = True
        # dense backing: the previous rate vector, kept structurally
        # aligned with the buffers across admissions and completions so
        # the policy's rates_array_patch can refresh it sparsely (a prefix
        # view of the _vec_buf scratch); None forces a full rebuild
        vec = None
        try:
            while True:
                ev += 1
                if ev > max_events:
                    raise FlowSimError(
                        f"{policy.name}: exceeded {max_events} events "
                        f"({completed}/{n} jobs done at t={t:.6g})"
                        " — Zeno loop?"
                    )

                # ---- faults due now (before arrivals: a processor that
                # crashed at t is already gone when a job arriving at t
                # draws) ----
                if faults is not None:
                    self._t = t
                    self._na = na
                    self._rates_cache = cache
                    if self._apply_due_faults():
                        na = self._na
                        cache = self._rates_cache
                        vec = None
                        fresh = True
                    m_view, speed = self._machine()

                # ---- admit arrivals due now ------------------------------
                thresh = t * admit_mul
                if next_rel <= thresh:
                    na0 = na
                    while ja < n and next_rel <= thresh:
                        r = ja - base
                        w = work_all[r]
                        a_ids[na] = ja
                        a_rem[na] = w
                        a_caps[na] = caps_all[r]
                        a_tol[na] = tol_all[r]
                        a_work[na] = w
                        a_rel[na] = release[r]
                        na += 1
                        rem_all[r] = w
                        if inc is not None:
                            wf = float(w)
                            inc.insert(ja, wf, wf, float(release[r]), tol_all[r])
                        ja += 1
                        next_rel = float(release[ja - base]) if ja < n else np.inf
                        cache = None
                        if has_arrival:
                            if plain:
                                c_views += 1
                                view = _make_view(
                                    t, m, a_ids[:na], a_rem[:na], a_work[:na],
                                    a_rel[:na], a_caps[:na], speed,
                                )
                            else:
                                view = self._view_at(t, na)
                            policy.on_arrival(ja - 1, view)
                    if vec is not None:
                        # admissions append (ids are handed out in sorted
                        # order) with rate 0 until the patch says otherwise
                        vbuf[na0:na] = 0.0
                        vec = vbuf[:na]
                    fresh = True

                # ---- idle machine: jump to the next event ----------------
                if not na:
                    nxt = next_rel if ja < n else None
                    if faults is not None:
                        # a pending fault point (recover, job resume) can
                        # be the only future event — without it a
                        # suspended job would deadlock drain()
                        ft = faults.next_time()
                        if ft is not None and (nxt is None or ft < nxt):
                            nxt = float(ft)
                    if nxt is None:
                        if horizon is not None:
                            t = max(t, horizon)
                        break  # nothing active, nothing to come
                    if horizon is not None and nxt > horizon * admit_mul:
                        t = max(t, horizon)  # the next event is beyond it
                        break
                    t = max(t, nxt)
                    if horizon is not None and not t * admit_mul < horizon:
                        break
                    continue

                if inc_pending and na >= inc_min:
                    self._na = na
                    self._inc_promote()
                    inc = self._inc
                    inc_pending = False
                    vec = None

                # ---- segment solve ----------------------------------------
                rem = a_rem[:na]
                view = None
                if inc is None:
                    # dense backing: the full rate vector
                    ids = a_ids[:na]
                    if plain:
                        caps = a_caps[:na]
                    else:
                        caps = self._segment_caps(ids, rem, m_view)
                    if m_view <= 0:
                        # every processor is down: nothing runs until a
                        # recovery, which is guaranteed to be on the agenda
                        rates = np.zeros(na, dtype=float)
                        rsum = 0.0
                        cache = None
                    elif cache is None:
                        c_miss += 1
                        rates = None
                        if vec is not None:
                            # the policy reports only the entries that
                            # moved (bit-equal to a full rebuild by the
                            # rates_array_patch contract)
                            pairs = patch_fn(ids, caps)
                            if pairs is not None:
                                for p, val in pairs:
                                    vec[p] = val
                                rates = vec
                                c_patch += 1
                        if rates is None:
                            if fn is not None:
                                rates = fn(t, m_view, ids, rem, a_work[:na],
                                           a_rel[:na], caps)
                            else:
                                view = self._view_at(t, na)
                                caps = view.caps
                                rates = policy.rates(view)
                            rates = np.asarray(rates, dtype=float)
                        if rates.shape != (na,):
                            raise FlowSimError(
                                f"{policy.name}: rates shape {rates.shape} "
                                f"!= ({na},)"
                            )
                        check = not rate_calls % check_k
                        rate_calls += 1
                        if check:
                            rates = self._verify_rates(rates, caps, m_view)
                        rsum = float(radd(rates))
                        if rates_stable:
                            cache = (rates, rsum)
                    else:
                        c_hit += 1
                        rates, rsum = cache
                    if patch_fn is not None and rates is not vec:
                        # a fresh array (full rebuild, check-pass clip or a
                        # cache from an earlier pass): copy it into the
                        # scratch so shifts below can mutate it in place
                        vbuf[:na] = rates
                        vec = vbuf[:na]
                    eff = rates * speed if speed != 1.0 else rates
                    served = eff > 0
                    if na >= 32:
                        sp = served.nonzero()[0]
                        ns = sp.size
                        sparse = 4 * ns <= na
                    else:
                        # tiny active sets: the dense sweep is cheaper than
                        # the nonzero() gather (both are bit-equal)
                        sparse = False
                    if sparse:
                        # few served jobs: an eff == 0 entry is exactly
                        # unchanged by progress, so only the served ones
                        # bound dt (same quotients, same minimum)
                        eff_s = eff[sp]
                        dt = float(rmin(rem[sp] / eff_s)) if ns else _INF
                    else:
                        finish = a_fin[:na]
                        finish[:] = _INF
                        np.divide(rem, eff, out=finish, where=served)
                        dt = float(rmin(finish))
                else:
                    # order backing: the sparse allocation off the order head
                    if m_view <= 0:
                        cache = None
                        inc.alloc = None
                        alloc = _NO_ALLOC
                    else:
                        alloc = inc.alloc
                        if alloc is None:
                            c_miss += 1
                            alloc = self._inc_build_alloc(na, m_view)
                            check = not rate_calls % check_k
                            rate_calls += 1
                            if check:
                                self._inc_check_alloc(alloc, na, m_view)
                            if rates_stable:
                                inc.alloc = alloc
                        else:
                            c_hit += 1
                    pos, rates, rsum = alloc
                    ns = pos.size
                    if ns:
                        rem_s = rem[pos]
                        eff_s = rates * speed if speed != 1.0 else rates
                        served_ids = a_ids[:na][pos].tolist()
                        dt = inc.predict(served_ids, (rem_s / eff_s).tolist())
                    else:
                        dt = inc.predict((), ())
                if view is None:
                    c_reuse += 1

                # ---- the other dt bounds -----------------------------------
                if ja < n:
                    dt_arr = next_rel - t
                    if dt_arr < dt:
                        dt = dt_arr
                if has_timer:
                    if view is None:
                        view = self._view_at(t, na)
                    timer = policy.next_timer(view)
                    if timer is not None and timer > t:
                        dt_timer = float(timer) - t
                        if dt_timer < dt:
                            dt = dt_timer
                if use_profiles:
                    # profiles force the dense backing
                    dt_brk = self._profile_break_dt(ids, rem, served, eff)
                    if dt_brk < dt:
                        dt = dt_brk
                if faults is not None:
                    # stop exactly at the next fault point so m(t) and
                    # the speed factor change on time
                    ft = faults.next_time()
                    if ft is not None and ft > t:
                        dt_f = float(ft) - t
                        if dt_f < dt:
                            dt = dt_f
                if horizon is not None and horizon > t:
                    dt_hor = horizon - t
                    if dt_hor < dt:
                        dt = dt_hor

                if dt == _INF:
                    if horizon is not None:
                        break  # parked at the horizon with idle-rate jobs
                    raise FlowSimError(
                        f"{policy.name}: stalled at t={t:.6g} with "
                        f"{na} active jobs, zero rates and no future events"
                    )
                if dt < 0:
                    raise FlowSimError(f"{policy.name}: negative time step {dt}")

                # ---- progress ----------------------------------------------
                if dt > 0:
                    # ``rem`` is the live buffer slice: progress lands in
                    # place, no gather/scatter against the job table
                    if inc is None:
                        if sparse:
                            rem[sp] -= eff_s * dt
                        else:
                            rem -= eff * dt
                    elif ns:
                        rem[pos] -= eff_s * dt
                    busy += rsum * dt  # processor-time, not work
                    if record:
                        self._segments.append((t, t + dt, {
                            int(j): float(x) for j, x in zip(ids, rates) if x > 0
                        }))
                    t += dt
                    if inc is not None and ns and inc.kind == "remaining":
                        inc.rekey(served_ids, rem_s.tolist(), rem[pos].tolist())

                # ---- completion candidates (ascending positions) ----------
                if inc is None:
                    if sparse and not fresh:
                        dpos = sp[rem[sp] <= a_tol[:na][sp]] if ns else sp
                    else:
                        dpos = (rem <= a_tol[:na]).nonzero()[0]
                        fresh = False
                else:
                    # served ∪ dust covers every candidate
                    dpos = pos[rem[pos] <= a_tol[:na][pos]] if ns else pos
                    if inc.dust:
                        dpos = inc.take_dust(dpos, a_ids[:na])
                n_done = dpos.size

                # ---- completions, lowest job id first ----------------------
                if n_done:
                    cache = None
                    if n_done == 1 or has_completion:
                        for k, p in enumerate(dpos.tolist()):
                            p -= k  # earlier removals shifted it left
                            j = int(a_ids[p])
                            r = j - base
                            # park the final (dust) remaining value in the
                            # master column for checkpoints and observers
                            rem_all[r] = a_rem[p]
                            if inc is not None:
                                inc.drop(j, float(a_rem[p]), float(a_work[p]),
                                         float(a_rel[p]))
                            a_ids[p : na - 1] = a_ids[p + 1 : na]
                            a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                            na -= 1
                            if vec is not None:
                                vbuf[p:na] = vbuf[p + 1 : na + 1]
                                vec = vbuf[:na]
                            flow[r] = t - release[r]
                            completed += 1
                            completions.append((j, t))
                            if has_completion:
                                # the hook sees the set after this removal:
                                # a freed DREP processor re-draws from the
                                # jobs still alive
                                if plain:
                                    c_views += 1
                                    view = _make_view(
                                        t, m, a_ids[:na], a_rem[:na],
                                        a_work[:na], a_rel[:na], a_caps[:na],
                                        speed,
                                    )
                                else:
                                    view = self._view_at(t, na)
                                policy.on_completion(j, view)
                    else:
                        # no hook observes the intermediate sets: one
                        # compaction instead of a shift per job
                        for p in dpos.tolist():
                            j = int(a_ids[p])
                            r = j - base
                            rem_all[r] = a_rem[p]
                            if inc is not None:
                                inc.drop(j, float(a_rem[p]), float(a_work[p]),
                                         float(a_rel[p]))
                            flow[r] = t - release[r]
                            completed += 1
                            completions.append((j, t))
                        keep = np.ones(na, dtype=bool)
                        keep[dpos] = False
                        nk = na - n_done
                        # fancy indexing copies first: writing back is safe
                        a_ids[:nk] = a_ids[:na][keep]
                        a_blk[:, :nk] = a_blk[:, :na][:, keep]
                        if vec is not None:
                            vbuf[:nk] = vec[keep]
                            vec = vbuf[:nk]
                        na = nk

                # ---- exit test -----------------------------------------------
                if horizon is not None:
                    if not t * admit_mul < horizon:
                        break
                elif completed == n:
                    break
        finally:
            perf.batch_jumps += 1
            perf.batch_events_folded += ev - ev0
            self._events = ev
            self._t = t
            self._na = na
            self._next_arrival = ja
            self._next_rel = next_rel
            self._rates_cache = cache
            self._busy_time = busy
            self._completed = completed
            self._rate_calls = rate_calls
            # verified calls: the multiples of check_k in [rc0, rate_calls)
            run = (
                (rate_calls + check_k - 1) // check_k
                - (rc0 + check_k - 1) // check_k
            )
            perf.checks_run += run
            perf.checks_skipped += rate_calls - rc0 - run
            perf.rate_misses += c_miss
            perf.rate_hits += c_hit
            perf.view_reuses += c_reuse
            perf.view_builds += c_views
            perf.batch_rate_patches += c_patch
            if inc is not None:
                self._inc_sync_perf()

    def advance_to(self, t: float) -> None:
        """Process every event with time ≤ ``t`` and park the clock there.

        A no-op when ``t`` is not ahead of the clock (rewinding is
        impossible; the clock never moves backwards).
        """
        t = float(t)
        if self._t * (1 + _ADMIT_TOL) < t:
            self._run(t)

    def drain(self) -> None:
        """Run until every registered job has completed."""
        if self._completed < self._n:
            self._run(None)

    # -- the order backing (O(log n)) ---------------------------------------

    def _inc_promote(self) -> None:
        """Build the order/calendar structures from the live buffers and
        switch the stepper onto the order backing.

        Runs once per stepper, the first time the active set reaches
        ``incremental_min_active`` (at construction when the threshold
        is 0 — or when restoring a snapshot already past it).  One
        O(n log n) pass seeds the :class:`OrderIndex` with every active
        job's current ``(key, tie)`` and captures already-within-
        tolerance jobs into the dust set, exactly the state the
        structures would hold had they been maintained from the start;
        the calendar starts empty and fills as segments are served.
        Promotion is one-way — the dense backing wins below the threshold
        only on constant factors, and demotion would just thrash.
        """
        inc = _IncrementalCore(self._inc_spec, self.policy)
        for k in range(self._na):
            j = int(self._a_ids[k])
            inc.order.insert(
                *inc.key_tie(
                    j,
                    float(self._a_rem[k]),
                    float(self._a_work[k]),
                    float(self._a_rel[k]),
                )
            )
            if self._a_rem[k] <= self._a_tol[k]:
                inc.dust.append(j)
        self._inc = inc

    def _inc_build_alloc(
        self, na: int, m_view: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Sparse rate allocation from the live order: ``(positions,
        rates, rsum)`` with positions ascending into the id-sorted
        buffers and every rate strictly positive.

        Bit-for-bit equal to the dense policy compute restricted to its
        non-zero entries: the prefix walk replicates
        :func:`~repro.flowsim.rates.priority_waterfill` (same Python
        floats, same break), the share walk replicates the masked
        :func:`~repro.flowsim.rates.equal_split` (the gathered call is
        bitwise equal on members), and ``rsum`` replicates
        ``float(np.add.reduce(dense))`` via :func:`sparse_sum`.
        """
        inc = self._inc
        if m_view <= 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=float), 0.0)
        ids = self._a_ids[:na]
        caps = self._a_caps
        neg = inc.neg
        limit = m_view < self.m
        mv = float(m_view)
        if inc.share:
            k = max(1, math.ceil(inc.beta * na))
            head = inc.order.head(k)
            jl = [(-tie if neg else tie) for _, tie in head]
            pos = ids.searchsorted(np.asarray(jl, dtype=np.int64))
            pos.sort()
            c = self._a_caps[:na][pos]
            if limit:
                c = np.minimum(c, mv)
            rates = equal_split(c, m_view)
            rsum = sparse_sum(pos.tolist(), rates.tolist(), na)
            return (pos, rates, rsum)
        left = mv
        pl: list[int] = []
        rl: list[float] = []
        for _, tie in inc.order:
            p = int(ids.searchsorted(-tie if neg else tie))
            c = float(caps[p])
            if limit and mv < c:
                c = mv
            give = c if c < left else left
            pl.append(p)
            rl.append(give)
            left -= give
            if left <= 0:
                break
        pairs = sorted(zip(pl, rl))
        pl = [p for p, _ in pairs]
        rl = [g for _, g in pairs]
        return (
            np.asarray(pl, dtype=np.int64),
            np.asarray(rl, dtype=float),
            sparse_sum(pl, rl, na),
        )

    def _inc_check_alloc(
        self, alloc: tuple[np.ndarray, np.ndarray, float],
        na: int, m_view: int,
    ) -> None:
        """Amortized invariant checks on a sparse allocation — the same
        cap / negativity / total-capacity verification the dense backing
        runs, restricted to the non-zero entries (the zeros it skips
        satisfy all three trivially)."""
        pos, rates, rsum = alloc
        if not pos.size:
            return
        if (rates < -_RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: negative rate")
        caps = self._a_caps[:na][pos]
        if m_view < self.m:
            caps = np.minimum(caps, float(m_view))
        if (rates > caps * (1 + _RATE_TOL) + _RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: rate exceeds per-job cap")
        if rsum > m_view * (1 + _RATE_TOL) + _RATE_TOL:
            raise FlowSimError(
                f"{self.policy.name}: total rate {rsum:.6g} "
                f"exceeds m={m_view}"
            )

    def _inc_sync_perf(self) -> None:
        """Mirror the order/calendar counters into :class:`PerfCounters`
        (one structure per run, so plain assignment is cumulative)."""
        inc = self._inc
        perf = self.perf
        perf.order_ops = inc.order.ops
        perf.calendar_pops = inc.cal.pops
        perf.calendar_invalidations = inc.cal.invalidations

    # -- streaming harvest -------------------------------------------------

    def _harvest_bound(self) -> int:
        """First job id that may still need its master row: every id below
        it is completed (admitted, not active, not suspended)."""
        b = self._next_arrival
        if self._na:
            a0 = int(self._a_ids[0])
            if a0 < b:
                b = a0
        if self._suspended:
            s0 = min(self._suspended)
            if s0 < b:
                b = s0
        return b

    @property
    def n_harvestable(self) -> int:
        """Completed-prefix jobs :meth:`harvest` would fold right now."""
        return self._harvest_bound() - self._base

    def harvest(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold the completed prefix out of the job table and free its rows.

        Returns ``(ids, flows, weights, min_flows)`` for every job whose
        id precedes all active / suspended / pending jobs (in id order,
        ``min_flows`` already speed-normalized exactly as
        :meth:`result` reports them), then compacts the master columns
        left and advances the internal base offset.  Calling it
        periodically is what makes a streamed run O(active + pending) in
        memory; the cost is one shift of the stored rows per call.

        After the first non-empty harvest :meth:`result` /
        :meth:`state_dict` are unavailable (their per-job arrays are
        gone) — the streaming driver
        (:func:`repro.flowsim.simulate_stream`) accumulates
        :class:`~repro.core.metrics.StreamingMetrics` instead.  Weighted
        policies (``set_weights``) are refused: their weight tables are
        indexed by absolute job id over the full run.
        """
        if hasattr(self.policy, "set_weights"):
            raise FlowSimError(
                f"{self.policy.name}: weighted policies are not supported "
                "in streaming mode (their weight table spans all jobs)"
            )
        base = self._base
        b = self._harvest_bound()
        k = b - base
        if k <= 0:
            empty = np.empty(0, dtype=float)
            return np.empty(0, dtype=np.int64), empty, empty.copy(), empty.copy()
        ids = np.arange(base, b, dtype=np.int64)
        flows = self._flow[:k].copy()
        if np.isnan(flows).any():  # pragma: no cover - internal invariant
            raise FlowSimError("harvest bound covers an unfinished job")
        weights = self._weights[:k].copy()
        m = self.m
        min_flows = (
            np.fromiter(
                (spec.lower_bound(m) for spec in self._specs[:k]), float, k
            )
            / self.config.speed
        )
        stored = self._n - base
        keep = stored - k
        for a in (
            self._release,
            self._work,
            self._caps_all,
            self._weights,
            self._rem,
            self._tol,
            self._flow,
        ):
            a[:keep] = a[k:stored]
        del self._specs[:k]
        del self._profiles[:k]
        self._base = b
        if self._completions:
            # keep the observer log bounded too: harvested ids are gone
            self._completions = [e for e in self._completions if e[0] >= b]
        return ids, flows, weights, min_flows

    # -- results -----------------------------------------------------------

    def result(self, partial: bool = False) -> ScheduleResult:
        """Assemble a :class:`~repro.core.metrics.ScheduleResult`.

        With ``partial=False`` (default) every registered job must have
        completed; ``partial=True`` restricts the arrays to completed jobs
        (in job-id order), for progress reporting mid-run.
        """
        if self._base:
            raise FlowSimError(
                "result() is unavailable after harvest(): per-job arrays "
                "were folded into streaming metrics "
                "(use repro.flowsim.simulate_stream)"
            )
        n = self._n
        flows = self._flow[:n].copy()
        weights = self._weights[:n].copy()
        min_flows = np.array(
            [spec.lower_bound(self.m) for spec in self._specs], dtype=float
        )
        if partial:
            mask = ~np.isnan(flows)
            flows = flows[mask]
            weights = weights[mask]
            min_flows = min_flows[mask]
        elif np.isnan(flows).any():
            raise FlowSimError(
                f"{self.policy.name}: run ended with unfinished jobs"
            )
        makespan = self._t
        utilization = (
            self._busy_time / (makespan * self.m) if makespan > 0 else 0.0
        )
        self.perf.events = self._events
        if self._inc is not None:
            self._inc_sync_perf()
        fault_extra = {}
        if self.faults is not None:
            fault_extra["faults"] = {
                "plan": self.faults.plan.name,
                "points": self.faults.n_points,
                "applied": self.faults.applied,
                "lost_work": self._lost_work,
                "displaced_work": self._displaced_work,
                "requeues": [dict(e) for e in self._requeue_log],
                "down_now": sorted(self.faults.down_procs()),
                "log": [dict(e) for e in self._fault_log],
            }
        return ScheduleResult(
            scheduler=self.policy.name,
            m=self.m,
            flow_times=flows,
            preemptions=self.policy.preemptions,
            migrations=self.policy.migrations,
            makespan=makespan,
            min_flows=(min_flows / self.config.speed) if min_flows.size else None,
            weights=weights if weights.size else None,
            extra={
                "utilization": utilization,
                "events": self._events,
                "switches": self.policy.switches,
                "perf": self.perf.as_dict(),
                **(
                    {"segments": self._segments}
                    if self.config.record_segments
                    else {}
                ),
                **fault_extra,
            },
        )

    # -- checkpointing -----------------------------------------------------

    def _job_row(self, j: int) -> dict:
        """One job's spec and remaining work as a JSON-compatible row."""
        s = self._specs[j]
        if s.dag is not None:
            raise FlowSimError("cannot snapshot a run with explicit DAG jobs")
        return {
            "job_id": s.job_id,
            "release": s.release,
            "work": s.work,
            "span": s.span,
            "mode": s.mode.value,
            "weight": s.weight,
            "rem": float(self._rem[j]),
        }

    def state_dict(self, settled: int = 0) -> dict:
        """Engine-level state as JSON-compatible plain data.

        Covers the clock, counters and job table — everything the stepper
        owns.  Policy state is *not* included (policies are opaque to the
        engine); :mod:`repro.serve.snapshot` captures it alongside.  Jobs
        carrying explicit DAGs are not snapshottable.

        Jobs are split by lifecycle.  ``done`` holds one row per entry of
        ``completion_log[settled:]``, in completion order, each with its
        finish time and final flow; ``live`` holds a row per active,
        suspended and pending job.  The first ``settled`` completions are
        left out: a caller that already persisted their rows (the server's
        completion log) hands them back to :meth:`from_state_dict`.  So
        the cost is O(live + completions since ``settled``), and with the
        default ``settled=0`` the dict is self-contained.
        """
        if self._base:
            raise FlowSimError(
                "cannot snapshot a harvested (streaming) run: the "
                "completed prefix was folded away"
            )
        log = self._completions
        if not 0 <= settled <= len(log):
            raise ValueError(
                f"settled={settled} outside the completion log [0, {len(log)}]"
            )
        na = self._na
        if na:
            # the buffers hold the live remaining-work values; flush them
            # to the master column the snapshot serializes
            self._rem[self._a_ids[:na]] = self._a_rem[:na]
        done = []
        for j, t in log[settled:]:
            row = self._job_row(j)
            row["finish"] = float(t)
            row["flow"] = float(self._flow[j])
            done.append(row)
        # active and suspended jobs were admitted (id < next_arrival);
        # everything from next_arrival on is still pending
        live_ids = sorted({*self._a_ids[:na].tolist(), *self._suspended})
        live_ids += range(self._next_arrival, self._n)
        if len(log) + len(live_ids) != self._n:  # pragma: no cover - invariant
            raise FlowSimError("job table is not completed + live")
        fault_state = {}
        if self.faults is not None:
            fault_state = {
                "faults": self.faults.state_dict(),
                "fault_log": [dict(e) for e in self._fault_log],
                "lost_work": self._lost_work,
                "displaced_work": self._displaced_work,
                "requeue_log": [dict(e) for e in self._requeue_log],
                "suspended": sorted(self._suspended),
            }
        return {
            **fault_state,
            "m": self.m,
            "seed": self.seed,
            "config": {
                "completion_tol": self.config.completion_tol,
                "max_events": self.config.max_events,
                "speed": self.config.speed,
                "use_profiles": self.config.use_profiles,
                "record_segments": self.config.record_segments,
                "check_every_k": self.config.check_every_k,
                "use_incremental": self.config.use_incremental,
                "incremental_min_active": self.config.incremental_min_active,
            },
            "t": self._t,
            "n_jobs": self._n,
            "next_arrival": self._next_arrival,
            "completed": self._completed,
            "busy_time": self._busy_time,
            "events": self._events,
            "act_ids": self._a_ids[:na].tolist(),
            "segments": [
                [a, b, {str(k): v for k, v in alloc.items()}]
                for a, b, alloc in self._segments
            ],
            "done": done,
            "live": [self._job_row(j) for j in live_ids],
        }

    @classmethod
    def from_state_dict(
        cls, state: dict, policy: Policy, settled_rows=()
    ) -> "FlowStepper":
        """Rebuild a stepper from :meth:`state_dict` output.

        ``settled_rows`` are the ``done`` rows of the first ``settled``
        completions that ``state_dict(settled)`` left out, in completion
        order.  ``policy`` must already carry its restored internal state
        (the constructor's ``policy.reset`` call is *skipped* — the caller
        is handing us a mid-run policy, and resetting it would wipe
        exactly what a checkpoint is meant to preserve).
        """
        # snapshots written before the event loop was unified carry two
        # retired knobs; they selected execution paths, never results
        cfg = FlowSimConfig(**{
            k: v for k, v in state["config"].items()
            if k not in ("use_rates_array", "use_batch_horizon")
        })
        stepper = cls.__new__(cls)
        stepper.m = int(state["m"])
        stepper.policy = policy
        stepper.seed = int(state["seed"])
        stepper.config = cfg
        done = [*settled_rows, *state["done"]]
        n = int(state["n_jobs"])
        if len(done) != int(state["completed"]) or len(done) + len(
            state["live"]
        ) != n:
            raise FlowSimError(
                f"state covers {len(done)} completed + {len(state['live'])} "
                f"live rows, expected {state['completed']} of {n} jobs"
            )
        cap = max(16, n)
        stepper._release = np.zeros(cap, dtype=float)
        stepper._work = np.zeros(cap, dtype=float)
        stepper._caps_all = np.zeros(cap, dtype=float)
        stepper._weights = np.ones(cap, dtype=float)
        stepper._rem = np.zeros(cap, dtype=float)
        stepper._tol = np.zeros(cap, dtype=float)
        stepper._flow = np.full(cap, np.nan, dtype=float)
        specs: list[JobSpec | None] = [None] * n
        for raw in (*done, *state["live"]):
            spec = JobSpec(
                job_id=raw["job_id"],
                release=raw["release"],
                work=raw["work"],
                span=raw["span"],
                mode=ParallelismMode(raw["mode"]),
                weight=raw.get("weight", 1.0),
            )
            j = spec.job_id
            specs[j] = spec
            stepper._release[j] = spec.release
            stepper._work[j] = spec.work
            stepper._caps_all[j] = spec.mode.rate_cap(stepper.m)
            stepper._weights[j] = spec.weight
            stepper._tol[j] = cfg.completion_tol * max(1.0, spec.work)
            stepper._rem[j] = raw["rem"]
        for raw in done:
            stepper._flow[raw["job_id"]] = raw["flow"]
        if any(s is None for s in specs):
            raise FlowSimError("state rows do not cover every job id")
        stepper._specs = specs
        stepper._profiles = [None] * n
        stepper._n = n
        stepper._base = 0
        stepper._act_ids = [int(j) for j in state["act_ids"]]
        stepper._t = float(state["t"])
        stepper._next_arrival = int(state["next_arrival"])
        stepper._completed = len(done)
        stepper._busy_time = float(state["busy_time"])
        stepper._events = int(state["events"])
        stepper._completions = [
            (int(raw["job_id"]), float(raw["finish"])) for raw in done
        ]
        stepper._segments = [
            (a, b, {int(k): v for k, v in alloc.items()})
            for a, b, alloc in state["segments"]
        ]
        if state.get("faults") is not None:
            from repro.faults.timeline import FaultTimeline

            stepper.faults = FaultTimeline.from_state_dict(state["faults"])
            stepper._fault_log = [dict(e) for e in state.get("fault_log", [])]
            stepper._lost_work = float(state.get("lost_work", 0.0))
            stepper._displaced_work = float(state.get("displaced_work", 0.0))
            stepper._requeue_log = [dict(e) for e in state.get("requeue_log", [])]
            stepper._suspended = {int(j) for j in state.get("suspended", ())}
        else:
            stepper.faults = None
            stepper._fault_log = []
            stepper._lost_work = 0.0
            stepper._displaced_work = 0.0
            stepper._requeue_log = []
            stepper._suspended = set()
        # a weight-aware policy already carries its restored table, but a
        # fresh push is harmless and covers policies restored without one
        stepper._weights_dirty = hasattr(policy, "set_weights")
        stepper._init_runtime_caches()
        return stepper


def simulate(
    trace: Trace,
    m: int,
    policy: Policy,
    seed: int = 0,
    config: FlowSimConfig = FlowSimConfig(),
    faults=None,
) -> ScheduleResult:
    """Run ``policy`` over ``trace`` on ``m`` processors; return the result.

    The policy is reset at the start with a dedicated random stream derived
    from ``seed``, so repeated calls are reproducible and two policies in
    the same sweep never share randomness.

    ``faults`` optionally injects a :class:`repro.faults.FaultPlan` (or an
    already-compiled single-use timeline): processors crash and recover,
    capacity degrades, jobs get aborted and resubmitted, all at the plan's
    scheduled times.  The result's ``extra["faults"]`` carries the applied
    fault log and the work lost to aborts.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(trace) == 0:
        return ScheduleResult(scheduler=policy.name, m=m, flow_times=np.empty(0))
    stepper = FlowStepper(m, policy, seed=seed, config=config, faults=faults)
    stepper.add_jobs(list(trace.jobs))
    stepper.perf.start()
    stepper.drain()
    stepper.perf.stop()
    return stepper.result()
