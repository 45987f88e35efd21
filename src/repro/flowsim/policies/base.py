"""Policy interface for the flow-level simulator.

A policy sees the active jobs through an :class:`ActiveView` — aligned
numpy arrays of ids, remaining work, total work, release times, attained
service and rate caps — and returns a rate vector.  Stateful policies
(DREP's integral processor assignment) additionally receive arrival and
completion callbacks; the engine guarantees the callback order documented
on each hook.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["ActiveView", "OrderSpec", "Policy"]


@dataclass(frozen=True)
class OrderSpec:
    """Declarative priority order for the engine's order backing.

    A policy whose allocation is a pure function of a *sorted order* over
    the active set can declare that order here instead of re-sorting on
    every rate rebuild: the engine then maintains a persistent
    key-ordered structure (:class:`repro.flowsim.order.OrderIndex`) in
    O(log n) per admission / completion / fault eviction and feeds the
    policy's allocation from ``(inserted, removed, decremented)`` deltas
    — the sparse, incremental complement of the dense
    ``np.lexsort``-based :meth:`Policy.rates_array` the policy keeps as
    its dense-backing path (below ``incremental_min_active``).

    ``key`` names the per-job sort key: ``"remaining"`` (SRPT — the
    engine re-keys served jobs after every segment, the *decremented*
    delta), ``"work"`` (SJF/SWF) or ``"release"`` (FIFO, LAPS).
    ``descending`` flips both the key and the job-id tie-break (LAPS
    serves latest arrivals first, ties to the higher id), matching
    ``np.lexsort((-job_ids, -key))`` exactly as the ascending form
    matches ``np.lexsort((job_ids, key))``.

    ``alloc`` selects the engine-side sparse allocator, each bit-for-bit
    equal to the dense twin by construction:

    * ``"prefix"`` — :func:`repro.flowsim.rates.priority_waterfill`
      over the order: walk the head, grant each job its cap until the
      machine is full; touches O(m) jobs.
    * ``"share_topk"`` — :func:`repro.flowsim.rates.equal_split` over
      the first ``ceil(beta * n)`` jobs of the order (``beta`` read
      from the policy instance); touches O(beta n) jobs.
    """

    key: str
    descending: bool = False
    alloc: str = "prefix"

    def __post_init__(self) -> None:
        if self.key not in ("remaining", "work", "release"):
            raise ValueError(f"unknown order key {self.key!r}")
        if self.alloc not in ("prefix", "share_topk"):
            raise ValueError(f"unknown alloc {self.alloc!r}")


@dataclass(frozen=True)
class ActiveView:
    """Snapshot of the active jobs at one instant.

    All arrays are aligned: entry ``k`` describes the job ``job_ids[k]``
    (``job_ids`` is sorted ascending — an engine invariant).
    ``attained == work - remaining`` is the elapsed service (for SETF).
    Views are cheap, read-only conveniences; policies must not mutate
    them.  The arrays may *alias the engine's live buffers* and are only
    valid for the duration of the call that received them — a policy that
    needs data across calls must copy it.
    """

    t: float
    #: processors currently *up* — shrinks below the machine size while a
    #: fault plan has crashed processors (``repro.faults``)
    m: int
    job_ids: np.ndarray
    remaining: np.ndarray
    work: np.ndarray
    release: np.ndarray
    caps: np.ndarray
    #: resource-augmentation factor: work drains at ``rate * speed``
    #: (relevant only to policies that schedule timers in absolute time)
    speed: float = 1.0

    @property
    def n(self) -> int:
        return int(self.job_ids.size)

    @property
    def attained(self) -> np.ndarray:
        return self.work - self.remaining

    def index_of(self, job_id: int) -> int:
        """Position of ``job_id`` in the view arrays (raises if absent)."""
        pos = np.flatnonzero(self.job_ids == job_id)
        if pos.size != 1:
            raise KeyError(f"job {job_id} not active")
        return int(pos[0])


class Policy(abc.ABC):
    """Base class for flow-level scheduling policies.

    Lifecycle: the engine calls :meth:`reset` once per run, then
    :meth:`on_arrival` / :meth:`on_completion` as events fire, and
    :meth:`rates` after every event.  ``on_arrival`` is called *after* the
    new job joins the active set; ``on_completion`` *after* the finished job
    leaves it.  :meth:`next_timer` lets a policy request an extra event
    (e.g. SETF's service-level crossings); return ``None`` for never.

    :meth:`rates` must return a *fresh* array on every call (never a view
    of internal state that a later hook mutates): the engine may hold on
    to the vector across events when :attr:`rates_stable` permits.  Rates
    must be nonnegative on *every* call, not merely on the amortized
    ``check_every_k`` verification grid: when few jobs are served the
    engine progresses only the positive-rate entries, so an unchecked
    negative rate would turn into progress or not depending on how many
    jobs happen to be served.  Nor may a
    policy treat the *number* of rate calls as information (e.g. count
    them as a clock): how many the engine makes is an execution detail.
    """

    #: Human-readable name used in results and plots.
    name: str = "policy"

    #: Whether the policy is clairvoyant (needs job sizes up front).  The
    #: paper stresses DREP and RR are non-clairvoyant while SRPT/SJF/SWF
    #: are not; exposed so harnesses can annotate tables.
    clairvoyant: bool = False

    #: **Rate-stability contract.**  ``True`` declares that the rate
    #: vector is a pure function of the active-set *composition* — job
    #: ids, caps, and static per-job attributes (total work, release,
    #: weight) plus any internal state mutated only inside the
    #: arrival/completion hooks.  It must NOT depend on ``remaining`` /
    #: ``attained`` service or the clock ``t``, which drift between
    #: events.  The engine then reuses the last rate vector until the
    #: active set changes (RR/equi-partition-style policies are constant
    #: between events), which makes horizon stops and segment splits in
    #: the serving layer free.  Policies whose priorities move with
    #: attained or remaining work (SRPT, SETF, MLF) must leave this
    #: ``False``.
    rates_stable: bool = False

    #: **Incremental-order opt-in** (the flowsim event loop's order
    #: backing).  A :class:`OrderSpec` declares that the policy's rate
    #: vector is fully determined by one sorted order over the active
    #: set plus an allocation shape, letting the engine maintain that
    #: order incrementally (``repro.flowsim.order.OrderIndex``) and
    #: predict completions through a lazy calendar instead of
    #: re-sorting/rescanning per event.  The spec must describe
    #: :meth:`rates_array` *exactly* — same keys, same tie-breaks, same
    #: allocation — since the engine stops calling the hook on the order
    #: backing and the equivalence suite pins bit-for-bit equality
    #: against it.  ``None`` (the default) keeps the policy on the dense
    #: backing.
    order_spec: "OrderSpec | None" = None

    def reset(self, m: int, rng: np.random.Generator) -> None:
        """Prepare for a fresh run on an ``m``-processor machine."""

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        """Notify that ``job_id`` just arrived (already in ``view``)."""

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        """Notify that ``job_id`` just finished (absent from ``view``)."""

    def on_fault(self, event: dict, view: ActiveView) -> None:
        """Notify of a machine-state fault (``repro.faults``).

        ``event`` is a point action dict with at least ``kind`` (one of
        ``crash`` / ``recover`` / ``degrade_on`` / ``degrade_off`` /
        ``straggle_on`` / ``straggle_off``) and ``t``; crash/recover carry
        ``proc``.  ``view.m`` already reflects the post-event processor
        count.  Stateless policies can ignore faults entirely — the engine
        clips ``view.caps`` to the up-processor count and verifies rates
        against it.  Job aborts are *not* delivered here; the engine
        replays them through :meth:`on_completion` / :meth:`on_arrival` so
        assignment-tracking policies free and re-draw processors with the
        machinery they already have.
        """

    @abc.abstractmethod
    def rates(self, view: ActiveView) -> np.ndarray:
        """Rate vector aligned with ``view.job_ids``.

        Must satisfy ``0 <= rates <= caps`` elementwise and
        ``rates.sum() <= m`` (the engine verifies both).
        """

    def rates_array(
        self,
        t: float,
        m: int,
        job_ids: np.ndarray,
        remaining: np.ndarray,
        work: np.ndarray,
        release: np.ndarray,
        caps: np.ndarray,
    ) -> np.ndarray:
        """Optional vectorized twin of :meth:`rates` (SoA fast path).

        Policies that override this are fed the engine's flat active-set
        buffers directly — no :class:`ActiveView` is materialized on the
        hot path.  The arguments mirror the view fields (``job_ids``
        sorted ascending); the contract is strict:

        * the returned vector must be **bit-for-bit identical** to what
          :meth:`rates` returns on the equivalent view (the golden tests
          and a Hypothesis property enforce this);
        * the input arrays alias live engine state — never mutate or
          retain them; always return a fresh array.

        The engine uses the hook whenever the policy overrides it; other
        policies are asked through :meth:`rates` on a materialized view.
        Timer policies still receive their :meth:`next_timer` view.
        """
        raise NotImplementedError(f"{self.name} has no vectorized rate hook")

    def rates_array_patch(
        self, job_ids: np.ndarray, caps: np.ndarray
    ) -> list[tuple[int, float]] | None:
        """Optional sparse complement of :meth:`rates_array`.

        At a decision point of a rates-stable policy (see
        :attr:`rates_stable`) the engine's event loop usually still holds
        the previous segment's rate vector and has
        *structurally aligned* it to the new composition — completed
        entries dropped, admitted jobs appended with rate ``0.0``, order
        still matching ``job_ids``.  A policy whose rate changes are
        local (DREP touches at most a couple of processors per event)
        can then report just the entries that moved instead of paying a
        full :meth:`rates_array` rebuild: return ``(position, rate)``
        pairs covering **every** entry whose rate may differ from that
        aligned vector, with each rate bit-for-bit equal to what
        :meth:`rates_array` would put there.  Positions index the
        ``job_ids`` passed in; ids that already left the active set must
        simply be omitted.  Over-reporting entries whose value did not
        change is harmless; under-reporting silently corrupts the run.

        Return ``None`` (the default) to force a full recompute.  The
        engine still runs the amortized ``check_every_k`` invariant
        verification on the patched vector at the exact same cadence as
        a full rebuild, so a patch is never exempt from checking.
        """
        return None

    def next_timer(self, view: ActiveView) -> float | None:
        """Absolute time of the next policy-requested event, if any."""
        return None

    # -- practicality accounting ------------------------------------------

    @property
    def preemptions(self) -> int:
        """Processor switches away from unfinished jobs so far (Thm 1.2)."""
        return 0

    @property
    def migrations(self) -> int:
        """Job resumptions on a different processor so far."""
        return 0

    @property
    def switches(self) -> int:
        """All processor re-assignments so far (the Theorem 1.2 O(mn)
        quantity); includes post-completion re-draws."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
