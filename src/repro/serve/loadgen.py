"""Open-loop load generation: replay workload traces into a live scheduler.

Two replay paths share the same semantics:

* :func:`replay_into` drives an in-process
  :class:`~repro.serve.online.OnlineScheduler` directly (tests, examples,
  and the cross-check against batch simulation);
* :func:`replay_over_wire` speaks the JSON-lines protocol to a running
  :class:`~repro.serve.server.SchedulerServer` and can *verify* the
  drained result against an offline :func:`repro.flowsim.simulate` of the
  same effective trace — the end-to-end proof that the serving stack adds
  no scheduling error.

``rate`` is the arrival-rate multiplier: release times are divided by
it, so ``rate=2`` doubles the offered load of the original trace while
keeping job sizes fixed (open-loop — arrivals never wait for the
system, which is how overload actually happens).  ``pace`` optionally
maps sim time onto wall time (sim-units per wall second) so a wall-clock
server sees realistic inter-arrival gaps; the default streams as fast
as the connection allows.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from repro.core.job import JobSpec
from repro.workloads.traces import Trace

__all__ = [
    "LoadGenReport",
    "effective_trace",
    "iter_effective",
    "replay_into",
    "replay_over_wire",
    "retry_delay",
    "tenant_labels",
]


def retry_delay(
    attempt: int, backoff: float, backoff_cap: float, rng: np.random.Generator
) -> float:
    """Bounded exponential backoff with seeded jitter, in seconds.

    ``attempt`` is 1-based; the base delay doubles per attempt up to
    ``backoff_cap`` and the jitter draw scales it into [0.5×, 1.0×] so
    retriers sharing a fate (one dead server, one dead shard) do not
    stampede in lockstep.  Shared by the wire client's request retries
    and the shard supervisor's process restarts.
    """
    delay = min(backoff_cap, backoff * 2 ** (attempt - 1))
    return delay * (0.5 + 0.5 * float(rng.random()))


def tenant_labels(
    n: int, tenants: int, skew: str = "zipf:1.0", seed: int = 0
) -> list[str]:
    """Seeded tenant assignment for ``n`` jobs over ``tenants`` ids.

    ``skew`` is ``"zipf:a"``: tenant rank k (1-based) is drawn with
    probability ∝ 1/k^a, so ``a=0`` is uniform and larger ``a``
    concentrates load on ``t0`` — the many-tenant hot-spot shape the DRF
    admission layer exists for.  Draws come from a dedicated child
    stream (``loadgen/tenants``), so enabling tenancy never perturbs the
    trace generator's randomness.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    kind, _, param = skew.partition(":")
    if kind != "zipf":
        raise ValueError(f"unknown tenant skew {skew!r} (expected 'zipf:a')")
    a = float(param) if param else 1.0
    if a < 0:
        raise ValueError("zipf exponent must be >= 0")
    from repro.core.rng import RngFactory

    weights = np.array([1.0 / (k + 1) ** a for k in range(tenants)])
    probs = weights / weights.sum()
    rng = RngFactory(seed).stream("loadgen/tenants")
    draws = rng.choice(tenants, size=n, p=probs)
    return [f"t{int(k)}" for k in draws]


def effective_trace(trace: Trace, rate: float = 1.0) -> Trace:
    """The trace a replay at ``rate`` actually offers (releases ÷ rate)."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if rate == 1.0:
        return trace
    jobs = [
        JobSpec(
            job_id=j.job_id,
            release=j.release / rate,
            work=j.work,
            span=j.span,
            mode=j.mode,
            dag=j.dag,
            weight=j.weight,
        )
        for j in trace.jobs
    ]
    return Trace(
        jobs=jobs,
        m=trace.m,
        load=min(1.0, trace.load * rate) if trace.load else trace.load,
        distribution=trace.distribution,
        name=f"{trace.name}@x{rate:g}",
        meta={**trace.meta, "rate_multiplier": rate},
    )


def iter_effective(trace_or_jobs, rate: float = 1.0) -> Iterator[JobSpec]:
    """Lazily yield rate-scaled jobs from a trace or a job stream.

    The streaming twin of :func:`effective_trace`: accepts a
    :class:`Trace`, a :class:`~repro.workloads.stream.JobStream` or any
    iterable of specs, and never materializes anything — the path an SWF
    archive replay takes (``drep-sim loadgen --trace-file x.swf``).
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    jobs: Iterable[JobSpec] = getattr(trace_or_jobs, "jobs", trace_or_jobs)
    for spec in jobs:
        yield spec if rate == 1.0 else replace(spec, release=spec.release / rate)


def _accepted_trace(specs: list[JobSpec], name: str = "accepted") -> Trace:
    """Re-index the accepted subset densely — what the engine actually ran."""
    jobs = [
        JobSpec(
            job_id=k,
            release=s.release,
            work=s.work,
            span=s.span,
            mode=s.mode,
            weight=s.weight,
        )
        for k, s in enumerate(specs)
    ]
    return Trace(jobs=jobs, name=name + "+admitted")


@dataclass
class LoadGenReport:
    """What one replay did and what the server said about it.

    The fault-facing counters make failures visible instead of silently
    swallowed: ``errors`` counts requests that ultimately failed (error
    responses or connection failures after the retry budget), ``timeouts``
    counts per-request deadline expiries, ``overloaded`` counts explicit
    server shed responses, ``retries`` counts re-sent requests and
    ``reconnects`` counts socket re-establishments.
    """

    offered: int
    accepted: int
    shed: int
    wall_seconds: float
    stats: dict = field(default_factory=dict)
    drain_summary: dict | None = None
    #: None = verification not attempted; True/False = outcome
    verified: bool | None = None
    max_abs_diff: float | None = None
    errors: int = 0
    timeouts: int = 0
    overloaded: int = 0
    retries: int = 0
    reconnects: int = 0
    #: per-tenant offered/accepted/shed/errors counts (tenant runs only)
    tenant_counts: dict = field(default_factory=dict)

    def _tenant_row(self, tenant: str) -> dict:
        return self.tenant_counts.setdefault(
            tenant,
            {"offered": 0, "accepted": 0, "shed": 0, "errors": 0, "retries": 0},
        )

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def summary(self) -> dict:
        out = {
            "offered": self.offered,
            "accepted": self.accepted,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "wall_seconds": self.wall_seconds,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "overloaded": self.overloaded,
            "retries": self.retries,
            "reconnects": self.reconnects,
        }
        if self.drain_summary is not None:
            out["mean_flow"] = self.drain_summary.get("mean_flow")
            out["makespan"] = self.drain_summary.get("makespan")
        if self.verified is not None:
            out["verified"] = self.verified
            out["max_abs_diff"] = self.max_abs_diff
        if self.tenant_counts:
            out["tenants"] = {
                name: dict(row)
                for name, row in sorted(self.tenant_counts.items())
            }
        return out


def replay_into(
    scheduler,
    trace: Trace,
    rate: float = 1.0,
    drain: bool = True,
    tenants: list[str] | None = None,
):
    """Stream ``trace`` into an in-process scheduler, job by job.

    Each job advances the clock to its (rate-scaled) release and is
    submitted through admission control when the scheduler has it,
    otherwise registered verbatim — the verbatim path reproduces the
    batch simulation exactly.  ``tenants`` optionally labels job i with
    ``tenants[i]`` (see :func:`tenant_labels`); labelled runs always go
    through :meth:`~repro.serve.online.OnlineScheduler.submit` so the
    labels thread into admission and metrics.  Returns
    ``(report, result)`` where ``result`` is the drained
    :class:`~repro.core.metrics.ScheduleResult` (``None`` when
    ``drain=False``).

    ``trace`` may also be a lazy job stream (e.g.
    :func:`repro.workloads.swf.swf_stream`); jobs are then pulled one at
    a time and never materialized.  Tenant labelling needs an in-memory
    trace (the label list is indexed by job id).
    """
    is_trace = isinstance(trace, Trace)
    if tenants is not None:
        if not is_trace:
            raise ValueError(
                "tenant labelling needs an in-memory Trace, not a stream"
            )
        if len(tenants) != len(trace.jobs):
            raise ValueError("tenants must label every job of the trace")
    report = LoadGenReport(offered=0, accepted=0, shed=0, wall_seconds=0.0)
    t0 = time.perf_counter()
    offered = 0
    shed = 0
    for i, spec in enumerate(iter_effective(trace, rate)):
        offered += 1
        scheduler.advance_to(spec.release)
        if scheduler.admission is not None or tenants is not None:
            tenant = tenants[i] if tenants is not None else None
            outcome = scheduler.submit(
                work=spec.work,
                span=spec.span,
                mode=spec.mode,
                weight=spec.weight,
                release=spec.release,
                tenant=tenant,
            )
            if tenant is not None:
                row = report._tenant_row(tenant)
                row["offered"] += 1
                row["accepted" if outcome.accepted else "shed"] += 1
            if not outcome.accepted:
                shed += 1
        else:
            # verbatim ids require re-stamping after any earlier sheds
            scheduler.submit_spec(
                spec
                if spec.job_id == scheduler.n_submitted
                else JobSpec(
                    job_id=scheduler.n_submitted,
                    release=spec.release,
                    work=spec.work,
                    span=spec.span,
                    mode=spec.mode,
                    weight=spec.weight,
                )
            )
    result = scheduler.drain() if drain else None
    report.offered = offered
    report.accepted = offered - shed
    report.shed = shed
    report.wall_seconds = time.perf_counter() - t0
    report.stats = scheduler.stats()
    report.drain_summary = (
        {"mean_flow": result.mean_flow, "makespan": result.makespan}
        if result is not None
        else None
    )
    return report, result


class _WireClient:
    """Reconnecting JSON-lines client with a per-request retry budget.

    Retries cover the failures a fault-injected server actually throws at
    a client: connection resets, per-request timeouts (after which the
    stream is desynced, so the socket is dropped and re-opened) and
    explicit ``overloaded`` shed responses.  Backoff is exponential with
    multiplicative jitter from a seeded generator, so loadgen runs stay
    reproducible.  Every failure is *counted* on the report — nothing is
    swallowed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        report: LoadGenReport,
        timeout: float | None = None,
        max_retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.report = report
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.rng = np.random.default_rng(retry_seed)
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self._ever_connected = False

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        if self._ever_connected:
            self.report.reconnects += 1
        self._ever_connected = True

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.writer = None
            self.reader = None

    async def _drop(self) -> None:
        """Tear the socket down; the next attempt reconnects fresh."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            self.reader = None

    async def _roundtrip(self, request: dict) -> dict:
        assert self.reader is not None and self.writer is not None
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def call(self, request: dict) -> dict | None:
        """One request, retried within budget; ``None`` = gave up."""
        attempt = 0
        while True:
            failure: str | None = None
            if self.writer is None:
                try:
                    await self.connect()
                except OSError as exc:
                    failure = f"connect: {exc}"
            if failure is None:
                try:
                    coro = self._roundtrip(request)
                    if self.timeout is not None:
                        resp = await asyncio.wait_for(coro, self.timeout)
                    else:
                        resp = await coro
                except asyncio.TimeoutError:
                    self.report.timeouts += 1
                    failure = "timeout"
                    # a late response would desync request/response
                    # framing, so the socket cannot be reused
                    await self._drop()
                except (ConnectionError, OSError, ValueError) as exc:
                    failure = f"{type(exc).__name__}: {exc}"
                    await self._drop()
                else:
                    if resp.get("overloaded"):
                        self.report.overloaded += 1
                        failure = "overloaded"
                    else:
                        return resp
            if attempt >= self.max_retries:
                self.report.errors += 1
                return None
            attempt += 1
            self.report.retries += 1
            await asyncio.sleep(
                retry_delay(attempt, self.backoff, self.backoff_cap, self.rng)
            )
        return None  # pragma: no cover - unreachable


async def replay_over_wire(
    host: str,
    port: int,
    trace: Trace,
    rate: float = 1.0,
    pace: float | None = None,
    drain: bool = True,
    verify: bool = False,
    *,
    tenants: list[str] | None = None,
    timeout: float | None = None,
    max_retries: int = 0,
    backoff: float = 0.05,
    backoff_cap: float = 2.0,
    retry_seed: int = 0,
) -> LoadGenReport:
    """Stream ``trace`` to a running server over the JSON-lines protocol.

    With ``verify=True`` (requires ``drain``) the drained per-job flow
    times are compared against a local batch :func:`repro.flowsim.simulate`
    of the jobs the server accepted, using the server's own policy, seed
    and machine size from ``hello`` — the report's ``verified`` /
    ``max_abs_diff`` fields carry the outcome.  Verification requires the
    server to run the virtual ``trace`` clock (exact release stamps).

    ``timeout`` / ``max_retries`` / ``backoff`` configure per-request
    deadlines and the retry budget (exponential backoff with seeded
    jitter; see :class:`_WireClient`).  A submit that exhausts its budget
    is *counted* on the report (``errors``) and skipped, not raised — a
    crashing server should degrade the report, not the client.  Note that
    retries are at-least-once: a submit whose response was lost may be
    applied twice server-side, so keep ``max_retries=0`` (the default)
    for bit-exact verification runs.

    ``trace`` may also be a lazy job stream (e.g.
    :func:`repro.workloads.swf.swf_stream` for SWF archive replay); jobs
    are pulled and sent one at a time, so client memory stays O(1) —
    except under ``verify``, which must buffer the accepted specs to
    re-simulate them offline.  Tenant labelling needs an in-memory
    trace.
    """
    is_trace = isinstance(trace, Trace)
    if tenants is not None:
        if not is_trace:
            raise ValueError(
                "tenant labelling needs an in-memory Trace, not a stream"
            )
        if len(tenants) != len(trace.jobs):
            raise ValueError("tenants must label every job of the trace")
    report = LoadGenReport(
        offered=0, accepted=0, shed=0, wall_seconds=0.0
    )
    client = _WireClient(
        host,
        port,
        report,
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        backoff_cap=backoff_cap,
        retry_seed=retry_seed,
    )
    try:
        hello = await client.call({"op": "hello"})
        if hello is None or not hello.get("ok"):
            raise ConnectionError(f"hello failed: {hello}")
        # a wall-clock server releases jobs "now"; sending the trace's
        # release stamps would land in its past and be rejected
        stamp_releases = hello.get("clock") == "trace"
        t0 = time.perf_counter()
        keep_specs = bool(verify and drain)
        accepted = 0
        accepted_specs: list[JobSpec] = []
        offered = 0
        shed = 0
        prev_release: float | None = None
        for i, spec in enumerate(iter_effective(trace, rate)):
            offered += 1
            if (
                pace is not None
                and prev_release is not None
                and spec.release > prev_release
            ):
                await asyncio.sleep((spec.release - prev_release) / pace)
            prev_release = spec.release
            tenant = tenants[i] if tenants is not None else None
            request = {
                "op": "submit",
                "work": spec.work,
                "span": spec.span,
                "mode": spec.mode.value,
                "weight": spec.weight,
            }
            if tenant is not None:
                request["tenant"] = tenant
            if stamp_releases:
                request["release"] = spec.release
            row = report._tenant_row(tenant) if tenant is not None else None
            retries_before = report.retries
            if row is not None:
                row["offered"] += 1
            resp = await client.call(request)
            if row is not None:
                row["retries"] += report.retries - retries_before
            if resp is None:
                if row is not None:
                    row["errors"] += 1
                continue  # counted in report.errors by the client
            if not resp.get("ok"):
                report.errors += 1
                if row is not None:
                    row["errors"] += 1
                continue
            if resp["accepted"]:
                accepted += 1
                if keep_specs:
                    accepted_specs.append(spec)
                if row is not None:
                    row["accepted"] += 1
            else:
                shed += 1
                if row is not None:
                    row["shed"] += 1
        report.offered = offered
        report.accepted = accepted
        report.shed = shed
        stats_resp = await client.call({"op": "stats"})
        report.stats = (stats_resp or {}).get("stats", {})
        report.wall_seconds = time.perf_counter() - t0
        if drain:
            resp = await client.call(
                {"op": "drain", "include_flows": bool(verify)}
            )
            if resp is None or not resp.get("ok"):
                raise RuntimeError(
                    f"drain failed: {resp.get('error') if resp else 'no response'}"
                )
            report.drain_summary = resp["result"]
            if verify:
                name = getattr(trace, "name", "stream")
                _verify_against_offline(
                    report, hello, accepted_specs, name, resp
                )
        return report
    finally:
        await client.close()


def _verify_against_offline(
    report: LoadGenReport,
    hello: dict,
    accepted_specs: list[JobSpec],
    name: str,
    drain_resp: dict,
) -> None:
    from repro.flowsim.engine import FlowSimConfig, simulate
    from repro.flowsim.policies import policy_by_name

    if hello.get("clock") != "trace" or hello.get("shards", 1) > 1:
        # wall clock ⇒ releases are not replayable; N > 1 shards are N
        # machines, not the single machine a batch replay simulates
        report.verified = None
        return
    offline = simulate(
        _accepted_trace(accepted_specs, name),
        m=int(hello["m"]),
        policy=policy_by_name(hello["policy_key"]),
        seed=int(hello["seed"]),
        config=FlowSimConfig(speed=float(hello.get("speed", 1.0))),
    )
    flows = drain_resp.get("flow_times")
    if flows is None:  # the router nests flows in its merged report
        flows = drain_resp["result"]["flow_times"]
    online_flows = np.asarray(flows, dtype=float)
    if online_flows.shape != offline.flow_times.shape:
        report.verified = False
        report.max_abs_diff = float("inf")
        return
    diff = (
        float(np.max(np.abs(online_flows - offline.flow_times)))
        if online_flows.size
        else 0.0
    )
    report.max_abs_diff = diff
    scale = max(1.0, float(np.max(np.abs(offline.flow_times), initial=0.0)))
    report.verified = bool(diff <= 1e-9 * scale)
