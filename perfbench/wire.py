"""``serve_wire``: a journaled ``drep-sim serve`` driven over TCP.

Each round starts a fresh server subprocess (trace clock, DREP, m=8,
journal on with the default snapshot cadence, and an admission cap of
``MAX_ACTIVE`` active jobs that this load never reaches) on a free port
with its own journal directory, and drives it from this process over a
single connection:

* phase A, an open loop: ``open_requests`` requests at ``RATE`` per
  second, about one in four a read (``query`` of the latest accepted
  job, or ``stats``).  Latency is timed from each request's due time,
  so a stall also counts against the requests queued behind it, and the
  generator's own lateness is reported as ``loadgen.lag_p99_ms``;
* phase B, a closed loop: ``closed_submits`` submits with ``WINDOW``
  outstanding at a time.  Its completion rate is ``jobs_per_s``.

The client then drains the server (per-job flows included), shuts it
down and rebuilds the scheduler from the journal directory with
``repro.serve.journal.recover``.  The drained flows must equal an
offline ``flowsim.simulate`` of the accepted jobs, and the recovered
scheduler must reproduce them exactly.  Reads skip the journal but wait
on the same engine lock as submits, so a write-path cost shows in read
latency too.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

from common import (
    PER_LAYER,
    Outcome,
    check_drained,
    end_to_end,
    flow_layers,
    percentile,
    process_cpu_s,
    process_hwm_mb,
    run_rounds,
)
from tracing import mean_summary

SIZES = {"open_requests": 2400, "closed_submits": 6000}
RATE = 400.0
READ_SHARE = 0.25
WINDOW = 16
M = 8
POLICY = "drep"
LOAD = 0.7
MAX_ACTIVE = 100_000
#: wall seconds any one round may take before it is abandoned
ROUND_TIMEOUT = 120.0

LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"
TMP_DIR = ".perfbench_tmp"


class ServerProcess:
    """One ``drep-sim serve`` subprocess, killed and reaped on every exit."""

    def __init__(self, root: Path, seed: int, mode: str | None) -> None:
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=root / TMP_DIR))
        self.journal_dir = self.workdir / "journal"
        self.dump_path = self.workdir / "dump.json"
        serve = [
            "serve", "--m", str(M), "--policy", POLICY, "--seed", str(seed),
            "--host", "127.0.0.1", "--port", "0",
            "--journal-dir", str(self.journal_dir),
            "--max-active", str(MAX_ACTIVE),
        ]
        if mode is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(self.dump_path), mode, *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._stderr = open(self.workdir / "stderr.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        # a server that never prints its port must not hang the run
        self._watchdog = threading.Timer(60.0, self.proc.kill)
        self._watchdog.start()
        try:
            self.port = self._read_port()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        while True:
            line = self.proc.stdout.readline().decode()
            if not line:
                raise RuntimeError(f"server exited before listening: {self.stderr()}")
            if "listening on" in line:
                self._watchdog.cancel()
                return int(line.split()[3].rsplit(":", 1)[1])

    def stderr(self) -> str:
        self._stderr.flush()
        return (self.workdir / "stderr.log").read_text(errors="replace")[-2000:]

    def wait(self, timeout: float = 30.0) -> int:
        return self.proc.wait(timeout=timeout)

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Connection:
    """One pipelined JSON-lines connection; replies resolve in send order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.inflight: deque = deque()
        self.sent = 0
        self.task = asyncio.ensure_future(self._receive())

    async def _receive(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            self.inflight.popleft().set_result((now, json.loads(line)))
        while self.inflight:
            self.inflight.popleft().set_exception(ConnectionError("server closed"))

    async def send(self, request: dict):
        fut = asyncio.get_running_loop().create_future()
        self.inflight.append(fut)
        self.sent += 1
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        return fut

    async def close(self) -> None:
        self.writer.close()
        await self.task


def make_plan(seed: int, sizes: dict):
    """Submitted jobs and the phase-A op sequence, all from ``seed``."""
    from repro.workloads.traces import generate_trace

    n_open = sizes["open_requests"]
    rng = random.Random(seed)
    ops = []
    for _ in range(n_open):
        if rng.random() < READ_SHARE:
            ops.append("stats" if rng.random() < 0.25 else "query")
        else:
            ops.append("submit")
    n_jobs = ops.count("submit") + sizes["closed_submits"]
    trace = generate_trace(n_jobs=n_jobs, distribution="finance", load=LOAD, m=M, seed=seed)
    return trace.jobs, ops


def _submit(spec) -> dict:
    return {
        "op": "submit",
        "work": spec.work,
        "span": spec.span,
        "mode": spec.mode.value,
        "weight": spec.weight,
        "release": spec.release,
    }


async def _drive(server: ServerProcess, jobs, ops) -> dict:
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", server.port, limit=1 << 26
    )
    conn = Connection(reader, writer)
    rec: dict = {"requests": [], "accepted": [], "errors": []}
    hello_at, hello = await (await conn.send({"op": "hello"}))
    rec["setup_s"] = hello_at - server.started
    if not hello.get("ok"):
        rec["errors"].append(f"hello: {hello.get('error')}")
    rec["requests"].append(("hello", hello_at, hello_at, hello_at))
    accepted: list[int] = []
    job_iter = iter(jobs)
    futures = []

    def on_reply(kind, spec, due, sent, window=None):
        def done(fut):
            if window is not None:
                window.release()
            if fut.cancelled() or fut.exception() is not None:
                rec["errors"].append(f"{kind}: no reply")
                return
            at, resp = fut.result()
            rec["requests"].append((kind, due, sent, at))
            if not resp.get("ok"):
                rec["errors"].append(f"{kind}: {resp.get('error')}")
            elif kind.startswith("submit"):
                if resp["accepted"]:
                    accepted.append(resp["job_id"])
                    rec["accepted"].append(spec)
                else:
                    rec["errors"].append(f"submit shed: {resp['decision']}")

        return done

    # phase A: open loop, timed from each request's due time
    t0 = time.perf_counter() + 0.05
    for i, op in enumerate(ops):
        due = t0 + i / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        spec = None
        if op == "submit":
            spec = next(job_iter)
            request = _submit(spec)
        elif op == "query" and accepted:
            request = {"op": "query", "job_id": accepted[-1]}
        else:
            request = {"op": "stats"}
        sent = time.perf_counter()
        fut = await conn.send(request)
        fut.add_done_callback(on_reply("submit" if spec else "read", spec, due, sent))
        futures.append(fut)
    await asyncio.gather(*futures, return_exceptions=True)

    # phase B: closed loop with a fixed window of outstanding submits
    window = asyncio.Semaphore(WINDOW)
    closed = []
    for spec in job_iter:
        await window.acquire()
        sent = time.perf_counter()
        fut = await conn.send(_submit(spec))
        fut.add_done_callback(on_reply("submit_b", spec, sent, sent, window))
        closed.append((sent, fut))
    await asyncio.gather(*(f for _, f in closed), return_exceptions=True)
    # replies arrive in send order, so the last one ends phase B
    rec["phase_b_s"] = closed[-1][1].result()[0] - closed[0][0]

    rec["server_cpu_s"] = process_cpu_s(server.proc.pid)
    sent = time.perf_counter()
    at, drained = await (await conn.send({"op": "drain", "include_flows": True}))
    rec["requests"].append(("drain", sent, sent, at))
    rec["peak_rss_mb"] = process_hwm_mb(server.proc.pid)
    if not drained.get("ok"):
        raise RuntimeError(f"drain failed: {drained.get('error')}")
    rec["drained"] = drained["flow_times"]
    await (await conn.send({"op": "shutdown"}))
    await conn.close()
    rec["sent"] = conn.sent
    return rec


def one_server(root: Path, seed: int, jobs, ops, mode: str | None):
    """Run one server lifetime; returns the client's record of it."""
    from repro.serve.journal import recover
    from repro.serve.server import ServeConfig

    server = ServerProcess(root, seed, mode)
    try:
        rec = asyncio.run(
            asyncio.wait_for(_drive(server, jobs, ops), ROUND_TIMEOUT)
        )
        if server.wait() != 0:
            raise RuntimeError(f"server exited badly: {server.stderr()}")
        # the server's own recipe for an empty scheduler, needed when the
        # journal has not cut a snapshot yet
        empty = ServeConfig(
            m=M, policy=POLICY, seed=seed, max_active=MAX_ACTIVE
        ).build_scheduler
        t0 = time.perf_counter()
        sched, _, _ = recover(server.journal_dir, build_empty=empty)
        rec["recover_s"] = time.perf_counter() - t0
        rec["recovered"] = sched.result().flow_times.tolist()
        if mode is not None:
            rec["dump"] = json.loads(server.dump_path.read_text())
        return rec
    finally:
        server.close()


def offline_flows(specs, seed: int):
    """Flows of an offline ``flowsim.simulate`` over the accepted jobs."""
    import dataclasses

    from repro.flowsim.engine import FlowSimConfig, simulate
    from repro.flowsim.policies import policy_by_name
    from repro.workloads.traces import Trace

    trace = Trace(
        jobs=[dataclasses.replace(s, job_id=i) for i, s in enumerate(specs)],
        m=M,
    )
    result = simulate(
        trace, M, policy_by_name(POLICY), seed=seed, config=FlowSimConfig(speed=1.0)
    )
    return result.flow_times


def _busy_s(requests) -> float:
    """Time at least one request was outstanding, from the client's view."""
    total = 0.0
    end = None
    for _, _, sent, at in sorted(requests, key=lambda r: r[2]):
        if end is None or sent > end:
            total += at - sent
            end = at
        elif at > end:
            total += at - end
            end = at
    return total


def run(seed: int, seconds: float, trace: bool, sizes: dict = SIZES):
    started = time.perf_counter()
    root = Path.cwd()
    (root / TMP_DIR).mkdir(exist_ok=True)
    jobs, ops = make_plan(seed, sizes)
    outcome = Outcome()
    first: dict = {}

    def one_round(i):
        mode = None
        if trace:
            mode = "--traced" if i % 2 == 1 else "--plain"
        try:
            rec = one_server(root, seed, jobs, ops, mode)
        except (
            RuntimeError, OSError, ValueError, asyncio.TimeoutError,
            subprocess.SubprocessError,
        ) as exc:
            outcome.op([f"round {i}: {type(exc).__name__}: {exc}"])
            return None
        # one operation per request sent, failed if it got no reply, an
        # error, or a shed; then one for the drained-flow checks
        for _ in range(rec["sent"] - len(rec["errors"])):
            outcome.op([])
        for err in rec["errors"]:
            outcome.op([err])
        problems = check_drained(
            rec["drained"], offline_flows(rec["accepted"], seed), rec["recovered"]
        )
        first.setdefault("drained", rec["drained"])
        if rec["drained"] != first["drained"]:
            problems.append("drained flows differ from the first round")
        if mode is not None:
            first.setdefault("perf", rec["dump"]["perf"])
            if rec["dump"]["perf"] != first["perf"]:
                problems.append("server engine counters differ traced vs untraced")
        outcome.op(problems)
        rec["mode"] = mode
        return rec

    rounds = [r for r in run_rounds(one_round, seconds, started) if r is not None]
    if not rounds:
        raise RuntimeError(f"no serve_wire round completed: {outcome.errors}")
    plain = [r for r in rounds if r["mode"] != "--traced"]
    median = lambda key, rs=plain: statistics.median(r[key] for r in rs)  # noqa: E731
    if not trace:
        return end_to_end(
            sizes["closed_submits"],
            [r["phase_b_s"] for r in rounds],
            [r["setup_s"] for r in rounds],
            median("peak_rss_mb"),
        ), outcome

    traced = [r for r in rounds if r["mode"] == "--traced"]
    requests = [q for r in plain for q in r["requests"]]
    submits = [(at - due) * 1e3 for kind, due, _, at in requests if kind == "submit"]
    reads = [(at - due) * 1e3 for kind, due, _, at in requests if kind == "read"]
    lags = [
        (sent - due) * 1e3
        for kind, due, sent, _ in requests
        if kind in ("submit", "read")
    ]
    spans = mean_summary(r["dump"]["spans"] for r in traced)
    shed = statistics.fmean(
        r["dump"]["counts"].get("admission.shed", 0) for r in traced
    )

    def tot(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    top_level = sum(
        tot(name)
        for name in spans
        if name.startswith("online.") or name.startswith("journal.")
    )
    busy = statistics.fmean(_busy_s(r["requests"]) for r in traced)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(flow_layers(spans, [traced[0]["dump"]["perf"]]))
    layer.update({
        "submit_p50_ms": percentile(submits, 50),
        "submit_p99_ms": percentile(submits, 99),
        "read_p50_ms": percentile(reads, 50),
        "read_p99_ms": percentile(reads, 99),
        "recover_s": median("recover_s"),
        "fail_frac": outcome.fail_frac,
        "journal.appends": tot("journal.append", "calls"),
        "journal.append_s": tot("journal.append"),
        "journal.snapshots": tot("journal.snapshot", "calls"),
        "journal.snapshot_s": tot("journal.snapshot"),
        "journal.snapshot_bytes": max(traced[0]["dump"]["snapshot_bytes"], default=0),
        "snapshot.encode_s": tot("snapshot.encode"),
        "server.self_s": busy - top_level,
        "online.submit_s": tot("online.submit"),
        "online.submit_calls": tot("online.submit", "calls"),
        "online.advance_s": tot("online.advance"),
        "online.query_s": tot("online.query"),
        "online.stats_s": tot("online.stats"),
        "admission.decide_s": tot("admission.decide"),
        "admission.shed": shed,
        "loadgen.lag_p99_ms": percentile(lags, 99),
        "loadgen.sent": statistics.fmean(len(r["requests"]) for r in plain),
        "loadgen.submit_samples": len(submits),
        "loadgen.read_samples": len(reads),
        "loadgen.server_cpu_s": median("server_cpu_s"),
        # the open loop's wall time is fixed by its rate, so compare the
        # server's CPU time instead
        "trace.overhead_frac": (
            median("server_cpu_s", traced) / median("server_cpu_s") - 1.0
        ),
    })
    return layer, outcome
