"""SchedulerServer: wire protocol over a real socket, in-process."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.flowsim import simulate
from repro.flowsim.policies import DrepSequential
from repro.serve.server import SchedulerServer, ServeConfig
from repro.workloads.traces import generate_trace


class Client:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def call(self, **request) -> dict:
        return await self.send_raw(json.dumps(request).encode() + b"\n")

    async def send_raw(self, payload: bytes) -> dict:
        self.writer.write(payload)
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)


async def with_server(config: ServeConfig, fn):
    """Start a server on an ephemeral port, run ``fn(client, server)``."""
    server = SchedulerServer(config)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(
            config.host, server.port
        )
        try:
            return await fn(Client(reader, writer), server)
        finally:
            writer.close()
    finally:
        await server.stop()


def trace_config(**kwargs) -> ServeConfig:
    defaults = dict(m=2, policy="drep", seed=7, port=0, clock="trace")
    defaults.update(kwargs)
    return ServeConfig(**defaults)


class TestProtocol:
    def test_hello_identity(self):
        async def scenario(client, server):
            resp = await client.call(op="hello")
            assert resp["ok"]
            assert resp["service"] == "drep-serve"
            assert resp["m"] == 2
            assert resp["policy_key"] == "drep"
            assert resp["clock"] == "trace"
            assert resp["now"] == 0.0

        asyncio.run(with_server(trace_config(), scenario))

    def test_submit_advance_query_lifecycle(self):
        async def scenario(client, server):
            sub = await client.call(op="submit", work=2.0)
            assert sub["ok"] and sub["accepted"] and sub["job_id"] == 0
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "pending"  # admitted at the next step
            await client.call(op="advance", to=1.0)
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "running"
            assert q["remaining"] == pytest.approx(1.0)
            adv = await client.call(op="advance", to=5.0)
            assert adv["now"] == pytest.approx(5.0)
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "completed"
            assert q["flow_time"] == pytest.approx(2.0)

        asyncio.run(with_server(trace_config(m=1), scenario))

    def test_request_id_echoed(self):
        async def scenario(client, server):
            resp = await client.call(op="ping", id="req-42")
            assert resp["ok"] and resp["id"] == "req-42"
            # echoed on errors too, so clients can correlate
            resp = await client.call(op="nope", id=7)
            assert not resp["ok"] and resp["id"] == 7

        asyncio.run(with_server(trace_config(), scenario))

    def test_stats_and_metrics(self):
        async def scenario(client, server):
            await client.call(op="submit", work=1.0)
            await client.call(op="advance", to=3.0)
            stats = (await client.call(op="stats"))["stats"]
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            metrics = await client.call(op="metrics")
            assert metrics["content_type"].startswith("text/plain")
            assert "drep_serve_jobs_completed_total 1" in metrics["text"]
            assert "drep_serve_backpressure" in metrics["text"]

        asyncio.run(
            with_server(trace_config(m=1, max_active=10), scenario)
        )

    def test_drained_flows_match_offline_simulate(self):
        trace = generate_trace(30, "finance", 0.7, 2, seed=7)
        offline = simulate(trace, 2, DrepSequential(), seed=7)

        async def scenario(client, server):
            for spec in trace.jobs:
                resp = await client.call(
                    op="submit", work=spec.work, release=spec.release
                )
                assert resp["accepted"], resp
            done = await client.call(op="drain", include_flows=True)
            assert done["ok"]
            assert done["result"]["n_jobs"] == 30
            np.testing.assert_array_equal(
                np.array(done["flow_times"]), offline.flow_times
            )

        asyncio.run(with_server(trace_config(), scenario))

    def test_shed_over_the_wire(self):
        async def scenario(client, server):
            outcomes = [
                (await client.call(op="submit", work=10.0))["accepted"]
                for _ in range(4)
            ]
            assert outcomes == [True, True, False, False]
            stats = (await client.call(op="stats"))["stats"]
            assert stats["shed"] == 2

        asyncio.run(with_server(trace_config(m=1, max_active=2), scenario))


class TestErrors:
    def test_malformed_and_invalid_requests(self):
        async def scenario(client, server):
            resp = await client.send_raw(b"this is not json\n")
            assert not resp["ok"] and "bad request" in resp["error"]
            resp = await client.send_raw(b"[1, 2, 3]\n")
            assert not resp["ok"]
            resp = await client.call(op="submit")  # missing work
            assert not resp["ok"] and "work" in resp["error"]
            resp = await client.call(op="query", job_id="zero")
            assert not resp["ok"]
            resp = await client.call(op="snapshot")  # no path configured
            assert not resp["ok"] and "path" in resp["error"]
            # the connection survives every error
            assert (await client.call(op="ping"))["ok"]

        asyncio.run(with_server(trace_config(), scenario))

    def test_submit_in_past_reported_not_fatal(self):
        async def scenario(client, server):
            await client.call(op="advance", to=10.0)
            resp = await client.call(op="submit", work=1.0, release=2.0)
            assert not resp["ok"] and "past" in resp["error"]
            assert (await client.call(op="ping"))["ok"]

        asyncio.run(with_server(trace_config(), scenario))


class TestLifecycle:
    def test_shutdown_op_stops_server(self):
        async def scenario():
            server = SchedulerServer(trace_config())
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.config.host, server.port
            )
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            resp = json.loads(await reader.readline())
            assert resp["ok"] and resp["bye"]
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            writer.close()

        asyncio.run(scenario())

    def test_snapshot_op_writes_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(client, server):
            await client.call(op="submit", work=3.0)
            resp = await client.call(op="snapshot", path=str(path))
            assert resp["ok"] and resp["path"] == str(path)

        asyncio.run(with_server(trace_config(m=1), scenario))
        state = json.loads(path.read_text())
        assert state["version"] == 2
        # the snapshot op file is self-contained: every job row is inline
        engine = state["engine"]
        assert len(engine["done"]) + len(engine["live"]) == engine["n_jobs"] == 1


class TestWallClock:
    def test_wall_clock_runs_jobs_in_real_time(self):
        # 100 sim-units per wall second: a work-0.5 job on one machine
        # completes after ~5ms of wall time
        config = trace_config(
            m=1, clock="wall", time_scale=100.0, tick=0.01
        )

        async def scenario(client, server):
            sub = await client.call(op="submit", work=0.5)
            assert sub["accepted"]
            deadline = asyncio.get_running_loop().time() + 5.0
            while True:
                q = await client.call(op="query", job_id=0)
                if q["state"] == "completed":
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert q["flow_time"] == pytest.approx(0.5)
            resp = await client.call(op="advance", to=1000.0)
            assert not resp["ok"]  # advance is a trace-clock op

        asyncio.run(with_server(config, scenario))
