"""Request framing is shared by both JSON-lines listeners.

A request line longer than asyncio's default 64 KiB stream limit used to
raise inside the sharded frontend's ``readline()``, resetting the
connection so the next request was never answered.  Both listeners now
read through :func:`repro.serve.server.read_line`: a line within
``max_line_bytes`` is served, a longer one gets a ``line too long``
error, and either way the connection keeps serving.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.server import SchedulerServer, ServeConfig
from repro.serve.shard import ShardFrontend, build_local_router

BIG = 200_000  # well past asyncio's 64 KiB default limit


async def _exchange(port: int, lines: list[bytes]) -> list[dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        out = []
        for line in lines:
            writer.write(line)
            await writer.drain()
            out.append(json.loads(await reader.readline()))
        return out
    finally:
        writer.close()


def _big_ping() -> bytes:
    return json.dumps({"op": "ping", "id": 1, "pad": "x" * BIG}).encode() + b"\n"


PING_2 = json.dumps({"op": "ping", "id": 2}).encode() + b"\n"


def _frontend_roundtrip(**kwargs) -> list[dict]:
    async def main():
        frontend = ShardFrontend(build_local_router(1, m=2, seed=0), **kwargs)
        await frontend.start()
        try:
            return await _exchange(frontend.port, [_big_ping(), PING_2])
        finally:
            await frontend.stop()

    return asyncio.run(main())


def _server_roundtrip(**kwargs) -> list[dict]:
    async def main():
        server = SchedulerServer(ServeConfig(m=2, port=0, **kwargs))
        await server.start()
        try:
            return await _exchange(server.port, [_big_ping(), PING_2])
        finally:
            await server.stop()

    return asyncio.run(main())


def test_frontend_serves_a_line_past_the_stream_default():
    first, second = _frontend_roundtrip()
    assert first["ok"] and first["id"] == 1
    assert second["ok"] and second["id"] == 2


def test_frontend_rejects_an_oversized_line_and_keeps_serving():
    first, second = _frontend_roundtrip(max_line_bytes=4096)
    assert not first["ok"]
    assert first["error"].startswith("line too long (> 4096 bytes")
    assert second["ok"] and second["id"] == 2


@pytest.mark.parametrize("limit", [None, 4096])
def test_frontend_answers_like_the_serial_server(limit):
    kwargs = {} if limit is None else {"max_line_bytes": limit}
    front = _frontend_roundtrip(**kwargs)
    serial = _server_roundtrip(**kwargs)
    assert [r["ok"] for r in front] == [r["ok"] for r in serial]
    assert [r.get("error") for r in front] == [r.get("error") for r in serial]


def test_frontend_refuses_a_tiny_limit():
    with pytest.raises(ValueError):
        ShardFrontend(build_local_router(1, m=2, seed=0), max_line_bytes=8)
