"""Both JSON-lines listeners serve through one listener class.

A request line longer than asyncio's default 64 KiB stream limit used to
raise inside the sharded frontend's ``readline()``, resetting the
connection so the next request was never answered.  Both listeners now
read through :func:`repro.serve.server.read_line`: a line within
``max_line_bytes`` is served, a longer one gets a ``line too long``
error, and either way the connection keeps serving.  The
``max_pending`` / ``request_timeout`` gate and the ``bad_lines`` count
are the shared :class:`~repro.serve.server.JsonLinesListener`'s too, so
each case below runs against both the serial server and the frontend.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.server import SchedulerServer, ServeConfig
from repro.serve.shard import ShardFrontend, build_local_router

BIG = 200_000  # well past asyncio's 64 KiB default limit
LISTENERS = ["server", "frontend"]


def _listener(kind: str, **kwargs):
    config = ServeConfig(m=2, port=0, **kwargs)
    if kind == "server":
        return SchedulerServer(config)
    return ShardFrontend(build_local_router(1, m=2, seed=0), config)


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


def _roundtrip(kind: str, **kwargs) -> list[dict]:
    async def main():
        listener = _listener(kind, **kwargs)
        await listener.start()
        try:
            return await _exchange(listener.port, [_big_ping(), PING_2])
        finally:
            await listener.stop()

    return asyncio.run(main())


def test_frontend_serves_a_line_past_the_stream_default():
    first, second = _roundtrip("frontend")
    assert first["ok"] and first["id"] == 1
    assert second["ok"] and second["id"] == 2


def test_frontend_rejects_an_oversized_line_and_keeps_serving():
    first, second = _roundtrip("frontend", max_line_bytes=4096)
    assert not first["ok"]
    assert first["error"].startswith("line too long (> 4096 bytes")
    assert second["ok"] and second["id"] == 2


@pytest.mark.parametrize("limit", [None, 4096])
def test_frontend_answers_like_the_serial_server(limit):
    kwargs = {} if limit is None else {"max_line_bytes": limit}
    front = _roundtrip("frontend", **kwargs)
    serial = _roundtrip("server", **kwargs)
    assert [r["ok"] for r in front] == [r["ok"] for r in serial]
    assert [r.get("error") for r in front] == [r.get("error") for r in serial]


def test_frontend_refuses_a_tiny_limit():
    with pytest.raises(ValueError):
        ShardFrontend(
            build_local_router(1, m=2, seed=0), ServeConfig(max_line_bytes=8)
        )


# -- the shared gate and counters ------------------------------------------


async def _call(port: int, request: dict) -> dict:
    return (await _exchange(port, [json.dumps(request).encode() + b"\n"]))[0]


@pytest.mark.parametrize("kind", LISTENERS)
def test_listener_sheds_past_max_pending(kind):
    """With the lock held, the first request waits and the next is shed."""

    async def main():
        listener = _listener(kind, max_pending=1)
        await listener.start()
        try:
            await listener._lock.acquire()
            waiting = asyncio.ensure_future(
                _call(listener.port, {"op": "ping", "id": 1})
            )
            while listener._pending < 1:
                await asyncio.sleep(0.01)
            shed = await _call(listener.port, {"op": "ping", "id": 2})
            listener._lock.release()
            served = await waiting
            stats = await _call(listener.port, {"op": "stats"})
            return shed, served, stats["stats"]["server"]
        finally:
            await listener.stop()

    shed, served, server = asyncio.run(main())
    assert shed["ok"] is False and shed["overloaded"] is True
    assert shed["id"] == 2 and "max_pending=1" in shed["error"]
    assert served["ok"] and served["id"] == 1
    assert server["shed_requests"] == 1


@pytest.mark.parametrize("kind", LISTENERS)
def test_listener_times_out_past_request_timeout(kind):
    async def main():
        listener = _listener(kind, request_timeout=0.05)
        await listener.start()
        try:
            await listener._lock.acquire()
            timed_out = await _call(listener.port, {"op": "ping", "id": 7})
            listener._lock.release()
            stats = await _call(listener.port, {"op": "stats"})
            return timed_out, stats["stats"]["server"]
        finally:
            await listener.stop()

    timed_out, server = asyncio.run(main())
    assert timed_out["ok"] is False and timed_out["timed_out"] is True
    assert timed_out["id"] == 7
    assert server["timed_out_requests"] == 1


@pytest.mark.parametrize("kind", LISTENERS)
def test_listener_counts_bad_lines(kind):
    async def main():
        listener = _listener(kind, max_line_bytes=4096)
        await listener.start()
        try:
            replies = await _exchange(
                listener.port,
                [
                    b"not json\n",
                    b"[1, 2]\n",
                    _big_ping(),
                    json.dumps({"op": "stats"}).encode() + b"\n",
                ],
            )
            return replies
        finally:
            await listener.stop()

    *bad, stats = asyncio.run(main())
    assert [r["ok"] for r in bad] == [False, False, False]
    assert stats["stats"]["server"]["bad_lines"] == 3
