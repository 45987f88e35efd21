"""Sharded serving tier: ring placement, seed discipline, merged replay.

Three pillars of :mod:`repro.serve.shard`:

* the consistent-hash ring is a pure function of ``(seed, names, key)``
  and removing one of N shards remaps only that shard's keys (~1/N of a
  fixed population) — checked as Hypothesis properties plus one pinned
  fraction test;
* shard 0 runs on the base seed (the pool's replicate-0 rule), so a
  one-shard router reproduces the serial :class:`OnlineScheduler` flow
  for flow;
* a sharded multi-tenant run drains to a merged report that is
  byte-identical across repeated runs with the same seed.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import derive_seed
from repro.flowsim.engine import FlowSimConfig
from repro.flowsim.policies import policy_by_name
from repro.serve.loadgen import tenant_labels
from repro.serve.online import OnlineScheduler
from repro.serve.server import SchedulerServer, ServeConfig
from repro.serve.shard import (
    HashRing,
    ShardFrontend,
    ShardRouter,
    build_local_router,
    shard_seed,
)
from repro.workloads.traces import generate_trace


def _names(n: int) -> list[str]:
    return [f"shard/{i}" for i in range(n)]


def _keys(n: int) -> list[str]:
    return [f"key-{i}" for i in range(n)]


# -- HashRing properties ---------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=8),
    vnodes=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_ring_placement_is_deterministic(seed, n, vnodes):
    """Two independently built rings agree on every key."""
    a = HashRing(_names(n), seed=seed, vnodes=vnodes)
    b = HashRing(list(_names(n)), seed=seed, vnodes=vnodes)
    keys = _keys(100)
    assert [a.route(k) for k in keys] == [b.route(k) for k in keys]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=6),
    drop_raw=st.integers(min_value=0, max_value=97),
)
@settings(max_examples=40, deadline=None)
def test_removing_a_shard_moves_only_its_own_keys(seed, n, drop_raw):
    """Keys not owned by the dropped shard stay exactly where they were."""
    ring = HashRing(_names(n), seed=seed, vnodes=32)
    drop = _names(n)[drop_raw % n]
    smaller = ring.without(drop)
    for key in _keys(150):
        before = ring.route(key)
        after = smaller.route(key)
        if before == drop:
            assert after != drop
        else:
            assert after == before


def test_removal_remaps_about_one_nth_of_keys():
    """Dropping 1 of 4 shards moves ~1/4 of a fixed key population."""
    ring = HashRing(_names(4), seed=0, vnodes=64)
    keys = _keys(2000)
    owners = {k: ring.route(k) for k in keys}
    smaller = ring.without("shard/1")
    moved = [k for k in keys if smaller.route(k) != owners[k]]
    # exactly the dropped shard's keys move ...
    assert set(moved) == {k for k in keys if owners[k] == "shard/1"}
    # ... and with 64 vnodes that arc is close to its fair 1/4 share
    assert 0.10 <= len(moved) / len(keys) <= 0.45


def test_ring_rejects_bad_construction():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["a", "a"])
    with pytest.raises(ValueError):
        HashRing(["a"], vnodes=0)
    with pytest.raises(KeyError):
        HashRing(["a", "b"]).without("c")


# -- seed discipline -------------------------------------------------------


def test_shard_seed_discipline():
    """Shard 0 keeps the base seed; others derive distinct streams."""
    assert shard_seed(123, 0) == 123
    assert shard_seed(123, 3) == derive_seed(123, "shard/3")
    seeds = [shard_seed(7, i) for i in range(6)]
    assert len(set(seeds)) == len(seeds)


# -- router runs -----------------------------------------------------------


def _submit_trace(router, jobs, tenants=None):
    for i, spec in enumerate(jobs):
        router.submit(
            work=spec.work,
            span=spec.span,
            release=spec.release,
            tenant=None if tenants is None else tenants[i],
        )


def test_one_shard_router_matches_serial_scheduler():
    """``--shards 1`` is the serial reference, flow for flow."""
    jobs = generate_trace(60, "finance", 0.7, 4, seed=9).jobs
    with build_local_router(1, m=4, policy="drep", seed=9) as router:
        _submit_trace(router, jobs)
        merged = router.drain()

    serial = OnlineScheduler(
        m=4,
        policy=policy_by_name("drep"),
        seed=9,
        config=FlowSimConfig(speed=1.0, max_events=None),
    )
    for spec in jobs:
        serial.submit(work=spec.work, span=spec.span, release=spec.release)
    result = serial.drain()

    assert merged["accepted"] == len(jobs)
    assert merged["flow_times"] == [float(f) for f in result.flow_times]
    assert merged["makespan"] == pytest.approx(float(result.makespan))


def _run_sharded_once(n_shards: int = 3, seed: int = 11) -> bytes:
    jobs = generate_trace(45, "finance", 0.7, 4, seed=seed).jobs
    tenants = tenant_labels(len(jobs), 3, "zipf:1.0", seed=seed)
    with build_local_router(
        n_shards, m=2, policy="drep", seed=seed, multi_tenant=True
    ) as router:
        _submit_trace(router, jobs, tenants)
        router.drain()
        return router.report_json()


def test_sharded_run_is_byte_identical_across_runs():
    """Same seed, same shard count -> byte-identical merged report."""
    assert _run_sharded_once() == _run_sharded_once()


def test_merged_report_reassembles_tenants_in_submission_order():
    """Per-tenant groups in the merged report account for every job."""
    jobs = generate_trace(40, "finance", 0.7, 4, seed=5).jobs
    tenants = tenant_labels(len(jobs), 3, "zipf:1.2", seed=5)
    with build_local_router(
        3, m=2, policy="drep", seed=5, multi_tenant=True
    ) as router:
        shard_of: dict[str, set[str]] = {}
        for spec, tenant in zip(jobs, tenants):
            resp = router.submit(
                work=spec.work,
                span=spec.span,
                release=spec.release,
                tenant=tenant,
            )
            assert resp["accepted"]
            shard_of.setdefault(tenant, set()).add(resp["shard"])
        merged = router.drain()

    # default routing key = tenant -> one tenant never spans shards
    assert all(len(s) == 1 for s in shard_of.values())
    rows = merged["tenants"]
    assert set(rows) == set(tenants)
    assert sum(r["accepted"] for r in rows.values()) == merged["accepted"]
    assert sum(r["count"] for r in rows.values()) == len(merged["flow_times"])
    for tenant, row in rows.items():
        assert row["accepted"] == tenants.count(tenant)
        if row["count"]:
            assert row["mean_flow"] == pytest.approx(
                row["total_flow"] / row["count"]
            )
    assert merged["total_flow"] == pytest.approx(sum(merged["flow_times"]))


def test_explicit_key_spreads_one_tenant_over_the_ring():
    """An explicit routing key overrides the tenant-affinity default."""
    with build_local_router(4, m=2, policy="srpt", seed=3) as router:
        shards = {
            router.submit(work=1.0, tenant="t0", key=f"job-{i}")["shard"]
            for i in range(64)
        }
        router.drain()
    assert len(shards) > 1


def test_router_rejects_clock_rewind_and_empty_fleet():
    with pytest.raises(ValueError):
        ShardRouter([])
    with build_local_router(2, m=2, policy="srpt", seed=1) as router:
        router.submit(work=1.0, release=5.0)
        with pytest.raises(ValueError):
            router.advance_to(1.0)


def test_report_json_requires_a_drained_router():
    from repro.serve.shard import ShardError

    with build_local_router(2, m=2, policy="srpt", seed=1) as router:
        with pytest.raises(ShardError):
            router.report_json()


# -- subprocess lifecycle hardening ----------------------------------------


def test_await_port_honors_start_timeout_for_a_silent_child(tmp_path):
    """A child that starts but never prints the port (and never exits)
    must fail within start_timeout — a blocking readline would hang."""
    import subprocess
    import sys
    import time

    from repro.serve.server import ServeConfig
    from repro.serve.shard import ShardError, SubprocessShard

    shard = SubprocessShard(
        "shard/0", ServeConfig(m=2), tmp_path, start_timeout=0.5
    )
    shard._proc = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    t0 = time.monotonic()
    with pytest.raises(ShardError, match="did not report a port"):
        shard._await_port()
    assert time.monotonic() - t0 < 5.0
    # the silent child was reaped, not orphaned, and its pipe closed
    assert shard._proc.returncode is not None
    assert shard._proc.stdout.closed


@pytest.mark.slow
def test_build_subprocess_router_reaps_partially_started_shards(
    tmp_path, monkeypatch
):
    """A shard that spawned but failed mid-start (here: the router's
    connect raises) must be killed by the builder, not leaked."""
    from repro.serve.shard import SubprocessShard, build_subprocess_router

    spawned = []

    def failing_connect(self):
        spawned.append(self._proc)
        raise OSError("injected connect failure")

    monkeypatch.setattr(SubprocessShard, "_connect", failing_connect)
    with pytest.raises(OSError, match="injected connect failure"):
        build_subprocess_router(1, tmp_path, m=2, seed=0)
    assert len(spawned) == 1
    # wait() returns promptly only because the kill loop reached it
    assert spawned[0].wait(timeout=10) is not None
    assert spawned[0].stdout.closed


# -- one submit validator for both request paths ----------------------------


def _line(request: dict) -> bytes:
    return json.dumps(request).encode()


def test_refused_submit_charges_no_tenant():
    """A submit the validator refuses never reaches router admission, so
    the tenant's queue slot is not leaked."""
    frontend = ShardFrontend(build_local_router(1, multi_tenant=True))
    for work in (1.0, -1.0, 2.0):
        asyncio.run(
            frontend._dispatch_line(
                _line(
                    {"op": "submit", "work": work, "tenant": "a", "release": 0.0}
                )
            )
        )
    router = frontend.router
    stats = router.admission.tenant_stats(router.now)["a"]
    assert (stats["accepted"], stats["active"]) == (2, 2)
    assert router.n_offered == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"work": -1.0},
        {"work": True},
        {"work": 1.0, "weight": "2"},
        {"work": 1.0, "span": "3"},
        {"work": 1.0, "release": True},
        {"work": 1.0, "tenant": ""},
        {"work": 1.0, "mode": "bogus"},
    ],
    ids=["work-negative", "work-bool", "weight-str", "span-str",
         "release-bool", "tenant-empty", "mode-unknown"],
)
def test_frontend_refuses_what_the_server_refuses(fields):
    request = {"op": "submit", "tenant": "a", **fields}
    server = SchedulerServer(ServeConfig(m=2, multi_tenant=True))
    expected = asyncio.run(server._dispatch_line(_line(request)))
    frontend = ShardFrontend(build_local_router(1, multi_tenant=True))
    got = asyncio.run(frontend._dispatch_line(_line(request)))
    assert expected["ok"] is False
    assert got == expected
    assert frontend.router.admission.tenant_stats(0.0) == {}


def test_frontend_advance_requires_numeric_to():
    frontend = ShardFrontend(build_local_router(1))
    got = asyncio.run(
        frontend._dispatch_line(_line({"op": "advance", "to": True}))
    )
    assert got == {
        "ok": False,
        "error": "ValueError: advance requires a numeric 'to'",
    }
    assert frontend.router.now == 0.0
