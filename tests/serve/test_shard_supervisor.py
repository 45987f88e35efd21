"""Hardened shard restart and the self-healing supervisor loop.

Everything here runs without real subprocesses: spawn attempts are
monkeypatched and the backoff ``sleep`` is injected, so the retry
discipline (bounded exponential backoff, seeded jitter, reap before
every attempt) is asserted on recorded values instead of wall-clock.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.rng import derive_seed
from repro.serve.loadgen import retry_delay
from repro.serve.server import ServeConfig
from repro.serve.shard import (
    ShardError,
    ShardSupervisor,
    SubprocessShard,
)


def make_shard(tmp_path, **kw) -> SubprocessShard:
    sleeps: list[float] = []
    base = dict(
        restart_backoff=0.25,
        restart_backoff_cap=1.0,
        max_restart_attempts=3,
        sleep=sleeps.append,
    )
    base.update(kw)
    shard = SubprocessShard("shard/0", ServeConfig(m=2, seed=11), tmp_path, **base)
    shard._test_sleeps = sleeps
    return shard


class _DeadProc:
    """A child that already exited — poll() returns its code."""

    def __init__(self, code: int = -9) -> None:
        self.code = code
        self.waited = False
        self.stdout = io.StringIO()  # the child's captured stdout pipe

    def poll(self):
        return self.code

    def wait(self, timeout=None):
        self.waited = True
        return self.code


class _LiveProc:
    def poll(self):
        return None

    def wait(self, timeout=None):  # pragma: no cover - never reached
        raise AssertionError("must not wait on a live child")


class TestReap:
    def test_reap_collects_dead_child(self, tmp_path):
        shard = make_shard(tmp_path)
        proc = _DeadProc()
        shard._proc = proc
        shard.reap()
        assert proc.waited
        assert proc.stdout.closed
        assert shard._proc is None

    def test_reap_refuses_live_child(self, tmp_path):
        shard = make_shard(tmp_path)
        shard._proc = _LiveProc()
        with pytest.raises(ShardError, match="still running"):
            shard.reap()

    def test_reap_with_no_child_is_a_no_op(self, tmp_path):
        shard = make_shard(tmp_path)
        shard.reap()
        assert shard._proc is None


class TestRestartRetries:
    def wire(self, shard, fail_starts: int):
        """Make ``start`` fail ``fail_starts`` times, then succeed."""
        calls = {"n": 0}

        def fake_start():
            calls["n"] += 1
            if calls["n"] <= fail_starts:
                raise OSError("spawn failed")
            shard._proc = _LiveProc()

        shard.start = fake_start
        shard.call = lambda request: {"ok": True, "recovered": True}
        return calls

    def test_succeeds_after_transient_failures(self, tmp_path):
        shard = make_shard(tmp_path)
        calls = self.wire(shard, fail_starts=2)
        hello = shard.restart()
        assert hello["ok"]
        assert calls["n"] == 3
        assert shard.restart_attempts == 3
        assert shard.restarts == 1
        # one backoff sleep per failed attempt, none after the success
        assert len(shard._test_sleeps) == 2

    def test_backoff_is_bounded_exponential_with_seeded_jitter(self, tmp_path):
        shard = make_shard(tmp_path, max_restart_attempts=4)
        self.wire(shard, fail_starts=3)
        shard.restart()
        # replay the exact jitter stream the shard derives its delays from
        rng = np.random.default_rng(derive_seed(11, "restart/shard/0"))
        expected = [retry_delay(a, 0.25, 1.0, rng) for a in (1, 2, 3)]
        assert shard._test_sleeps == expected
        # bounded: every delay is at most the cap
        assert all(d <= 1.0 for d in shard._test_sleeps)

    def test_exhausted_budget_raises_shard_error(self, tmp_path):
        shard = make_shard(tmp_path)
        self.wire(shard, fail_starts=99)
        with pytest.raises(ShardError, match="failed to restart after 3"):
            shard.restart()
        assert shard.restart_attempts == 3
        assert shard.restarts == 0
        assert len(shard._test_sleeps) == 2  # no sleep after the last attempt

    def test_restart_reaps_the_corpse_first(self, tmp_path):
        shard = make_shard(tmp_path)
        proc = _DeadProc()
        shard._proc = proc
        self.wire(shard, fail_starts=0)
        shard.restart()
        assert proc.waited

    def test_attempt_counters_survive_into_supervision_stats(self, tmp_path):
        shard = make_shard(tmp_path)
        self.wire(shard, fail_starts=1)
        shard.restart()
        stats = shard.supervision_stats()
        assert stats["restart_attempts"] == 2
        assert stats["restarts"] == 1
        assert stats["alive"] is True


class _FakeRouter:
    def __init__(self, shards) -> None:
        self.shards = shards


class _ScriptedShard(SubprocessShard):
    """A SubprocessShard whose health and revival are scripted."""

    def __init__(self, tmp_path, name, healthy=True, revivable=True) -> None:
        super().__init__(name, ServeConfig(m=2, seed=11), tmp_path)
        self.healthy = healthy
        self.revivable = revivable
        self.restart_calls = 0

    def ping(self) -> bool:
        return self.healthy

    def restart(self) -> dict:
        self.restart_calls += 1
        if not self.revivable:
            raise ShardError("restart budget exhausted")
        self.healthy = True
        self.restarts += 1
        return {"ok": True}


class TestSupervisor:
    def test_healthy_fleet_sweep(self, tmp_path):
        router = _FakeRouter(
            {f"shard/{i}": _ScriptedShard(tmp_path, f"shard/{i}") for i in range(3)}
        )
        sup = ShardSupervisor(router)
        assert sup.check_once() == {
            "shard/0": "healthy",
            "shard/1": "healthy",
            "shard/2": "healthy",
        }
        assert sup.sweeps == 1 and sup.revivals == 0

    def test_dead_shard_is_revived(self, tmp_path):
        dead = _ScriptedShard(tmp_path, "shard/1", healthy=False)
        router = _FakeRouter(
            {"shard/0": _ScriptedShard(tmp_path, "shard/0"), "shard/1": dead}
        )
        sup = ShardSupervisor(router)
        status = sup.check_once()
        assert status["shard/1"] == "revived"
        assert dead.restart_calls == 1
        assert sup.revivals == 1
        # next sweep finds it healthy — no second restart
        assert sup.check_once()["shard/1"] == "healthy"
        assert dead.restart_calls == 1

    def test_unrevivable_shard_is_quarantined(self, tmp_path):
        hopeless = _ScriptedShard(
            tmp_path, "shard/0", healthy=False, revivable=False
        )
        sup = ShardSupervisor(_FakeRouter({"shard/0": hopeless}))
        assert sup.check_once() == {"shard/0": "failed"}
        assert sup.failures == 1 and sup.failed == {"shard/0"}
        # quarantined: later sweeps do not retry the restart
        assert sup.check_once() == {"shard/0": "failed"}
        assert hopeless.restart_calls == 1

    def test_local_shards_are_skipped(self, tmp_path):
        from repro.serve.shard import LocalShard

        router = _FakeRouter({"shard/0": LocalShard("shard/0", ServeConfig(m=2))})
        sup = ShardSupervisor(router)
        assert sup.check_once() == {"shard/0": "local"}

    def test_run_bounded_by_max_sweeps(self, tmp_path):
        sup = ShardSupervisor(
            _FakeRouter({"shard/0": _ScriptedShard(tmp_path, "shard/0")})
        )
        sleeps: list[float] = []
        sup.run(interval=0.5, max_sweeps=3, sleep=sleeps.append)
        assert sup.sweeps == 3
        assert sleeps == [0.5, 0.5]  # no sleep after the final sweep

    def test_run_honors_stop_event(self, tmp_path):
        import threading

        sup = ShardSupervisor(
            _FakeRouter({"shard/0": _ScriptedShard(tmp_path, "shard/0")})
        )
        stop = threading.Event()
        stop.set()
        sup.run(interval=0.5, max_sweeps=10, sleep=lambda _: None)
        assert sup.sweeps == 10
        sup2 = ShardSupervisor(
            _FakeRouter({"shard/0": _ScriptedShard(tmp_path, "shard/0")})
        )
        sup2.run(interval=0.5, stop=stop, sleep=lambda _: None)
        assert sup2.sweeps == 0

    def test_stats_merge_per_shard_counters(self, tmp_path):
        dead = _ScriptedShard(tmp_path, "shard/1", healthy=False)
        sup = ShardSupervisor(
            _FakeRouter(
                {"shard/0": _ScriptedShard(tmp_path, "shard/0"), "shard/1": dead}
            )
        )
        sup.check_once()
        stats = sup.stats()
        assert stats["sweeps"] == 1
        assert stats["revivals"] == 1
        assert stats["failed"] == []
        assert stats["per_shard"]["shard/1"]["restarts"] == 1
