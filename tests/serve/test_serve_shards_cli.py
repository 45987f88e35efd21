"""``drep-sim serve --shards N`` honors the engine flags or refuses them.

The sharded path builds its shards from the same :class:`ServeConfig` as
the serial server, so ``--speed``, ``--window``, ``--max-pending`` and
``--request-timeout`` reach the shards and the frontend.  Flags the
router cannot honor exit 2 with a message instead of being dropped.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.serve.loadgen import replay_over_wire
from repro.workloads.traces import generate_trace

SRC = str(Path(__file__).resolve().parents[2] / "src")
_PORT_RE = re.compile(r"listening on [\d.]+:(\d+)")


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--clock", "wall"], "--clock wall"),
        (["--time-scale", "2"], "--time-scale"),
        (["--restore", "snap.json"], "--restore"),
        (["--snapshot-path", "snap.json"], "--snapshot-path"),
        (["--autoscale"], "--autoscale*"),
        (["--autoscale-tick", "5"], "--autoscale*"),
    ],
    ids=["clock-wall", "time-scale", "restore", "snapshot-path",
         "autoscale", "autoscale-tick"],
)
def test_shards_refuse_flags_they_cannot_honor(
    flags, named, monkeypatch, capsys
):
    from repro.serve import shard

    def spawn(*args, **kwargs):
        raise AssertionError("a refused flag must not spawn shards")

    monkeypatch.setattr(shard, "build_subprocess_router", spawn)
    assert cli.main(["serve", "--shards", "2", *flags]) == 2
    assert f"--shards cannot honor {named} " in capsys.readouterr().err


def test_shards_forward_engine_and_listener_flags(monkeypatch, tmp_path):
    """The shard template, which the frontend also listens with, carries
    every honored flag."""
    from repro.serve import shard

    class Stop(Exception):
        pass

    seen = []

    def spawn(n_shards, journal_root, config, **kwargs):
        seen.append(config)
        raise Stop  # before anything spawns or binds

    monkeypatch.setattr(shard, "build_subprocess_router", spawn)
    with pytest.raises(Stop):
        cli.main([
            "serve", "--shards", "1", "--journal-dir", str(tmp_path),
            "--speed", "4", "--window", "50",
            "--max-pending", "3", "--request-timeout", "2",
        ])
    (config,) = seen
    assert (config.speed, config.window) == (4.0, 50.0)
    assert (config.max_pending, config.request_timeout) == (3, 2.0)


class _Served:
    """One ``drep-sim serve`` process on an ephemeral port."""

    def __init__(self, *argv: str, **env_overrides: str) -> None:
        env = {**os.environ, **env_overrides}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for line in self.proc.stdout:
            match = _PORT_RE.search(line)
            if match:
                break
        else:
            raise RuntimeError(f"server exited: {self.proc.wait()}")
        self.sock = socket.create_connection(
            ("127.0.0.1", int(match.group(1))), timeout=30
        )
        self.rfile = self.sock.makefile("rb")

    def call(self, **request) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        return json.loads(self.rfile.readline())

    @property
    def port(self) -> int:
        return self.sock.getpeername()[1]

    def close(self, how: str = "shutdown") -> None:
        try:
            if how == "shutdown":
                self.call(op="shutdown")
            else:
                self.proc.send_signal(signal.SIGTERM)
        finally:
            self.rfile.close()
            self.sock.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _drained_flows(*argv: str, jobs) -> list[float]:
    served = _Served(*argv)
    try:
        for spec in jobs:
            resp = served.call(
                op="submit", work=spec.work, span=spec.span, release=spec.release
            )
            assert resp["ok"] and resp["accepted"], resp
        drained = served.call(op="drain", include_flows=True)
        assert drained["ok"], drained
        # the serial server answers flows at the top level, the router
        # inside its merged report
        return drained.get("flow_times") or drained["result"]["flow_times"]
    finally:
        served.close()


@pytest.mark.slow
def test_one_shard_drains_like_the_serial_server(tmp_path):
    """``--shards 1 --speed 4`` runs its shard at speed 4, like serial."""

    argv = ("--m", "8", "--policy", "srpt", "--speed", "4", "--window", "50")
    # one work-8 sequential job alone on the machine, then a trace
    trace = generate_trace(40, "finance", 0.7, 8, seed=3).jobs
    jobs = [
        replace(trace[0], work=8.0, span=8.0, release=0.0),
        *(replace(s, release=s.release + 10.0) for s in trace),
    ]
    serial = _drained_flows(*argv, jobs=jobs)
    sharded = _drained_flows(
        "--shards", "1", "--journal-dir", str(tmp_path), *argv, jobs=jobs
    )
    assert serial[0] == 2.0  # work 8 on one processor at speed 4
    assert json.dumps(sharded) == json.dumps(serial)


def _loadgen(served: _Served, trace):
    return asyncio.run(
        replay_over_wire("127.0.0.1", served.port, trace, verify=True)
    )


@pytest.mark.slow
def test_loadgen_verifies_one_shard_like_the_serial_server(tmp_path):
    """The router's hello names its clock, policy and speed, so loadgen
    stamps releases and ``--verify`` replays them offline."""
    argv = ("--m", "4", "--policy", "srpt", "--speed", "2")
    trace = generate_trace(50, "finance", 0.7, 4, seed=5)
    reports = {}
    for label, extra in (
        ("serial", ()),
        ("sharded", ("--shards", "1", "--journal-dir", str(tmp_path))),
    ):
        served = _Served(*extra, *argv)
        try:
            hello = served.call(op="hello")
            assert (hello["clock"], hello["policy_key"], hello["speed"]) == (
                "trace", "srpt", 2.0,
            )
            reports[label] = _loadgen(served, trace)
        finally:
            served.close()
    # both sides equal the same offline replay exactly, so each other
    for report in reports.values():
        assert report.accepted == 50
        assert report.verified is True, report.summary()
        assert report.max_abs_diff == 0.0
    assert reports["sharded"].drain_summary["mean_flow"] == pytest.approx(
        reports["serial"].drain_summary["mean_flow"], rel=1e-12
    )


@pytest.mark.slow
@pytest.mark.parametrize("how", ["shutdown", "sigterm"])
def test_shards_remove_their_temp_journal_on_exit(tmp_path, how):
    """Without ``--journal-dir`` the router journals into a temp
    directory of its own, and removes it however it is stopped."""
    served = _Served("--shards", "1", "--m", "2", TMPDIR=str(tmp_path))
    try:
        assert served.call(op="submit", work=1.0, release=0.0)["accepted"]
        assert [p.name[:12] for p in tmp_path.iterdir()] == ["drep-shards-"]
    finally:
        served.close(how)
    assert list(tmp_path.iterdir()) == []
