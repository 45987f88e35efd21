"""Snapshots written before the event loop was unified still restore.

``tests/data/flowsim_state_parent.json`` is a scheduler snapshot taken by
the engine that still had the ``use_rates_array`` / ``use_batch_horizon``
config knobs: DREP on a 60-job finance trace (load 0.7, m=4, seed 21),
every job registered up front with ``submit_spec`` and the clock advanced
to job 30's release.  It was produced with::

    trace = generate_trace(60, "finance", 0.7, 4, seed=21)
    sched = OnlineScheduler(4, policy_by_name("drep"), seed=21)
    for spec in trace.jobs:
        sched.submit_spec(spec)
    sched.advance_to(trace.jobs[30].release)
    json.dump(snapshot_scheduler(sched), f, indent=1, sort_keys=True)

Restoring it must drop the retired keys and continue to exactly the
flows of an uninterrupted run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.flowsim.engine import FlowStepper, simulate
from repro.flowsim.policies import policy_by_name
from repro.serve.snapshot import restore_scheduler
from repro.workloads.traces import generate_trace

DATA = Path(__file__).resolve().parents[1] / "data" / "flowsim_state_parent.json"
RETIRED = ("use_rates_array", "use_batch_horizon")


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def uninterrupted():
    trace = generate_trace(60, "finance", 0.7, 4, seed=21)
    return simulate(trace, 4, policy_by_name("drep"), seed=21)


def test_fixture_carries_the_retired_keys(snapshot):
    config = snapshot["engine"]["config"]
    assert all(key in config for key in RETIRED)
    assert 0 < snapshot["engine"]["completed"] < len(snapshot["engine"]["jobs"])


def test_old_snapshot_restores_and_drains_bit_for_bit(snapshot, uninterrupted):
    sched = restore_scheduler(snapshot)
    result = sched.drain()
    assert result.flow_times.tolist() == uninterrupted.flow_times.tolist()
    assert result.extra["events"] == uninterrupted.extra["events"]
    assert result.extra["switches"] == uninterrupted.extra["switches"]


def test_restored_engine_writes_only_current_keys(snapshot, uninterrupted):
    sched = restore_scheduler(snapshot)
    state = sched.stepper.state_dict()
    assert not any(key in state["config"] for key in RETIRED)
    # and the rewritten state round-trips through the current reader
    again = FlowStepper.from_state_dict(state, sched.policy)
    again.drain()
    assert again.result().flow_times.tolist() == uninterrupted.flow_times.tolist()
