"""Property tests: every way of driving the flowsim event loop agrees.

The engine has one event loop.  What varies is how it is driven and
which policy surface it reads, and none of that may change a result:

* **drain ≡ advance_to** — parking the clock at event times splits no
  constant-rate segment, so a run advanced through random release
  times and then drained must equal one plain ``drain`` (the serving
  layer's access pattern against the batch harness's), and a stop at an
  arbitrary horizon parks the clock exactly there;
* **SoA ≡ object path** — hook policies normally get the engine's flat
  structure-of-arrays buffers through ``rates_array`` (with sparse
  ``rates_array_patch`` refreshes); ``gen_goldens.route_through_rates``
  reroutes the same policy instance through ``rates(ActiveView)``.

Both are checked on Hypothesis instances across policies, amortized
check cadences and fault plans; "agree" means per-job flow times at
full float precision, event/switch counters, utilization, the fault log
and the policy RNG end-state digest.  The goldens pin both surfaces to a
frozen fixture; this file pins them to each other on inputs nobody
hand-picked.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec, ParallelismMode
from repro.faults import named_fault_plans
from repro.flowsim.engine import FlowSimConfig, FlowStepper
from repro.flowsim.policies import policy_by_name
from repro.workloads.traces import Trace, generate_trace

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

#: every policy implementing the vectorized hook, by mode it supports
HOOK_POLICIES_SEQ = ["srpt", "sjf", "fifo", "rr", "laps", "drep", "hdf", "wsrpt", "wdrep"]
HOOK_POLICIES_PAR = ["srpt", "swf", "rr", "laps", "drep-par"]
#: policies with only ``rates(view)`` (timers, randomness)
VIEW_POLICIES = ["mlf", "setf", "random-np"]

PLANS = [None, "rolling", "half-down", "brownout", "random"]
#: weighted DREP has no rule for re-seating a recovered processor
NO_FAULTS = {"wdrep"}


@st.composite
def random_instance(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 6))
    mode = draw(
        st.sampled_from([ParallelismMode.SEQUENTIAL, ParallelismMode.FULLY_PARALLEL])
    )
    releases = sorted(
        draw(
            st.lists(
                st.floats(0.0, 40.0, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    works = draw(
        st.lists(st.floats(0.1, 15.0, allow_nan=False), min_size=n, max_size=n)
    )
    jobs = []
    for i in range(n):
        w = float(works[i])
        span = w if mode is ParallelismMode.SEQUENTIAL else w / m
        jobs.append(
            JobSpec(job_id=i, release=float(releases[i]), work=w, span=span, mode=mode)
        )
    return Trace(jobs=jobs, m=m), m, mode


def _pick(mode, idx, extra=()):
    seq = mode is ParallelismMode.SEQUENTIAL
    names = (HOOK_POLICIES_SEQ if seq else HOOK_POLICIES_PAR) + list(extra)
    return names[idx % len(names)]


def _run(trace, m, policy_name, seed, *, config=FlowSimConfig(), plan=None,
         routed=False, horizons=()):
    """Drive one run and record everything that must agree."""
    policy = policy_by_name(policy_name)
    if routed:
        gen_goldens.route_through_rates(policy)
    faults = None
    if plan is not None and policy_name not in NO_FAULTS:
        span = max(j.release for j in trace.jobs) + 50.0
        faults = named_fault_plans(m, span, seed=3)[plan]
    stepper = FlowStepper(m, policy, seed=seed, config=config, faults=faults)
    stepper.add_jobs(list(trace.jobs))
    for h in horizons:
        stepper.advance_to(h)
    stepper.drain()
    result = stepper.result()
    record = {
        "flow_times": result.flow_times.tolist(),
        "preemptions": int(result.preemptions),
        "migrations": int(result.migrations),
        "makespan": float(result.makespan),
        "events": int(result.extra["events"]),
        "switches": int(result.extra["switches"]),
        "utilization": float(result.extra["utilization"]),
        "faults": result.extra.get("faults"),
    }
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        record["rng_digest"] = gen_goldens._rng_digest(rng)
    return record


@settings(max_examples=60, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, 20),
    seed=st.integers(0, 20),
    plan=st.sampled_from(PLANS),
    horizons=st.lists(st.floats(0.0, 80.0, allow_nan=False), max_size=4),
)
def test_soa_path_equals_object_path(inst, policy_idx, seed, plan, horizons):
    """Arbitrary horizon stops split segments the same way on both
    surfaces, so they must agree under them too."""
    trace, m, mode = inst
    policy = _pick(mode, policy_idx)
    horizons = sorted(horizons)
    soa = _run(trace, m, policy, seed, plan=plan, horizons=horizons)
    obj = _run(trace, m, policy, seed, plan=plan, horizons=horizons, routed=True)
    assert soa == obj


@settings(max_examples=25, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, 20),
    k=st.sampled_from([1, 7, 1000]),
    plan=st.sampled_from(PLANS),
)
def test_soa_path_equals_object_path_under_check_k(inst, policy_idx, k, plan):
    """Amortized-check settings must not reintroduce path divergence."""
    trace, m, mode = inst
    policy = _pick(mode, policy_idx)
    config = FlowSimConfig(check_every_k=k)
    soa = _run(trace, m, policy, 5, config=config, plan=plan)
    obj = _run(trace, m, policy, 5, config=config, plan=plan, routed=True)
    assert soa == obj


@settings(max_examples=60, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, 20),
    stops=st.lists(st.integers(0, 13), max_size=6),
    k=st.sampled_from([1, 32]),
    plan=st.sampled_from(PLANS),
    seed=st.integers(0, 10),
)
def test_advance_to_equals_drain(inst, policy_idx, stops, k, plan, seed):
    """Parking the clock at event times (here: random releases) splits
    no segment, so the trajectory is bit-for-bit the drained one — for
    every policy surface (hooks, patches, timers, ``rates(view)``)."""
    trace, m, mode = inst
    policy = _pick(mode, policy_idx, extra=VIEW_POLICIES)
    config = FlowSimConfig(check_every_k=k)
    releases = [j.release for j in trace.jobs]
    horizons = sorted(releases[i % len(releases)] for i in stops)
    drained = _run(trace, m, policy, seed, config=config, plan=plan)
    parked = _run(
        trace, m, policy, seed, config=config, plan=plan, horizons=horizons
    )
    assert parked == drained


@settings(max_examples=20, deadline=None)
@given(
    inst=random_instance(),
    horizon=st.floats(0.5, 60.0, allow_nan=False),
    seed=st.integers(0, 10),
)
def test_advance_to_parks_at_the_horizon(inst, horizon, seed):
    """A horizon stop parks the clock there with nothing past it done."""
    trace, m, mode = inst
    policy = "drep" if mode is ParallelismMode.SEQUENTIAL else "drep-par"
    stepper = FlowStepper(m, policy_by_name(policy), seed=seed)
    stepper.add_jobs(list(trace.jobs))
    stepper.advance_to(horizon)
    assert stepper.now == pytest.approx(horizon, rel=1e-12, abs=1e-12)
    for _, finish in stepper.completion_log:
        assert finish <= horizon * (1 + 1e-12)
    admitted = stepper.n_jobs - stepper.n_pending
    assert admitted >= sum(1 for j in trace.jobs if j.release < horizon)


def test_timer_policies_fall_back_cleanly():
    """MLF/SETF/random-np have no hook: routing changes nothing for them
    (guards the helper's plumbing, not the math)."""
    trace = generate_trace(80, "finance", 0.6, 4, seed=9)
    for policy in VIEW_POLICIES:
        on = gen_goldens.run_flow_case(trace, 4, policy, seed=9)
        off = gen_goldens.run_flow_case(trace, 4, policy, seed=9, routed=True)
        assert on == off, policy


def test_rates_array_default_raises():
    base = policy_by_name("mlf")
    with pytest.raises(NotImplementedError):
        base.rates_array(0.0, 4, None, None, None, None, None)
