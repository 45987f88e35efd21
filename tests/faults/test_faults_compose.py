"""Fault injection composed with the SoA kernel and the pool runner.

Faults exercise the engine paths the vectorized hot loop had to keep
intact — mid-run capacity changes, job aborts (active-set removal), and
resume re-insertion — so every plan kind is run through both the SoA
path and the object path (the policy routed through ``rates(view)``)
and must agree exactly.  The pool side checks that `FaultPlan`s survive
per-cell pickling: a resilience grid must produce the same rows whether
the plans ride to a worker process or never leave the parent.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.faults.experiment import run_resilience_experiment
from repro.faults.plan import named_fault_plans
from repro.flowsim.engine import simulate
from repro.flowsim.policies import policy_by_name
from repro.workloads.traces import generate_trace

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(120, "finance", 0.7, 4, seed=17)


@pytest.fixture(scope="module")
def plans(trace):
    baseline = simulate(trace, 4, policy_by_name("srpt"), seed=17)
    return named_fault_plans(4, baseline.makespan, seed=17)


def _record(result) -> dict:
    return {
        "flows": result.flow_times.tolist(),
        "events": result.extra["events"],
        "switches": result.extra["switches"],
        "faults": dict(result.extra.get("faults", {})),
    }


class TestSoaPathUnderFaults:
    @pytest.mark.parametrize("plan_name", ["rolling", "half-down", "random"])
    @pytest.mark.parametrize("policy", ["srpt", "rr", "drep"])
    def test_soa_equals_object_path(self, trace, plans, plan_name, policy):
        plan = plans[plan_name]
        soa = simulate(
            trace, 4, policy_by_name(policy), seed=17, faults=plan
        )
        obj = simulate(
            trace, 4, gen_goldens.route_through_rates(policy_by_name(policy)),
            seed=17, faults=plan,
        )
        assert _record(soa) == _record(obj)

    def test_faults_actually_fired(self, trace, plans):
        result = simulate(
            trace, 4, policy_by_name("srpt"), seed=17, faults=plans["rolling"]
        )
        assert result.extra["faults"]["applied"] > 0


class TestResilienceThroughPool:
    PARAMS = dict(m=4, n_jobs=60, seed=4, plans=("rolling", "random"))

    def test_workers_2_equals_workers_1(self):
        serial = run_resilience_experiment(workers=1, **self.PARAMS)
        pooled = run_resilience_experiment(workers=2, **self.PARAMS)
        assert serial == pooled

    def test_explicit_plan_mapping_through_pool(self, trace, plans):
        """Caller-supplied FaultPlan objects must pickle into workers too."""
        picked = {"rolling": plans["rolling"]}
        serial = run_resilience_experiment(
            m=4, n_jobs=60, seed=4, plans=picked, workers=1
        )
        pooled = run_resilience_experiment(
            m=4, n_jobs=60, seed=4, plans=picked, workers=3
        )
        assert serial == pooled
        assert {r["plan"] for r in serial} == {"rolling"}
