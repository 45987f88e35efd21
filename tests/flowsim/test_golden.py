"""Golden bit-for-bit equivalence tests for the flow-level engine.

``tests/data/golden_flowsim.json`` was captured from the pre-optimization
engine (before the PR-2 hot-path overhaul: cached active-set views, the
``rates_stable`` rate cache, amortized invariant checks).  Every policy
must reproduce it exactly — per-job flow times at full float precision,
event/switch counters, and the policy RNG end-state digest where a
policy draws randomness.

Two extra gates pin the amortization contract:

* ``check_every_k=1`` (validate every rate call) must give identical
  results to the default ``check_every_k=32`` — the skipped checks are
  pure validation, never semantics;
* a large ``check_every_k`` likewise changes nothing.

Regenerate the goldens only for a deliberate semantic change
(``PYTHONPATH=src python tests/data/gen_goldens.py``).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.flowsim.engine import FlowSimConfig

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

GOLDEN = json.loads((DATA_DIR / "golden_flowsim.json").read_text())


@pytest.fixture(scope="module")
def seq_trace():
    return gen_goldens.flow_seq_trace()


@pytest.fixture(scope="module")
def par_trace():
    return gen_goldens.flow_par_trace()


def test_golden_covers_all_cases():
    expected = (
        {f"seq/{p}" for p in gen_goldens.FLOW_SEQ_POLICIES}
        | {f"par/{p}" for p in gen_goldens.FLOW_PAR_POLICIES}
        | {"seq/drep/speed2", "profiled/srpt"}
    )
    assert expected == set(GOLDEN)


@pytest.mark.parametrize("policy", gen_goldens.FLOW_SEQ_POLICIES)
def test_sequential_bit_for_bit(seq_trace, policy):
    got = gen_goldens.run_flow_case(seq_trace, 4, policy, seed=7)
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


@pytest.mark.parametrize("policy", gen_goldens.FLOW_PAR_POLICIES)
def test_parallel_bit_for_bit(par_trace, policy):
    got = gen_goldens.run_flow_case(par_trace, 4, policy, seed=7)
    assert json.loads(json.dumps(got)) == GOLDEN[f"par/{policy}"]


def test_speed_augmented_bit_for_bit(seq_trace):
    got = gen_goldens.run_flow_case(
        seq_trace, 4, "drep", seed=7, config=FlowSimConfig(speed=2.0)
    )
    assert json.loads(json.dumps(got)) == GOLDEN["seq/drep/speed2"]


def test_profiled_bit_for_bit():
    got = gen_goldens.run_flow_case(
        gen_goldens.flow_profiled_trace(),
        4,
        "srpt",
        seed=7,
        config=FlowSimConfig(use_profiles=True),
    )
    assert json.loads(json.dumps(got)) == GOLDEN["profiled/srpt"]


@pytest.mark.parametrize("policy", ["srpt", "rr", "drep", "setf", "wdrep"])
@pytest.mark.parametrize("k", [1, 1000])
def test_check_every_k_is_pure_validation(seq_trace, policy, k):
    got = gen_goldens.run_flow_case(
        seq_trace, 4, policy, seed=7, config=FlowSimConfig(check_every_k=k)
    )
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


# -- the vectorized rates_array hook vs the object path -------------------
#
# `routed=True` sends every hook policy through `rates(view)` (see
# `gen_goldens.route_through_rates`).  Both surfaces must hit the same
# goldens bit-for-bit: the hook is an execution strategy, never semantics.


@pytest.mark.parametrize("policy", gen_goldens.FLOW_SEQ_POLICIES)
def test_sequential_object_path_bit_for_bit(seq_trace, policy):
    got = gen_goldens.run_flow_case(seq_trace, 4, policy, seed=7, routed=True)
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


@pytest.mark.parametrize("policy", gen_goldens.FLOW_PAR_POLICIES)
def test_parallel_object_path_bit_for_bit(par_trace, policy):
    got = gen_goldens.run_flow_case(par_trace, 4, policy, seed=7, routed=True)
    assert json.loads(json.dumps(got)) == GOLDEN[f"par/{policy}"]


def test_speed_augmented_object_path_bit_for_bit(seq_trace):
    got = gen_goldens.run_flow_case(
        seq_trace, 4, "drep", seed=7, config=FlowSimConfig(speed=2.0),
        routed=True,
    )
    assert json.loads(json.dumps(got)) == GOLDEN["seq/drep/speed2"]


def test_profiled_object_path_bit_for_bit():
    got = gen_goldens.run_flow_case(
        gen_goldens.flow_profiled_trace(),
        4,
        "srpt",
        seed=7,
        config=FlowSimConfig(use_profiles=True),
        routed=True,
    )
    assert json.loads(json.dumps(got)) == GOLDEN["profiled/srpt"]
