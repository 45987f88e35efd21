"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import run  # noqa: E402

TINY = {
    "paper_figs": {"flow_jobs": 40, "ws_jobs": 10},
    "overload_stream": {"jobs": 300},
    "serve_wire": {"open_requests": 80, "closed_submits": 80},
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(workload, trace):
    spec = _spec()
    metrics, outcome = run.run_workload(workload, 1, 0.0, trace, TINY[workload])
    line = run.result_line(metrics, outcome, trace)
    assert line["correct"], outcome.errors
    table = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in table}
    for m in table:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        values = {k: v["value"] for k, v in line["metrics"].items()}
        journal = values["journal.appends"]
        assert (journal > 0) == (workload == "serve_wire")
        if workload != "overload_stream":
            assert values["order.ops"] == 0
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_perturbed_mean_flow_fails_the_checks():
    ref = json.loads(common.REFERENCE_PATH.read_text())["paper_figs"]["rows"]
    rows = [{"events": e, "mean_flow": f} for e, f in ref]
    lower = [0.0] * len(rows)
    assert not any(common.check_rows(rows, lower, ref))
    bumped = [dict(r) for r in rows]
    bumped[3]["mean_flow"] = bumped[3]["mean_flow"] * (1 + 1e-15) + 1e-12
    assert common.check_rows(bumped, lower, ref)[3]
    # below the Observation-1 bound fails on any seed, reference or not
    lower[5] = rows[5]["mean_flow"] * 1.01
    assert common.check_rows(rows, lower)[5]


def test_flow_runs_need_two_events_per_job():
    rows = [{"events": 199, "mean_flow": 2.0}]
    assert common.check_rows(rows, [1.0], flow_jobs=[100])[0]
    assert not common.check_rows(rows, [1.0], flow_jobs=[None])[0]


def test_perturbed_drained_flow_fails_the_checks():
    offline = [1.5, 20.25, 3.0]
    assert not common.check_drained(offline, offline, offline)
    drifted = [1.5, 20.25 + 1e-6, 3.0]
    assert common.check_drained(drifted, offline, drifted)
    assert common.check_drained(offline, offline, drifted)
    assert common.check_drained(offline[:2], offline, offline[:2])


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *_spec()["command"][1:], "--workload", "paper_figs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
