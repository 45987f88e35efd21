"""Parity: a grid cell must reproduce the serial harness's row exactly."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_flow_point
from repro.analysis.pool import FlowSweepCell
from repro.core.job import ParallelismMode
from repro.flowsim.policies import DrepParallel, DrepSequential, RoundRobin, SRPT

SEQ = ParallelismMode.SEQUENTIAL
PAR = ParallelismMode.FULLY_PARALLEL


class TestParity:
    @pytest.mark.parametrize("pol_name,factory,mode", [
        pytest.param("srpt", SRPT, SEQ, id="srpt-SRPT"),
        pytest.param("rr", RoundRobin, SEQ, id="rr-RoundRobin"),
        pytest.param("drep", DrepSequential, SEQ, id="drep-DrepSequential"),
        pytest.param("srpt", SRPT, PAR, id="srpt-SRPT-fully_parallel"),
        pytest.param("rr", RoundRobin, PAR, id="rr-RoundRobin-fully_parallel"),
        pytest.param(
            "drep-par", DrepParallel, PAR, id="drep-par-DrepParallel-fully_parallel"
        ),
    ])
    def test_cell_matches_harness(self, pol_name, factory, mode):
        cell_row = FlowSweepCell(
            "finance", 0.6, 2, mode.value, pol_name, 150, 31
        ).run()
        (harness_row,) = run_flow_point(
            "finance", 0.6, 2, mode, {cell_row["scheduler"]: factory},
            n_jobs=150, seed=31,
        )
        assert {k: cell_row[k] for k in harness_row} == harness_row

    def test_mode_plumbs_through(self):
        row = FlowSweepCell("finance", 0.6, 2, "fully_parallel", "srpt", 80, 32).run()
        assert row["mode"] == "fully_parallel"
        # fully parallel at m=2 ~ single resource: flows differ from the
        # sequential-mode cell on the same parameters
        seq = FlowSweepCell("finance", 0.6, 2, "sequential", "srpt", 80, 32).run()
        assert row["mean_flow"] != seq["mean_flow"]
