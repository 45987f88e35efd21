"""Tests for running flow cells and the per-process trace memo behind them."""

from __future__ import annotations

import os

import pytest

from repro.analysis import parallel as par_mod
from repro.analysis.parallel import memoized_trace
from repro.analysis.pool import FlowSweepCell, flow_sweep_cells, run_flow_grid, run_grid


def cell(**kw):
    defaults = dict(
        distribution="finance",
        load=0.5,
        m=2,
        mode="sequential",
        policy="srpt",
        n_jobs=120,
        seed=3,
    )
    defaults.update(kw)
    return FlowSweepCell(**defaults)


def _cell_pid(c: FlowSweepCell) -> int:
    c.run()
    return os.getpid()


class TestFlowCell:
    def test_runs_inline(self):
        row = cell().run()
        assert row["mean_flow"] > 0
        assert row["scheduler"] == "SRPT"

    def test_picklable(self):
        import pickle

        c = cell()
        assert pickle.loads(pickle.dumps(c)) == c


class TestRunCells:
    """`run_flow_grid` over flow cells, serial and pooled."""

    def test_empty(self):
        assert run_flow_grid([]) == []

    def test_single_cell_inline(self):
        rows = run_flow_grid([cell()], workers=4)
        assert len(rows) == 1

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            run_flow_grid([cell()], workers=0)

    def test_parallel_matches_serial(self):
        cells = [cell(m=m, policy=p) for m in (1, 2) for p in ("srpt", "rr")]
        serial = run_flow_grid(cells, workers=1)
        parallel = run_flow_grid(cells, workers=2)
        assert serial == parallel

    def test_parallel_actually_uses_processes(self):
        cells = [cell(seed=s, n_jobs=400) for s in range(4)]
        pids = run_grid(_cell_pid, cells, workers=4, chunk_size=1)
        assert os.getpid() not in pids
        assert len(set(pids)) >= 2  # at least two distinct worker processes

    def test_submission_order_preserved(self):
        cells = [cell(m=m) for m in (4, 1, 2)]
        rows = run_flow_grid(cells, workers=3)
        assert [r["m"] for r in rows] == [4, 1, 2]


class TestTraceMemo:
    def setup_method(self):
        par_mod._TRACE_MEMO.clear()

    def test_hit_returns_same_object(self):
        key = ("finance", 0.5, 2, 80, "sequential", 11)
        t1 = memoized_trace(*key)
        t2 = memoized_trace(*key)
        assert t1 is t2
        assert len(par_mod._TRACE_MEMO) == 1

    def test_distinct_keys_distinct_traces(self):
        t1 = memoized_trace("finance", 0.5, 2, 80, "sequential", 11)
        t2 = memoized_trace("finance", 0.5, 2, 80, "sequential", 12)
        assert t1 is not t2
        assert len(par_mod._TRACE_MEMO) == 2

    def test_memo_matches_direct_generation(self):
        from repro.core.job import ParallelismMode
        from repro.workloads.traces import generate_trace

        memo = memoized_trace("finance", 0.6, 2, 60, "sequential", 7)
        direct = generate_trace(
            n_jobs=60,
            distribution="finance",
            load=0.6,
            m=2,
            mode=ParallelismMode("sequential"),
            seed=7,
        )
        assert [s.work for s in memo.jobs] == [s.work for s in direct.jobs]
        assert [s.release for s in memo.jobs] == [
            s.release for s in direct.jobs
        ]

    def test_fifo_eviction_bounds_size(self, monkeypatch):
        monkeypatch.setattr(par_mod, "_TRACE_MEMO_MAX", 3)
        for seed in range(5):
            memoized_trace("finance", 0.5, 1, 30, "sequential", seed)
        assert len(par_mod._TRACE_MEMO) == 3
        # oldest entries were evicted first
        seeds = [key[5] for key in par_mod._TRACE_MEMO]
        assert seeds == [2, 3, 4]

    def test_cells_sharing_params_reuse_trace(self):
        rows = run_flow_grid([cell(policy="srpt"), cell(policy="rr")], workers=1)
        assert len(par_mod._TRACE_MEMO) == 1
        assert rows[0]["mean_flow"] > 0


class TestSweep:
    def test_sweep_shape(self):
        cells = flow_sweep_cells(
            "finance", 0.6, "sequential", [1, 2], 100, seed=5,
            policies=["srpt", "drep"],
        )
        rows = run_flow_grid(cells, workers=2)
        assert len(rows) == 4
        assert {r["scheduler"] for r in rows} == {"SRPT", "DREP"}
        # same trace per (m): SRPT <= DREP within each m
        by = {(r["m"], r["scheduler"]): r["mean_flow"] for r in rows}
        for m in (1, 2):
            assert by[(m, "SRPT")] <= by[(m, "DREP")] * (1 + 1e-9)
