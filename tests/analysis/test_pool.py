"""Tests for the deterministic grid runner (`repro.analysis.pool`).

The headline contract: for any worker count and chunk size, `run_grid`
returns exactly `[fn(t) for t in tasks]` — same rows, same order, same
bytes.  Everything else (counters, seed derivation, serial-sweep parity)
hangs off that.
"""

from __future__ import annotations

import pytest

from repro.analysis.pool import (
    FlowSweepCell,
    default_chunk_size,
    flow_sweep_cells,
    run_flow_grid,
    run_grid,
)
from repro.core.rng import derive_seed
from repro.perf.counters import PerfCounters


def _square(x: int) -> int:
    return x * x


class TestRunGrid:
    def test_serial_is_plain_map(self):
        assert run_grid(_square, range(7)) == [x * x for x in range(7)]

    def test_empty(self):
        assert run_grid(_square, [], workers=4) == []

    def test_pooled_equals_serial(self):
        tasks = list(range(23))
        serial = run_grid(_square, tasks, workers=1)
        assert run_grid(_square, tasks, workers=3) == serial
        assert run_grid(_square, tasks, workers=3, chunk_size=1) == serial
        assert run_grid(_square, tasks, workers=2, chunk_size=100) == serial

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            run_grid(_square, [1], workers=0)

    def test_counters(self):
        c = PerfCounters()
        run_grid(_square, range(10), workers=2, chunk_size=3, counters=c)
        assert c.pool_tasks == 10
        assert c.pool_chunks == 4  # ceil(10 / 3)
        assert c.pool_workers == 2

    def test_workers_capped_by_tasks(self):
        c = PerfCounters()
        run_grid(_square, [1, 2], workers=16, counters=c)
        assert c.pool_workers == 2

    def test_default_chunk_size(self):
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1

    def test_default_chunk_size_degenerate_shapes(self):
        # more workers than tasks, zero tasks, zero workers: always >= 1
        assert default_chunk_size(2, 16) == 1
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(10, 0) == 3  # workers clamped to 1

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            run_grid(_square, [1, 2, 3], workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            run_grid(_square, [1, 2, 3], workers=2, chunk_size=-4)

    def test_empty_tasks_skip_pool_and_counters(self):
        c = PerfCounters()
        assert run_grid(_square, [], workers=8, counters=c) == []
        assert c.as_dict() == {}

    def test_single_task_many_workers_runs_inline(self):
        c = PerfCounters()
        assert run_grid(_square, [6], workers=32, counters=c) == [36]
        assert c.pool_workers == 1  # clamped: no pool for one task
        assert c.pool_chunks == 1


class TestFlowGrid:
    def test_workers_1_equals_workers_4(self):
        cells = flow_sweep_cells(
            "finance", 0.7, "sequential", [2, 4], 80, seed=5, replicates=2
        )
        serial = run_flow_grid(cells, workers=1)
        pooled = run_flow_grid(cells, workers=4)
        assert serial == pooled

    def test_rows_match_serial_sweep(self):
        """Replicate 0 of the grid == run_flow_sweep, field for field."""
        from repro.analysis.experiments import flow_policy_factories, run_flow_sweep
        from repro.core.job import ParallelismMode

        mode = ParallelismMode.SEQUENTIAL
        grid_rows = run_flow_grid(
            flow_sweep_cells("finance", 0.6, mode, [2, 4], 100, seed=3)
        )
        sweep_rows = run_flow_sweep(
            "finance", 0.6, mode, [2, 4], 100, seed=3,
            policies=flow_policy_factories(mode),
        )
        assert len(grid_rows) == len(sweep_rows)
        for g, s in zip(grid_rows, sweep_rows):
            for key in s:
                if key == "figure":
                    continue
                assert g[key] == s[key], key

    def test_rows_have_no_process_dependent_fields(self):
        row = run_flow_grid(
            [FlowSweepCell("finance", 0.5, 2, "sequential", "srpt", 40, 0)]
        )[0]
        assert "pid" not in row
        assert set(row) == {
            "figure", "distribution", "load", "m", "mode", "scheduler",
            "mean_flow", "p99_flow", "preemptions", "switches",
            "utilization", "seed", "events",
        }

    def test_replicate_seeds_derived(self):
        cells = flow_sweep_cells(
            "finance", 0.5, "sequential", [2], 40, seed=9,
            policies=("srpt",), replicates=3,
        )
        assert [c.seed for c in cells] == [
            9, derive_seed(9, "rep/1"), derive_seed(9, "rep/2")
        ]

    def test_parallel_mode_default_policies(self):
        cells = flow_sweep_cells("bing", 0.5, "fully_parallel", [2], 40)
        assert [c.policy for c in cells] == ["srpt", "swf", "rr", "drep-par"]

    def test_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            flow_sweep_cells("finance", 0.5, "sequential", [2], 40, replicates=0)


def _probe_shared(key: tuple) -> tuple:
    """Worker-side probe: materialize the trace, report shm hit count.

    Clears the (fork-inherited) per-process memo first so the lookup
    must go through shared memory, as it would under a spawn start
    method where workers begin with an empty memo.
    """
    from repro.analysis import parallel, shm
    from repro.analysis.parallel import memoized_trace

    parallel._TRACE_MEMO.clear()
    trace = memoized_trace(*key)
    return (
        shm.shared_stats()["hits"],
        len(trace.jobs),
        trace.jobs[0].release,
        trace.jobs[-1].work,
    )


class TestSharedMemoryShipping:
    """Zero-copy trace dispatch (`repro.analysis.shm`)."""

    KEY = ("finance", 0.7, 4, 120, "sequential", 21)

    def test_pack_roundtrip_is_exact(self):
        from repro.analysis import shm
        from repro.analysis.parallel import memoized_trace

        trace = memoized_trace(*self.KEY)
        manifest, ship = shm.pack_flow_traces({self.KEY: trace})
        try:
            shm.install_manifest(manifest)
            rec = shm.shared_trace(self.KEY)
            assert rec is not None
            assert rec.jobs == trace.jobs  # JobSpec equality: all fields
            assert (rec.m, rec.load, rec.distribution, rec.name) == (
                trace.m, trace.load, trace.distribution, trace.name
            )
        finally:
            shm.install_manifest(None)
            ship.close_and_unlink()

    def test_lookup_misses_fall_back(self):
        from repro.analysis import shm
        from repro.analysis.parallel import memoized_trace

        assert shm.shared_trace(self.KEY) is None  # no manifest installed
        trace = memoized_trace(*self.KEY)
        manifest, ship = shm.pack_flow_traces({self.KEY: trace})
        try:
            shm.install_manifest(manifest)
            other = ("finance", 0.7, 4, 120, "sequential", 99)
            assert shm.shared_trace(other) is None  # key not shipped
        finally:
            shm.install_manifest(None)
            ship.close_and_unlink()

    def test_dag_traces_are_not_packable(self):
        from repro.analysis import shm
        from repro.workloads.traces import attach_dags, generate_trace

        base = generate_trace(
            n_jobs=12, distribution="finance", load=0.5, m=4, seed=1
        )
        dag_trace = attach_dags(base, parallelism=4, seed=1)
        with pytest.raises(shm.ShmUnavailable):
            shm.pack_flow_traces({("k",): dag_trace})

    def test_workers_see_shared_traces(self):
        """Every worker's first lookup is served from shared memory."""
        from repro.analysis import shm
        from repro.analysis.parallel import memoized_trace

        trace = memoized_trace(*self.KEY)
        manifest, ship = shm.pack_flow_traces({self.KEY: trace})
        try:
            rows = run_grid(
                _probe_shared,
                [self.KEY] * 4,
                workers=2,
                chunk_size=1,
                initializer=shm.install_manifest,
                initargs=(manifest,),
            )
        finally:
            ship.close_and_unlink()
        for hits, n_jobs, first_release, last_work in rows:
            assert hits >= 1
            assert n_jobs == len(trace.jobs)
            assert first_release == trace.jobs[0].release
            assert last_work == trace.jobs[-1].work

    def test_flow_grid_counts_shipment(self):
        cells = flow_sweep_cells(
            "finance", 0.6, "sequential", [2, 4], 60, seed=7,
            policies=("srpt", "drep"),
        )
        c = PerfCounters()
        pooled = run_flow_grid(cells, workers=4, counters=c)
        assert c.pool_shm_traces == 2  # one distinct trace per m value
        assert c.pool_shm_bytes > 0
        serial = run_flow_grid(cells, workers=1)
        assert pooled == serial

    def test_flow_grid_survives_shm_unavailable(self, monkeypatch):
        from repro.analysis import shm

        def _unavailable(keyed):
            raise shm.ShmUnavailable("forced by test")

        monkeypatch.setattr(shm, "pack_flow_traces", _unavailable)
        cells = flow_sweep_cells(
            "finance", 0.6, "sequential", [2], 60, seed=7, policies=("srpt",),
            replicates=2,
        )
        c = PerfCounters()
        pooled = run_flow_grid(cells, workers=2, counters=c)
        assert c.pool_shm_traces == 0  # fell back to memo regeneration
        assert pooled == run_flow_grid(cells, workers=1)
