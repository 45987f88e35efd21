"""SIGKILL one engine shard mid-run; the merged report must not notice.

Every :class:`~repro.serve.shard.SubprocessShard` carries its own
write-ahead journal, so a shard that dies without warning is restarted
from the same journal directory and replays itself back to the exact
clock, queue and policy-RNG state it died with.  The router keeps
routing by the same ring, so the drained, reassembled report of the
crashed run is byte-identical to an uninterrupted run of the same trace.
"""

from __future__ import annotations

import pytest

from repro.serve.loadgen import tenant_labels
from repro.serve.shard import build_subprocess_router
from repro.workloads.traces import generate_trace

pytestmark = pytest.mark.slow

SEED = 13
VICTIM = "shard/1"


def _workload():
    jobs = generate_trace(30, "finance", 0.7, 4, seed=SEED).jobs
    tenants = tenant_labels(len(jobs), 3, "zipf:1.0", seed=SEED)
    return list(zip(jobs, tenants))


def _run(journal_root, crash: bool) -> bytes:
    workload = _workload()
    half = len(workload) // 2
    router = build_subprocess_router(
        2,
        journal_root,
        m=2,
        policy="drep",
        seed=SEED,
        multi_tenant=True,
        snapshot_every=8,
    )
    routed_to: set[str] = set()
    try:
        for i, (spec, tenant) in enumerate(workload):
            if crash and i == half:
                victim = router.shards[VICTIM]
                victim.kill()
                assert router.ping_all()[VICTIM] is False
                hello = victim.restart()
                assert hello["ok"]
                assert router.ping_all()[VICTIM] is True
            resp = router.submit(
                work=spec.work,
                span=spec.span,
                release=spec.release,
                tenant=tenant,
            )
            assert resp["accepted"]
            if i < half:
                routed_to.add(resp["shard"])
        # the victim must have taken jobs *before* the kill for the
        # crash to prove anything about journal recovery
        assert routed_to == {"shard/0", VICTIM}
        merged = router.drain()
        assert merged["accepted"] == len(workload)
        return router.report_json()
    finally:
        router.close()


def test_sigkill_one_shard_recovers_bit_exact(tmp_path):
    crashed = _run(tmp_path / "crashed", crash=True)
    clean = _run(tmp_path / "clean", crash=False)
    assert crashed == clean
