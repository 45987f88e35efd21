#!/usr/bin/env python
"""CI smoke for the sharded multi-tenant serving tier (`make shard-smoke`).

1. boots a router over 2 journaled `drep-sim serve` subprocess shards
   with DRF multi-tenant admission sized to the fleet;
2. pushes an overloaded trace split across 3 tenants on a skewed
   (zipf:1.5) label distribution — the hot tenant offers ~5x what the
   coldest one does;
3. asserts **no tenant starves**: every tenant has accepted jobs, the
   hot tenant is the one being shed, and every colder tenant's
   acceptance *rate* beats the hot tenant's (DRF serves you better the
   less you dominate);
4. runs the identical workload a second time and requires the merged,
   canonically-serialized report to match **byte for byte** — the
   sharded tier's replay-determinism contract;
5. boots `drep-sim serve --shards 1 --speed 2 --window 50` and the
   serial `drep-sim serve --speed 2 --window 50`, replays one trace to
   each over the wire and requires byte-identical drained flow times —
   the CLI builds both from one `ServeConfig`, so no flag is dropped.

Exits non-zero (with a message) on any violation.  Needs only the
package itself — no pytest.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.serve.loadgen import tenant_labels  # noqa: E402
from repro.serve.shard import build_subprocess_router  # noqa: E402
from repro.workloads.traces import generate_trace  # noqa: E402

SEED = 21
N_JOBS = 120
N_TENANTS = 3


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def workload():
    # trace sized for 8 machines at load 0.9 -> offered utilization ~1.8
    # on the 2x2-core fleet, so the admission layer has real shedding to
    # do and the DRF layer has a dominant tenant to find
    jobs = generate_trace(N_JOBS, "finance", 0.9, 8, seed=SEED).jobs
    tenants = tenant_labels(N_JOBS, N_TENANTS, "zipf:1.5", seed=SEED)
    return list(zip(jobs, tenants))


def run_once(journal_root: Path) -> tuple[dict, bytes]:
    router = build_subprocess_router(
        2,
        journal_root,
        m=2,
        policy="drep",
        seed=SEED,
        multi_tenant=True,
        drf_headroom=1.1,
        max_load=1.0,
        halflife=5.0,
        snapshot_every=16,
    )
    try:
        for spec, tenant in workload():
            router.submit(
                work=spec.work,
                span=spec.span,
                release=spec.release,
                tenant=tenant,
            )
        healthy = router.ping_all()
        if not all(healthy.values()):
            fail(f"unhealthy shards after load: {healthy}")
        merged = router.drain()
        return merged, router.report_json()
    finally:
        router.close()


def cli_flows(*argv: str) -> str:
    """Drained flow times of one trace replayed to ``drep-sim serve``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        for line in proc.stdout:
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                break
        else:
            fail(f"serve {' '.join(argv)} exited with {proc.wait()}")
        with socket.create_connection(
            ("127.0.0.1", int(match.group(1))), timeout=60
        ) as sock, sock.makefile("rb") as rfile:

            def call(**request) -> dict:
                sock.sendall(json.dumps(request).encode() + b"\n")
                resp = json.loads(rfile.readline())
                if not resp.get("ok"):
                    fail(f"serve {' '.join(argv)}: {request['op']}: {resp}")
                return resp

            for spec in generate_trace(N_JOBS, "finance", 0.7, 4, seed=SEED).jobs:
                call(op="submit", work=spec.work, span=spec.span,
                     release=spec.release)
            drained = call(op="drain", include_flows=True)
            call(op="shutdown")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    # the serial server answers flows at the top level, the router inside
    # its merged report
    flows = drained.get("flow_times") or drained["result"]["flow_times"]
    return json.dumps(flows)


def check_cli(journal_root: Path) -> None:
    argv = ("--m", "4", "--policy", "drep", "--seed", str(SEED),
            "--speed", "2", "--window", "50")
    serial = cli_flows(*argv)
    sharded = cli_flows("--shards", "1", "--journal-dir", str(journal_root),
                        *argv)
    if sharded != serial:
        fail("serve --shards 1 drained different flow times than the "
             "serial serve with the same flags")
    print(f"cli: serve --shards 1 == serve ({N_JOBS} jobs, speed 2, "
          "window 50), flow times byte-identical")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="drep-shard-smoke-") as tmp:
        merged, blob = run_once(Path(tmp) / "run-a")
        rows = merged["tenants"]
        offered = {t: 0 for t in rows}
        for _, tenant in workload():
            offered[tenant] = offered.get(tenant, 0) + 1
        hot = max(offered, key=offered.get)

        print(f"shards=2 m_total={merged['m_total']} "
              f"offered={merged['offered']} accepted={merged['accepted']} "
              f"shed={merged['shed']}")
        for tenant in sorted(rows):
            row = rows[tenant]
            print(f"  tenant {tenant}: offered={offered[tenant]} "
                  f"accepted={row['accepted']} shed={row['shed']} "
                  f"mean_flow={row['mean_flow']:.3f}")

        if len(rows) != N_TENANTS:
            fail(f"expected {N_TENANTS} tenants in the report, got {rows}")
        for tenant, row in rows.items():
            if row["accepted"] == 0:
                fail(f"tenant {tenant} starved (0 accepted)")
        if rows[hot]["shed"] == 0:
            fail(f"hot tenant {hot} was never shed despite overload")
        hot_rate = rows[hot]["accepted"] / offered[hot]
        for tenant, row in rows.items():
            rate = row["accepted"] / offered[tenant]
            if tenant != hot and rate <= hot_rate:
                fail(f"tenant {tenant} accepted at {rate:.2f} <= hot "
                     f"tenant's {hot_rate:.2f} — DRF should serve "
                     "non-dominant tenants strictly better")

        _, blob_b = run_once(Path(tmp) / "run-b")
        if blob != blob_b:
            fail("replay mismatch: two identical sharded runs produced "
                 "different merged reports")
        check_cli(Path(tmp) / "cli")

    print("OK: no tenant starved, shedding tracked dominance, the "
          "sharded replay is byte-identical, and serve --shards 1 drains "
          "like serve")


if __name__ == "__main__":
    main()
