"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload paper_figs --seed 0 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate run that alternates untraced and traced rounds and prints the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The program is imported from ``./src``; without it the run exits with
code 2 and prints no result.  ``--record-reference`` rewrites
``perfbench/reference.json`` from the current program at seed 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("paper_figs", "overload_stream", "serve_wire")
DEFAULT_SEED = 0


def _module(name: str):
    if name == "paper_figs":
        import figs as mod
    elif name == "overload_stream":
        import overload as mod
    else:
        import wire as mod
    return mod


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """``(metrics, outcome)`` for one run; ``metrics`` maps name -> value."""
    mod = _module(name)
    return mod.run(seed, seconds, trace, sizes or mod.SIZES)


def result_line(metrics: dict, outcome, trace: bool) -> dict:
    units = common.PER_LAYER if trace else common.END_TO_END
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def record_reference() -> None:
    """Write the reference rows of the batch workloads at the default seed."""
    import figs
    import overload
    from tracing import Tracer
    from repro.analysis.pool import run_flow_grid, run_ws_grid

    flow, ws = figs.make_cells(DEFAULT_SEED, figs.SIZES)
    figs.generate(flow + ws, Tracer())
    rows = run_flow_grid(flow, workers=1) + run_ws_grid(ws, workers=1)
    jobs = overload.generate(DEFAULT_SEED, overload.SIZES["jobs"])
    runs = [
        overload.run_stream(jobs, p, DEFAULT_SEED, None) for p in overload.POLICIES
    ]
    ref = {
        "paper_figs": {
            "seed": DEFAULT_SEED,
            "sizes": figs.SIZES,
            "rows": [[r["events"], r["mean_flow"]] for r in rows],
        },
        "overload_stream": {
            "seed": DEFAULT_SEED,
            "sizes": overload.SIZES,
            "rows": [[r.extra["events"], r.mean_flow] for r in runs],
        },
    }
    common.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # a SIGTERM unwinds through every finally, so servers are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    metrics, outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    line = result_line(metrics, outcome, bool(args.trace))
    for err in outcome.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
