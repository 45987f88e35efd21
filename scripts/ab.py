#!/usr/bin/env python
"""Interleaved A/B of this tree against a git ref on the repo benchmark.

    python3 scripts/ab.py REF [--workload W] [--pairs N]

Checks ``REF`` out into a temporary ``git worktree`` and runs *this
tree's* benchmark harness (the ``command`` of ``BENCHMARK.json``) once
per side per pair, with the working directory set to each side, so both
programs are measured by the same harness.  Within a pair both sides run
at the same seed (the pair's index) for ``run_seconds``; which side runs
first alternates from pair to pair, so slow drift of the host lands on
both sides alike.

Per workload and end-to-end metric it prints the parent (``REF``) and
change (this tree) medians, the parent's interquartile range, the
change's win/loss/tie count over the pairs (ties count for neither
side), and the failed-operation share of each side.  A metric whose
change median is worse than the parent median by more than its
``BENCHMARK.json`` bound is flagged ``WORSE``, and so is a failed share
that rises.

Exits 1 when a run reports ``"correct": false`` or prints no result, or
when anything is flagged; 0 otherwise.  The worktree is removed on every
exit path, Ctrl-C and SIGTERM included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


@contextlib.contextmanager
def worktree(ref: str, repo: Path = ROOT):
    """A detached checkout of ``ref`` in a temp dir, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    path = tmp / "tree"
    try:
        subprocess.run(
            ["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet",
             str(path), ref],
            check=True,
        )
        yield path
    finally:
        subprocess.run(
            ["git", "-C", str(repo), "worktree", "remove", "--force",
             str(path)],
            capture_output=True,
        )
        subprocess.run(
            ["git", "-C", str(repo), "worktree", "prune"], capture_output=True
        )
        shutil.rmtree(tmp, ignore_errors=True)


def run_once(spec: dict, workload: str, seed: int, cwd: Path) -> dict | None:
    """One benchmark run in ``cwd``; its result line, or None if absent."""
    argv = [
        str(ROOT / part) if (ROOT / part).is_file() else part
        for part in spec["command"]
    ]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent: list, change: list, end_to_end: list[dict]) -> dict:
    """Per-metric medians, parent IQR, win counts and bound flags.

    ``parent`` and ``change`` are the result lines of the pairs, in pair
    order (``None`` for a run that printed no result).  Only pairs where
    both sides produced a result enter the metrics.
    """
    pairs = [(p, c) for p, c in zip(parent, change) if p and c]
    metrics = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        ps = [p["metrics"][name]["value"] for p, _ in pairs]
        cs = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(c < p if lower else c > p for p, c in zip(ps, cs))
        losses = sum(c > p if lower else c < p for p, c in zip(ps, cs))
        row = {
            "unit": m["unit"],
            "parent_median": statistics.median(ps) if ps else None,
            "change_median": statistics.median(cs) if cs else None,
            "parent_iqr": _iqr(ps),
            "wins": wins,
            "losses": losses,
            "ties": len(ps) - wins - losses,
            "worse": False,
        }
        if ps:
            p_med, c_med = row["parent_median"], row["change_median"]
            limit = p_med * (1 + m["bound"] if lower else 1 - m["bound"])
            row["worse"] = c_med > limit if lower else c_med < limit
        metrics[name] = row

    def fail_frac(runs: list) -> float | None:
        attempted = sum(r["attempted"] for r in runs if r)
        return sum(r["failed"] for r in runs if r) / attempted if attempted else None

    ff = {"parent": fail_frac(parent), "change": fail_frac(change)}
    return {
        "metrics": metrics,
        "fail_frac": ff,
        "fail_frac_rises": (ff["change"] or 0.0) > (ff["parent"] or 0.0),
        "correct": {
            "parent": all(r and r["correct"] for r in parent),
            "change": all(r and r["correct"] for r in change),
        },
    }


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(workload: str, summary: dict) -> str:
    out = [
        f"## {workload}",
        f"{'metric':14s} {'unit':6s} {'parent_med':>12s} {'change_med':>12s} "
        f"{'parent_iqr':>12s} {'W/L/T':>8s}",
    ]
    for name, row in summary["metrics"].items():
        wlt = f"{row['wins']}/{row['losses']}/{row['ties']}"
        flag = "  WORSE" if row["worse"] else ""
        out.append(
            f"{name:14s} {row['unit']:6s} {_fmt(row['parent_median']):>12s} "
            f"{_fmt(row['change_median']):>12s} {_fmt(row['parent_iqr']):>12s} "
            f"{wlt:>8s}{flag}"
        )
    ff, ok = summary["fail_frac"], summary["correct"]
    out.append(
        f"{'fail_frac':14s} {'ratio':6s} {_fmt(ff['parent']):>12s} "
        f"{_fmt(ff['change']):>12s}"
        + ("  WORSE" if summary["fail_frac_rises"] else "")
    )
    out.append(f"correct: parent {ok['parent']}, change {ok['change']}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref of the parent side")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = [args.workload] if args.workload else names
    # a SIGTERM unwinds through the worktree's finally like Ctrl-C does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    status = 0
    with worktree(args.ref) as parent_tree:
        trees = {"parent": parent_tree, "change": ROOT}
        print(
            f"# ab: {args.ref} (parent) vs the working tree (change), "
            f"{args.pairs} pairs x {spec['run_seconds']} s"
        )
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(spec, workload, pair, trees[side])
                    runs[side].append(result)
                    print(
                        f"# {workload} pair {pair} {side}: "
                        f"{'no result' if result is None else 'done'}",
                        file=sys.stderr,
                        flush=True,
                    )
            summary = summarize(
                runs["parent"], runs["change"], spec["end_to_end"]
            )
            print(render(workload, summary), flush=True)
            if (
                not all(summary["correct"].values())
                or summary["fail_frac_rises"]
                or any(row["worse"] for row in summary["metrics"].values())
            ):
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
