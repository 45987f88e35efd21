"""One-command reproduction report.

:func:`build_report` runs the paper's whole evaluation (Figures 1-3,
Theorem 1.2) at a configurable scale and renders a single markdown
document with series tables and ASCII plots — the artifact a reviewer
would ask for.  Used by ``drep-sim report`` and tested at tiny scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.experiments import (
    flow_trace,
    run_flow_sweep,
    run_ws_sweep,
)
from repro.analysis.tables import ascii_plot, series_table
from repro.core.job import ParallelismMode
from repro.flowsim.engine import simulate
from repro.flowsim.policies import DrepSequential
from repro.theory.preemptions import check_theorem_1_2

__all__ = ["ReportConfig", "build_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Scales and sweeps for a report run."""

    flow_jobs: int = 5_000
    ws_jobs: int = 200
    m_values: tuple[int, ...] = (1, 4, 16, 64)
    loads: tuple[float, ...] = (0.5, 0.7)
    ws_loads: tuple[float, ...] = (0.5, 0.6, 0.7)
    ws_m: int = 8
    distributions: tuple[str, ...] = ("finance", "bing")
    seed: int = 1

    def __post_init__(self) -> None:
        if self.flow_jobs < 1 or self.ws_jobs < 1:
            raise ValueError("job counts must be >= 1")
        if not self.m_values or not self.loads:
            raise ValueError("need at least one m value and one load")


@dataclass
class _Section:
    title: str
    body: list[str] = field(default_factory=list)

    def render(self) -> str:
        return f"## {self.title}\n\n" + "\n".join(self.body) + "\n"


def _plot_from_rows(rows, x: str, value: str, title: str) -> str:
    series: dict[str, tuple[list[float], list[float]]] = {}
    for r in rows:
        xs, ys = series.setdefault(r["scheduler"], ([], []))
        xs.append(float(r[x]))
        ys.append(float(r[value]))
    return ascii_plot(series, width=56, height=12, title=title)


def build_report(config: ReportConfig = ReportConfig()) -> str:
    """Run the full evaluation and return the markdown report text."""
    started = time.time()
    sections: list[_Section] = []

    # Figures 1 and 2
    for fig, mode in (
        ("Figure 1 (sequential jobs)", ParallelismMode.SEQUENTIAL),
        ("Figure 2 (fully parallel jobs)", ParallelismMode.FULLY_PARALLEL),
    ):
        sec = _Section(fig)
        for dist in config.distributions:
            for load in config.loads:
                rows = run_flow_sweep(
                    distribution=dist,
                    load=load,
                    mode=mode,
                    m_values=list(config.m_values),
                    n_jobs=config.flow_jobs,
                    seed=config.seed,
                )
                sec.body.append(f"### {dist}, load {load:.0%}\n")
                sec.body.append("```")
                sec.body.append(
                    series_table(rows, x="m", series="scheduler", value="mean_flow")
                )
                sec.body.append(
                    _plot_from_rows(rows, "m", "mean_flow", "mean flow vs m")
                )
                sec.body.append("```")
        sections.append(sec)

    # Figure 3
    sec = _Section("Figure 3 (work-stealing runtime)")
    for dist in config.distributions:
        rows = run_ws_sweep(
            distribution=dist,
            loads=list(config.ws_loads),
            m=config.ws_m,
            n_jobs=config.ws_jobs,
            seed=config.seed,
        )
        sec.body.append(f"### {dist}, {config.ws_m} cores\n")
        sec.body.append("```")
        sec.body.append(
            series_table(rows, x="load", series="scheduler", value="mean_flow")
        )
        sec.body.append("```")
    sections.append(sec)

    # Theorem 1.2
    sec = _Section("Theorem 1.2 (preemption budgets)")
    lines = ["```", "m  preempt/job  switches  bound_2mn"]
    for m in config.m_values:
        trace = flow_trace("finance", 0.6, m, config.flow_jobs, seed=config.seed + m)
        result = simulate(trace, m, DrepSequential(), seed=config.seed + m)
        budget = check_theorem_1_2(result, config.flow_jobs)
        lines.append(
            f"{m:<3d}{budget.sequential_ratio():<13.3f}"
            f"{budget.observed_switches:<10d}{budget.switch_bound}"
        )
    lines.append("```")
    sec.body.extend(lines)
    sections.append(sec)

    elapsed = time.time() - started
    header = (
        "# DREP reproduction report\n\n"
        f"flow-level points: {config.flow_jobs} jobs; runtime points: "
        f"{config.ws_jobs} jobs; seed {config.seed}; generated in "
        f"{elapsed:.1f}s.\n\n"
        "Shapes to check against the paper: SRPT/SJF lowest and DREP≈RR "
        "(Fig. 1); DREP within a small factor of SRPT, worst on Bing at "
        "1 core (Fig. 2); DREP≈SWF≈admit-first with steal-first worst at "
        "high load (Fig. 3); ~<=1 preemption per job (Thm 1.2).\n"
    )
    return header + "\n" + "\n".join(s.render() for s in sections)


def write_report(path: str | Path, config: ReportConfig = ReportConfig()) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(build_report(config))
    return p


def stream_summary_rows(summaries: "dict[str, dict]") -> list[dict]:
    """Normalize streamed-run summaries into report table rows.

    ``summaries`` maps a row label to either a
    :meth:`repro.core.metrics.StreamResult.summary` dict or a bare
    :meth:`repro.core.metrics.StreamingMetrics.summary` dict.  Rows keep
    the headline flow statistics, mark whether the quantiles are exact
    or reservoir estimates, and surface the memory counters the
    streaming engines record — the numbers a bounded-RAM replay is run
    for.  Sorted by label for deterministic rendering.
    """
    rows: list[dict] = []
    for label in sorted(summaries):
        s = summaries[label]
        perf = s.get("perf", {}) or {}
        row = {
            "run": label,
            "n_jobs": int(s.get("n_jobs", 0)),
            "mean_flow": float(s.get("mean_flow", 0.0)),
            "p50_flow": float(s.get("p50_flow", 0.0)),
            "p99_flow": float(s.get("p99_flow", 0.0)),
            "max_flow": float(s.get("max_flow", 0.0)),
            "quantiles": (
                "exact" if s.get("quantiles_exact", True) else "reservoir"
            ),
        }
        if "mean_slowdown" in s:
            row["mean_slowdown"] = float(s["mean_slowdown"])
        if "slo_attainment" in s:
            # exact O(1)-memory fold (never a reservoir estimate) — see
            # StreamingMetrics.slo_attainment
            row["slo"] = float(s.get("slo_threshold", 0.0))
            row["slo_attainment"] = round(float(s["slo_attainment"]), 4)
        if perf.get("peak_rss_mb"):
            row["peak_rss_mb"] = round(float(perf["peak_rss_mb"]), 1)
        if perf.get("py_peak_mb"):
            row["py_peak_mb"] = round(float(perf["py_peak_mb"]), 2)
        rows.append(row)
    return rows


def stream_report(summaries: "dict[str, dict]", title: str = "Streamed runs") -> str:
    """Markdown section for streamed (bounded-RAM) runs.

    The streaming twin of the dense report tables: per-run flow
    statistics from :class:`~repro.core.metrics.StreamingMetrics`
    summaries plus the recorded memory peaks, with a note when the
    tail quantiles are reservoir estimates rather than exact.
    """
    from repro.analysis.tables import format_table

    rows = stream_summary_rows(summaries)
    sec = _Section(title)
    if not rows:
        sec.body.append("(no streamed runs)")
        return sec.render()
    columns: list[str] = []
    for r in rows:  # key union, first-appearance order (rows may differ)
        for k in r:
            if k not in columns:
                columns.append(k)
    full = [{c: r.get(c, "") for c in columns} for r in rows]
    sec.body.append("```")
    sec.body.append(format_table(full, columns=columns))
    sec.body.append("```")
    if any(r["quantiles"] == "reservoir" for r in rows):
        sec.body.append(
            "\np50/p99 marked `reservoir` are fixed-seed reservoir-sample "
            "estimates (the run exceeded the exact-quantile buffer); "
            "count/mean/total/max are always exact."
        )
    return sec.render()


def tenant_breakdown(
    tenant_flows: dict[str, list[float]], slo: float | None = None
) -> list[dict]:
    """Per-tenant flow-time / SLO rows from grouped per-job flow times.

    ``tenant_flows`` is the shape produced by
    :meth:`repro.serve.online.OnlineScheduler.flows_by_tenant` and by the
    ``tenants`` block of :meth:`repro.serve.shard.ShardRouter.drain` —
    tenant label to list of completed flow times.  ``slo`` adds an
    ``slo_attainment`` column: the fraction of that tenant's jobs whose
    flow time is at or under the target.  Rows are sorted by tenant name
    so the table (and any serialization of it) is deterministic.
    """
    import numpy as np

    rows: list[dict] = []
    for tenant in sorted(tenant_flows):
        flows = np.asarray(tenant_flows[tenant], dtype=float)
        row = {
            "tenant": tenant,
            "count": int(flows.size),
            "mean_flow": float(flows.mean()) if flows.size else 0.0,
            "p95_flow": (
                float(np.percentile(flows, 95)) if flows.size else 0.0
            ),
            "p99_flow": (
                float(np.percentile(flows, 99)) if flows.size else 0.0
            ),
            "max_flow": float(flows.max()) if flows.size else 0.0,
        }
        if slo is not None:
            row["slo"] = float(slo)
            row["slo_attainment"] = (
                float((flows <= slo).mean()) if flows.size else 1.0
            )
        rows.append(row)
    return rows


__all__ += [
    "write_report",
    "tenant_breakdown",
    "stream_summary_rows",
    "stream_report",
]
