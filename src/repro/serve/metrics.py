"""Rolling serving metrics with Prometheus text exposition.

All statistics are over a sliding window of the *simulation* clock
(``window`` sim-time units): the windowed mean/percentile flow times of
recently completed jobs, completion throughput, plus monotone lifetime
counters (submitted / completed / shed).  The window is a deque pruned
as completions are recorded and again on read, so recording is O(1)
amortized, reading is O(window size), and the state a snapshot carries
never outgrows the window.

:meth:`RollingMetrics.to_prometheus` renders the standard text
exposition format (``# HELP`` / ``# TYPE`` / sample lines) so the
server's ``metrics`` op can be scraped or eyeballed directly; flow-time
quantiles use the conventional ``summary`` representation.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["RollingMetrics"]


class _TenantWindow:
    """Per-tenant counters plus a windowed deque of completions."""

    __slots__ = ("submitted", "completed", "shed", "flows")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: (finish_time, flow_time) of completions, oldest first
        self.flows: deque[tuple[float, float]] = deque()

    def state_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "flows": [[t, f] for t, f in self.flows],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "_TenantWindow":
        win = cls()
        win.submitted = int(state["submitted"])
        win.completed = int(state["completed"])
        win.shed = int(state["shed"])
        win.flows = deque((float(t), float(f)) for t, f in state["flows"])
        return win


class RollingMetrics:
    """Windowed flow-time and throughput statistics for one scheduler.

    When events carry a ``tenant`` label, the same statistics are also
    kept per tenant (the label threads from
    :meth:`repro.serve.online.OnlineScheduler.submit` through completion
    pumping), so the windowed block and the Prometheus exposition both
    gain per-tenant breakdowns without a second metrics object.
    """

    def __init__(self, window: float = 1000.0) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = float(window)
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: (finish_time, flow_time) of completions, oldest first
        self._flows: deque[tuple[float, float]] = deque()
        self._tenants: dict[str, _TenantWindow] = {}

    def _tenant(self, tenant: str) -> _TenantWindow:
        win = self._tenants.get(tenant)
        if win is None:
            win = self._tenants[tenant] = _TenantWindow()
        return win

    # -- recording ---------------------------------------------------------

    def on_submit(self, t: float, tenant: str | None = None) -> None:
        self.submitted += 1
        if tenant is not None:
            self._tenant(tenant).submitted += 1

    def on_shed(self, t: float, tenant: str | None = None) -> None:
        self.shed += 1
        if tenant is not None:
            self._tenant(tenant).shed += 1

    def on_complete(
        self, t: float, flow: float, tenant: str | None = None
    ) -> None:
        """Record a completion finishing at ``t``.

        Completions arrive in finish order and every read happens at
        ``now >= t``, so entries older than ``t - window`` can never be
        read again: dropping them here (from the global deque and the
        completing tenant's) keeps the deques bounded by the window even
        when nothing reads, without changing any read.
        """
        self.completed += 1
        t = float(t)
        cutoff = t - self.window
        _append_pruned(self._flows, t, float(flow), cutoff)
        if tenant is not None:
            win = self._tenant(tenant)
            win.completed += 1
            _append_pruned(win.flows, t, float(flow), cutoff)

    def prune(self, now: float) -> None:
        """Drop completions older than ``now - window``."""
        cutoff = now - self.window
        flows = self._flows
        while flows and flows[0][0] < cutoff:
            flows.popleft()
        for win in self._tenants.values():
            while win.flows and win.flows[0][0] < cutoff:
                win.flows.popleft()

    # -- reading -----------------------------------------------------------

    def windowed(self, now: float) -> dict:
        """Windowed statistics at sim-time ``now`` (prunes as a side effect).

        ``throughput`` is completions per sim-time unit over the window —
        the window is clipped to ``now`` so a young server is not
        penalized for time that has not elapsed yet.
        """
        self.prune(now)
        flows = np.array([f for _, f in self._flows], dtype=float)
        span = min(self.window, now) if now > 0 else self.window
        out = {
            "now": now,
            "window": self.window,
            "count": int(flows.size),
            "throughput": float(flows.size) / span if span > 0 else 0.0,
        }
        if flows.size:
            out.update(
                mean_flow=float(flows.mean()),
                p50_flow=float(np.percentile(flows, 50)),
                p95_flow=float(np.percentile(flows, 95)),
                p99_flow=float(np.percentile(flows, 99)),
                max_flow=float(flows.max()),
            )
        else:
            out.update(
                mean_flow=0.0,
                p50_flow=0.0,
                p95_flow=0.0,
                p99_flow=0.0,
                max_flow=0.0,
            )
        if self._tenants:
            out["tenants"] = {
                name: self._tenant_windowed(name) for name in sorted(self._tenants)
            }
        return out

    def _tenant_windowed(self, tenant: str) -> dict:
        win = self._tenants[tenant]
        flows = np.array([f for _, f in win.flows], dtype=float)
        row = {
            "submitted": win.submitted,
            "completed": win.completed,
            "shed": win.shed,
            "count": int(flows.size),
            "mean_flow": float(flows.mean()) if flows.size else 0.0,
            "p99_flow": float(np.percentile(flows, 99)) if flows.size else 0.0,
        }
        return row

    def to_prometheus(self, now: float, active: int = 0, **gauges: float) -> str:
        """Prometheus text exposition of counters, gauges and the window.

        Extra keyword arguments become ``drep_serve_<name>`` gauges (e.g.
        ``backpressure=0.3``); metric names follow Prometheus conventions
        (``_total`` suffix on counters, base units, snake case).
        """
        w = self.windowed(now)
        lines = [
            "# HELP drep_serve_jobs_submitted_total Jobs accepted into the scheduler.",
            "# TYPE drep_serve_jobs_submitted_total counter",
            f"drep_serve_jobs_submitted_total {self.submitted}",
            "# HELP drep_serve_jobs_completed_total Jobs completed.",
            "# TYPE drep_serve_jobs_completed_total counter",
            f"drep_serve_jobs_completed_total {self.completed}",
            "# HELP drep_serve_jobs_shed_total Jobs rejected by admission control.",
            "# TYPE drep_serve_jobs_shed_total counter",
            f"drep_serve_jobs_shed_total {self.shed}",
            "# HELP drep_serve_active_jobs Jobs queued or running right now.",
            "# TYPE drep_serve_active_jobs gauge",
            f"drep_serve_active_jobs {active}",
            "# HELP drep_serve_clock_seconds Simulation clock.",
            "# TYPE drep_serve_clock_seconds gauge",
            f"drep_serve_clock_seconds {_fmt(now)}",
            "# HELP drep_serve_throughput_jobs Completions per sim-time unit over the window.",
            "# TYPE drep_serve_throughput_jobs gauge",
            f"drep_serve_throughput_jobs {_fmt(w['throughput'])}",
            "# HELP drep_serve_flow_time Windowed flow time of completed jobs.",
            "# TYPE drep_serve_flow_time summary",
            f'drep_serve_flow_time{{quantile="0.5"}} {_fmt(w["p50_flow"])}',
            f'drep_serve_flow_time{{quantile="0.95"}} {_fmt(w["p95_flow"])}',
            f'drep_serve_flow_time{{quantile="0.99"}} {_fmt(w["p99_flow"])}',
            f"drep_serve_flow_time_sum {_fmt(w['mean_flow'] * w['count'])}",
            f"drep_serve_flow_time_count {w['count']}",
            "# HELP drep_serve_flow_time_mean Windowed mean flow time.",
            "# TYPE drep_serve_flow_time_mean gauge",
            f"drep_serve_flow_time_mean {_fmt(w['mean_flow'])}",
        ]
        for name, value in gauges.items():
            lines += [
                f"# HELP drep_serve_{name} Scheduler gauge {name}.",
                f"# TYPE drep_serve_{name} gauge",
                f"drep_serve_{name} {_fmt(float(value))}",
            ]
        if self._tenants:
            lines += [
                "# HELP drep_serve_tenant_jobs_total Per-tenant job outcomes.",
                "# TYPE drep_serve_tenant_jobs_total counter",
            ]
            for name in sorted(self._tenants):
                win = self._tenants[name]
                label = _label_escape(name)
                for outcome, count in (
                    ("submitted", win.submitted),
                    ("completed", win.completed),
                    ("shed", win.shed),
                ):
                    lines.append(
                        f'drep_serve_tenant_jobs_total{{tenant="{label}",'
                        f'outcome="{outcome}"}} {count}'
                    )
            lines += [
                "# HELP drep_serve_tenant_flow_time_mean Per-tenant windowed mean flow time.",
                "# TYPE drep_serve_tenant_flow_time_mean gauge",
            ]
            for name in sorted(self._tenants):
                row = self._tenant_windowed(name)
                lines.append(
                    f'drep_serve_tenant_flow_time_mean'
                    f'{{tenant="{_label_escape(name)}"}} '
                    f"{_fmt(row['mean_flow'])}"
                )
        return "\n".join(lines) + "\n"

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "window": self.window,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "flows": [[t, f] for t, f in self._flows],
            "tenants": {
                name: win.state_dict()
                for name, win in sorted(self._tenants.items())
            },
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "RollingMetrics":
        metrics = cls(window=state["window"])
        metrics.submitted = int(state["submitted"])
        metrics.completed = int(state["completed"])
        metrics.shed = int(state["shed"])
        metrics._flows = deque((float(t), float(f)) for t, f in state["flows"])
        # absent in pre-tenancy snapshots — tolerate for forward recovery
        for name, win in state.get("tenants", {}).items():
            metrics._tenants[name] = _TenantWindow.from_state_dict(win)
        return metrics


def _append_pruned(
    flows: deque[tuple[float, float]], t: float, flow: float, cutoff: float
) -> None:
    while flows and flows[0][0] < cutoff:
        flows.popleft()
    flows.append((t, flow))


def _fmt(x: float) -> str:
    """Prometheus-friendly float formatting (repr keeps full precision)."""
    return repr(float(x))


def _label_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Tenant names are client-supplied, so a quote, backslash or newline
    would otherwise break the exposition line (and with it the scrape).
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
