"""Hot-loop performance counters shared by both simulator engines.

The counters answer the questions the hot-path optimizations raise:
how often was the cached rate vector reused (``rate_hits`` vs
``rate_misses``), how many invariant checks were amortized away
(``checks_run`` vs ``checks_skipped``), how many flowsim segments ran
entirely on the flat SoA buffers without materializing an ActiveView
(``view_reuses``; ``view_builds`` counts the views that were built for
hooks, timers and ``rates(view)``-only policies), how many unit steps the wsim
event-horizon kernel skipped (``horizon_jumps`` / ``horizon_steps_saved``),
how many runs fell off the kernel's dyadic-grid exactness contract and
took the pure per-step path (``exactness_fallbacks``), what the flowsim
event loop processed (``batch_jumps`` loop entries — one per ``drain`` /
``advance_to`` call that had work — processing ``batch_events_folded``
events, which equals ``events`` on every run of a fresh stepper since
every event runs in the loop; ``batch_rate_patches`` decision points refreshed the
rate vector through the policy's sparse ``rates_array_patch`` instead
of a full ``rates_array`` rebuild), what the incremental order/calendar
backing did (``order_ops`` structural mutations of the live priority
order, ``calendar_pops`` heap pops and
``calendar_invalidations`` superseded entries in the completion
calendar — see ``docs/performance.md`` for the per-policy complexity
table they evidence), and what the grid-runner pool dispatched
(``pool_tasks`` cells over ``pool_chunks`` chunks across ``pool_workers``
workers, with ``pool_shm_traces`` traces shipped once as
``pool_shm_bytes`` of shared memory instead of being regenerated per
worker).

They are plain integer attributes on a ``__slots__`` object — an
increment is one attribute add, cheap enough to leave on permanently.
Wall-clock phase timers are *not* free, so they are opt-in: engines time
whole runs (one ``perf_counter`` pair) and only the bench harness times
phases.
"""

from __future__ import annotations

import time

__all__ = ["PerfCounters"]


class PerfCounters:
    """Mutable counter block; ``as_dict`` snapshots it for result extras."""

    __slots__ = (
        "events",
        "rate_hits",
        "rate_misses",
        "checks_run",
        "checks_skipped",
        "view_reuses",
        "view_builds",
        "horizon_jumps",
        "horizon_steps_saved",
        "exactness_fallbacks",
        "batch_jumps",
        "batch_events_folded",
        "batch_rate_patches",
        "order_ops",
        "calendar_pops",
        "calendar_invalidations",
        "pool_tasks",
        "pool_chunks",
        "pool_workers",
        "pool_shm_traces",
        "pool_shm_bytes",
        "peak_rss_mb",
        "py_peak_mb",
        "wall_s",
        "_t0",
    )

    def __init__(self) -> None:
        self.events = 0
        self.rate_hits = 0
        self.rate_misses = 0
        self.checks_run = 0
        self.checks_skipped = 0
        self.view_reuses = 0
        self.view_builds = 0
        self.horizon_jumps = 0
        self.horizon_steps_saved = 0
        self.exactness_fallbacks = 0
        self.batch_jumps = 0
        self.batch_events_folded = 0
        self.batch_rate_patches = 0
        self.order_ops = 0
        self.calendar_pops = 0
        self.calendar_invalidations = 0
        self.pool_tasks = 0
        self.pool_chunks = 0
        self.pool_workers = 0
        self.pool_shm_traces = 0
        self.pool_shm_bytes = 0
        self.peak_rss_mb = 0.0
        self.py_peak_mb = 0.0
        self.wall_s = 0.0
        self._t0: float | None = None

    # -- run timing --------------------------------------------------------

    def start(self) -> None:
        """Mark the start of a timed run (cumulative across start/stop)."""
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        if self._t0 is not None:
            self.wall_s += time.perf_counter() - self._t0
            self._t0 = None

    # -- memory observability ----------------------------------------------

    def capture_memory(self) -> None:
        """Record the process memory high-water marks (max over captures).

        ``peak_rss_mb`` is the OS-level resident-set peak
        (``getrusage.ru_maxrss`` — a *process-lifetime* high-water mark,
        so it reports what the whole process ever touched); ``py_peak_mb``
        is the ``tracemalloc`` traced-allocation peak, which callers can
        reset per run (``tracemalloc.reset_peak``) and is therefore the
        number the flat-memory assertions compare.  Only populated when
        tracing is on; capturing is cheap enough to do at every harvest.
        """
        try:
            import resource

            ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # linux reports KiB, macOS bytes
            rss_mb = ru / 1024.0 if ru < 1 << 40 else ru / (1024.0 * 1024.0)
            if rss_mb > self.peak_rss_mb:
                self.peak_rss_mb = rss_mb
        except Exception:  # pragma: no cover - non-POSIX fallback
            pass
        import tracemalloc

        if tracemalloc.is_tracing():
            peak_mb = tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
            if peak_mb > self.py_peak_mb:
                self.py_peak_mb = peak_mb

    # -- reporting ---------------------------------------------------------

    def events_per_sec(self) -> float | None:
        """Throughput over the timed window; ``None`` before any timing."""
        if self.wall_s <= 0:
            return None
        return self.events / self.wall_s

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (only non-zero fields, keeps extras lean)."""
        out = {}
        for name in self.__slots__:
            if name.startswith("_"):
                continue
            value = getattr(self, name)
            if value:
                out[name] = value
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PerfCounters({inner})"
