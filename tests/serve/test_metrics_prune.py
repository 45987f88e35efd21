"""Property: pruning the window on record never changes what a read sees.

:meth:`RollingMetrics.on_complete` drops completions older than
``t - window`` as it records, so the deques stay bounded when nothing
reads.  Completions arrive in finish order and reads happen at
``now >= t``, so any interleaving of records and reads must render
``windowed()`` and ``to_prometheus()`` exactly as a recorder that only
prunes on read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.metrics import RollingMetrics

TENANTS = st.sampled_from([None, "a", "b", 'c"\\q'])


class LazyMetrics(RollingMetrics):
    """Reference recorder: append only, prune on read."""

    def on_complete(self, t, flow, tenant=None):
        self.completed += 1
        self._flows.append((float(t), float(flow)))
        if tenant is not None:
            win = self._tenant(tenant)
            win.completed += 1
            win.flows.append((float(t), float(flow)))


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("complete"),
            st.floats(0.0, 10.0),  # finish-time step
            st.floats(0.0, 100.0),  # flow
            TENANTS,
        ),
        st.tuples(st.just("read"), st.floats(0.0, 10.0), st.integers(0, 9)),
        st.tuples(st.just("submit"), TENANTS),
        st.tuples(st.just("shed"), TENANTS),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(window=st.floats(0.5, 30.0), script=ops)
def test_eager_prune_reads_like_lazy_prune(window, script):
    eager, lazy = RollingMetrics(window=window), LazyMetrics(window=window)
    t = 0.0
    for op in script:
        kind = op[0]
        if kind == "complete":
            t += op[1]
            for m in (eager, lazy):
                m.on_complete(t, op[2], tenant=op[3])
            # nothing older than the window survives a record
            assert all(f >= t - window for f, _ in eager._flows)
            for name, win in eager._tenants.items():
                assert len(win.flows) <= len(lazy._tenants[name].flows)
        elif kind == "read":
            now = t + op[1]
            assert eager.windowed(now) == lazy.windowed(now)
            assert eager.to_prometheus(now, active=op[2]) == lazy.to_prometheus(
                now, active=op[2]
            )
        else:
            for m in (eager, lazy):
                getattr(m, f"on_{kind}")(t, tenant=op[1])
    assert eager.windowed(t) == lazy.windowed(t)
    assert eager.to_prometheus(t) == lazy.to_prometheus(t)


def test_unread_window_stays_bounded():
    m = RollingMetrics(window=10.0)
    for i in range(10_000):
        m.on_complete(float(i), 1.0, tenant="a")
    # one completion per time unit: the window holds about 10 of them
    assert len(m._flows) <= 11
    assert len(m._tenants["a"].flows) <= 11
    assert len(m.state_dict()["flows"]) <= 11
    assert m.completed == 10_000
