"""Run ``drep-sim serve`` with spans around its layers; dump them at exit.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py DUMP.json (--plain|--traced) serve ARGS...

The launcher imports the unmodified server and, with ``--traced``,
rebinds the names ``repro.serve.server`` builds its collaborators from
to factories that wrap each built *instance*: the ``OnlineScheduler``
(submit, advance, query, stats, drain), its admission controller
(decide) and the ``RequestJournal`` (append, snapshot), plus the module
function ``repro.serve.snapshot.snapshot_scheduler``.  The policy is not
wrapped: the snapshot encodes the policy's instance attributes, so a
wrapper there would change what the journal writes.  With ``--plain``
nothing is wrapped and only the engine counters are dumped, which makes
it the untraced twin of a traced run.  When the server shuts down, the
launcher writes span totals, snapshot sizes and the engine's counters to
``DUMP.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    dump_path, mode, *serve_argv = argv
    if mode not in ("--plain", "--traced"):
        raise SystemExit("mode must be --plain or --traced")
    from repro import cli
    from repro.serve import server, snapshot
    from repro.serve.admission import AdmissionDecision

    from tracing import Tracer, instrument, patched

    tracer = Tracer()
    schedulers = []
    snapshot_bytes: list[int] = []
    online_cls = server.OnlineScheduler
    journal_cls = server.RequestJournal

    def online_scheduler(*args, **kwargs):
        sched = online_cls(*args, **kwargs)
        schedulers.append(sched)
        if mode == "--plain":
            return sched
        for attr, name in (
            ("submit", "online.submit"),
            ("advance_to", "online.advance"),
            ("query", "online.query"),
            ("stats", "online.stats"),
            ("drain", "online.drain"),
        ):
            instrument(tracer, sched, (attr,), name)
        admission = sched.admission
        if admission is not None:
            decide = admission.decide

            def counted(*a, **k):
                decision = decide(*a, **k)
                if decision is not AdmissionDecision.ACCEPT:
                    tracer.count("admission.shed")
                return decision

            admission.decide = tracer.wrap("admission.decide", counted)
        return sched

    def request_journal(*args, **kwargs):
        journal = journal_cls(*args, **kwargs)
        if mode == "--plain":
            return journal
        instrument(tracer, journal, ("append",), "journal.append")
        mark = journal.mark_snapshot

        def sized(*a, **k):
            path = mark(*a, **k)
            snapshot_bytes.append(os.path.getsize(path))
            return path

        journal.mark_snapshot = tracer.wrap("journal.snapshot", sized)
        return journal

    encode = snapshot.snapshot_scheduler
    if mode == "--traced":
        encode = tracer.wrap("snapshot.encode", encode)
    with patched(server, "OnlineScheduler", online_scheduler), patched(
        server, "RequestJournal", request_journal
    ), patched(snapshot, "snapshot_scheduler", encode):
        code = cli.main(serve_argv)
    stepper = schedulers[-1].stepper
    perf = stepper.perf.as_dict()
    perf["events"] = stepper.events
    perf.pop("wall_s", None)
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": tracer.summary(),
                "counts": dict(tracer.counts),
                "snapshot_bytes": snapshot_bytes,
                "perf": perf,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
