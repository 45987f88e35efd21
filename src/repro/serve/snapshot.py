"""Checkpoint/restore of a live scheduler — engine, policy and RNG state.

A serving process must survive being killed: a restored scheduler picks
up with the same clock, the same in-flight jobs at the same remaining
work, the same admission/metrics state, and — crucially — the *same
policy randomness*, so the post-restore trajectory is identical to one
that was never interrupted.

Snapshots are a single JSON document (version-tagged), portable across
processes.  Engine-level state comes from
:meth:`repro.flowsim.FlowStepper.state_dict`: one row per job, split into
completed (``done``) and ``live`` rows, each tagged with its tenant.  The
request journal cuts with ``settled=k`` and keeps the first ``k``
completed rows in its own append-only log instead; the standalone
``snapshot`` op and ``--restore`` file use ``settled=0``, so every row is
inline.  Version-1 snapshots (the whole job table as parallel lists)
are upgraded on restore.  Policy state is captured
generically by encoding the policy's ``__dict__`` with a small tagged
codec that understands the types scheduler policies actually hold:
numpy arrays, numpy random generators (via ``bit_generator.state``),
sets, tuples and int-keyed dicts.  Restore instantiates the policy
class fresh (zero-argument) and replays the captured attributes, so any
policy in :mod:`repro.flowsim.policies` round-trips without bespoke
serialization code.

Jobs carrying explicit DAG objects are not snapshottable (the engine
refuses); the serving layer only creates scalar work/span jobs.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np

from repro.flowsim.engine import FlowStepper
from repro.flowsim.policies.base import Policy
from repro.serve.admission import AdmissionController
from repro.serve.metrics import RollingMetrics
from repro.serve.online import OnlineScheduler
from repro.serve.tenancy import MultiTenantAdmission

__all__ = [
    "SNAPSHOT_VERSION",
    "snapshot_scheduler",
    "snapshot_scheduler_file",
    "restore_scheduler",
    "restore_scheduler_file",
    "SnapshotError",
]

SNAPSHOT_VERSION = 2


class SnapshotError(RuntimeError):
    """Raised when a snapshot cannot be produced or restored."""


# -- tagged value codec ----------------------------------------------------


def _encode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.random.Generator):
        return {"__rng__": value.bit_generator.state}
    if isinstance(value, set):
        return {"__set__": [_encode(v) for v in sorted(value)]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {"__map__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    raise SnapshotError(
        f"cannot snapshot policy attribute of type {type(value).__name__}"
    )


def _decode(value):
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        if "__rng__" in value:
            state = value["__rng__"]
            bitgen_cls = getattr(np.random, state["bit_generator"])
            gen = np.random.Generator(bitgen_cls())
            gen.bit_generator.state = state
            return gen
        if "__set__" in value:
            return {_decode(v) for v in value["__set__"]}
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        if "__map__" in value:
            return {_decode(k): _decode(v) for k, v in value["__map__"]}
        raise SnapshotError(f"unrecognized tagged value: {sorted(value)}")
    return value


def _encode_policy(policy: Policy) -> dict:
    cls = type(policy)
    return {
        "class": f"{cls.__module__}:{cls.__qualname__}",
        "attrs": {k: _encode(v) for k, v in vars(policy).items()},
    }


def _decode_policy(data: dict) -> Policy:
    module_name, _, qualname = data["class"].partition(":")
    if not module_name.startswith("repro."):
        raise SnapshotError(
            f"refusing to import policy from outside repro.*: {module_name}"
        )
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not (isinstance(obj, type) and issubclass(obj, Policy)):
        raise SnapshotError(f"{data['class']} is not a Policy")
    policy = obj()
    for key, value in data["attrs"].items():
        setattr(policy, key, _decode(value))
    return policy


# -- public API ------------------------------------------------------------


def snapshot_scheduler(sched: OnlineScheduler, settled: int = 0) -> dict:
    """Serializable state of a live :class:`OnlineScheduler`.

    The engine's job rows (see :meth:`FlowStepper.state_dict`) each carry
    the job's tenant label.  ``settled`` leaves the rows of the first
    ``settled`` completions out — the request journal keeps those in its
    append-only completion log — so a cut costs O(live + newly
    completed).  The default ``settled=0`` is a self-contained snapshot.
    """
    engine = sched.stepper.state_dict(settled)
    for row in (*engine["done"], *engine["live"]):
        row["tenant"] = sched.tenant_of(row["job_id"])
    return {
        "version": SNAPSHOT_VERSION,
        "engine": engine,
        "policy": _encode_policy(sched.policy),
        "admission": (
            None if sched.admission is None else sched.admission.state_dict()
        ),
        "metrics": (
            None if sched.metrics is None else sched.metrics.state_dict()
        ),
        "offered": sched.n_offered,
        "shed": sched.n_shed,
        "autoscale": sched.autoscale_state_dict(),
    }


def restore_scheduler(state: dict, settled_rows=()) -> OnlineScheduler:
    """Rebuild a scheduler that continues exactly where the snapshot stopped.

    ``settled_rows`` are the completed-job rows a ``settled > 0``
    snapshot left out, in completion order.
    """
    version = state.get("version")
    if version == 1:
        state = _upgrade_v1(state)
    elif version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    policy = _decode_policy(state["policy"])
    engine = state["engine"]
    stepper = FlowStepper.from_state_dict(engine, policy, settled_rows)
    tenant_of: list[str | None] = [None] * stepper.n_jobs
    for rows in (settled_rows, engine["done"], engine["live"]):
        for row in rows:
            tenant_of[row["job_id"]] = row["tenant"]
    admission_state = state["admission"]
    if admission_state is None:
        admission = None
    elif admission_state.get("kind") == "multi_tenant":
        admission = MultiTenantAdmission.from_state_dict(admission_state)
    else:
        admission = AdmissionController.from_state_dict(admission_state)
    metrics = (
        None
        if state["metrics"] is None
        else RollingMetrics.from_state_dict(state["metrics"])
    )
    return OnlineScheduler._from_stepper(
        stepper,
        tenant_of,
        admission=admission,
        metrics=metrics,
        offered=state["offered"],
        shed=state["shed"],
        # absent in pre-autoscale snapshots — tolerate for forward recovery
        autoscale_state=state.get("autoscale"),
    )


def _upgrade_v1(state: dict) -> dict:
    """A version-1 snapshot rewritten as version 2 (the input is untouched).

    Version 1 kept the whole job table as parallel ``jobs`` / ``rem`` /
    ``flow`` lists plus a ``completions`` log, and the tenant labels as
    one top-level list (absent before tenancy).
    """
    engine = state["engine"]
    jobs, rem, flow = engine["jobs"], engine["rem"], engine["flow"]
    tenants = state.get("tenant_of") or [None] * len(jobs)

    def row(j: int) -> dict:
        return {**jobs[j], "rem": rem[j], "tenant": tenants[j]}

    done = [
        {**row(j), "finish": t, "flow": flow[j]} for j, t in engine["completions"]
    ]
    live = [row(j) for j in range(len(jobs)) if flow[j] is None]
    retired = ("jobs", "rem", "flow", "completions")
    return {
        **state,
        "version": SNAPSHOT_VERSION,
        "engine": {
            **{k: v for k, v in engine.items() if k not in retired},
            "n_jobs": len(jobs),
            "done": done,
            "live": live,
        },
    }


def snapshot_scheduler_file(sched: OnlineScheduler, path: str | Path) -> Path:
    """Write a snapshot atomically (tmp file + rename) and return the path."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(snapshot_scheduler(sched)))
    tmp.replace(path)
    return path


def restore_scheduler_file(path: str | Path) -> OnlineScheduler:
    return restore_scheduler(json.loads(Path(path).read_text()))
