"""Write-ahead JSONL checkpoint for the admission service.

Every state mutation the service performs — admission, completion,
deadline-guard cut, shed, re-plan, heartbeat miss — appends one CRC'd
JSONL record to a :class:`~repro.durable.CheckpointLog` (re-exported
here).  Appends reach the operating system at once; the service fsyncs
(``commit``) before an ``ADMIT`` ticket leaves it and at lifecycle
points, so a process crash loses nothing and a power loss loses nothing
that was promised (``docs/deployment.md`` § "Durability contract").
Because the planner and twin are deterministic functions of this op
sequence, *replaying* the log through the very same mutation code
rebuilds a twin whose :meth:`~repro.service.twin.DigitalTwin.state_hash`
is identical to the live service's at the moment of the crash — the
restart test's acceptance criterion.

The first record is a header carrying the server parameters and twin
thresholds, so a restart needs nothing but the log file.
"""

from __future__ import annotations

from ..durable import CheckpointLog
from .planner import IncrementalPlanner
from .requests import EventRequest
from .twin import DigitalTwin, TwinConfig

__all__ = ["CheckpointError", "CheckpointLog", "replay_ops"]


class CheckpointError(Exception):
    """The log is unusable: missing header or inconsistent replay."""


def replay_ops(ops: list[dict]) -> tuple[IncrementalPlanner, DigitalTwin,
                                          dict]:
    """Rebuild (planner, twin) by replaying ``ops`` through the live
    mutation code paths.

    Returns the rebuilt pair plus the header dict.  Raises
    :class:`CheckpointError` when the log has no header or an admit
    replays inconsistently (the log and the arithmetic disagree — a
    corrupted file, not a crash artifact).
    """
    if not ops or ops[0].get("op") != "init":
        raise CheckpointError("checkpoint has no init header")
    header = ops[0]
    planner = IncrementalPlanner(
        capacity=header["capacity"],
        period=header["period"],
        start=header["start"],
    )
    twin = DigitalTwin(config=TwinConfig(**header["twin"]), planner=planner)
    for op in ops[1:]:
        kind = op.get("op")
        t = op.get("t", 0.0)
        if kind == "admit":
            request = EventRequest.from_dict(op["request"])
            job, _finish = planner.admit(t, request)
            if job is None:
                raise CheckpointError(
                    f"admit of {request.request_id!r} at t={t:g} replayed "
                    "as a rejection — log/state mismatch"
                )
            twin.observe_admit(t, job)
        elif kind == "complete":
            twin.reconcile(t, op["id"], op["actual_finish"], op["served"])
            if op["id"] in planner.jobs:
                planner.retire(op["id"])
        elif kind == "cut":
            twin.reconcile(
                t, op["id"], op["actual_finish"], op["served"], cut=True
            )
            if op["id"] in planner.jobs:
                planner.retire(op["id"])
            twin.observe_shed(t, op["id"])
        elif kind == "shed":
            if op["id"] in planner.jobs:
                planner.retire(op["id"])
            twin.observe_shed(t, op["id"])
        elif kind == "replan":
            planner.inflation = op["inflation"]
            planner.scale = op["scale"]
            result = planner.repair(t, level=op["level"])
            for rid in result.shed:
                twin.observe_shed(t, rid)
            twin.observe_replan(op["level"])
            if op["level"] == "renegotiate":
                twin.negotiated_drift = op["inflation"]
        elif kind == "heartbeat_miss":
            twin.note_heartbeat_miss(t)
        elif kind in ("init", "drain"):
            continue
        else:
            # forward compatibility: unknown ops are skipped, like
            # unknown trace kinds in trace_io
            continue
    return planner, twin, header
