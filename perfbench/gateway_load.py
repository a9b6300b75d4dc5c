"""The deployment-path workload: ``gateway_ingest``.

One asyncio process opens ``CONNECTIONS`` Unix-socket connections to an
``AdmissionGateway`` fronting one ``AdmissionService`` and runs closed
loop, one outstanding submit per connection (the protocol is serial per
connection).  Requests are the first requests of
``soak_requests(GatewaySoakConfig(seed=...))``; the service runs
``default_gateway_service_config()``, so every fate is a function of
the journaled stamps and the ``VirtualClock`` control replay of the
run's own journal must reproduce it.  Journal and checkpoint live on
disk under the checkout's ``.perfbench/`` directory.  Every
``SEGMENT_S`` both clients pause, with no request in flight, while the
host calibration slices run.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from host import HostSpeed
from tracing import Span, Tracer, now, peak_rss_mb

SOCKET_KIND = "unix"
CONNECTIONS = 2
#: requests generated per second of run time, about twice the measured
#: throughput; a gateway fast enough to use them all ends its window early
POOL_PER_SECOND = 1500
#: the traced phase sends a fixed prefix, so its counts repeat exactly
TRACED_REQUESTS = 2000
#: peak RSS is read when this many requests are answered: the traces
#: grow with every request, so a later reading would grow with throughput
RSS_AT_REQUESTS = 3000
#: closed-loop stretch between two calibration pauses
SEGMENT_S = 2.0


def setup_requests(seed: int, count: int) -> list:
    from repro.gateway import GatewaySoakConfig, soak_requests

    config = GatewaySoakConfig(seed=seed, requests=count)
    return [request for _nominal, request in soak_requests(config)]


@dataclass
class GatewayRun:
    seed: int
    workdir: Path
    latencies: list[float] = field(default_factory=list)
    window_s: float = 0.0
    sent: list = field(default_factory=list)
    tickets: dict = field(default_factory=dict)
    busy_rejections: int = 0
    peak_rss_mb: float = 0.0
    journal_ops: list = field(default_factory=list)
    terminals: dict = field(default_factory=dict)


async def start_gateway(seed: int, workdir: Path):
    """Gateway start, journal open and the client connections."""
    from repro.gateway import (
        AdmissionGateway,
        GatewayConfig,
        default_gateway_service_config,
    )

    workdir.mkdir(parents=True)
    socket_path = workdir / "gw.sock"
    relative = os.path.relpath(socket_path)
    gateway = await AdmissionGateway(
        GatewayConfig(unix_path=min(relative, str(socket_path), key=len)),
        default_gateway_service_config(),
        seed=seed,
        journal_path=workdir / "journal.jsonl",
        checkpoint_path=workdir / "checkpoint.jsonl",
    ).start()
    connections = [await asyncio.open_unix_connection(gateway.address)
                   for _ in range(CONNECTIONS)]
    return gateway, connections


async def time_start(seed: int, workdir: Path, since: float) -> float:
    """Seconds from ``since`` until a gateway is up and connected; the
    gateway is then torn down."""
    try:
        gateway, connections = await start_gateway(seed, workdir)
        elapsed = now() - since
        for _reader, writer in connections:
            writer.close()
        gateway.kill()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


async def _drive(run: GatewayRun, requests: list, seconds: float,
                 tracer: Tracer | None, speed: HostSpeed | None) -> None:
    from repro.gateway import protocol

    gateway, connections = await start_gateway(run.seed, run.workdir)
    cursor = iter(requests)

    async def client(reader, writer, deadline: float) -> None:
        while now() < deadline:
            request = next(cursor, None)
            if request is None:
                return
            run.sent.append(request)
            start = now()
            if tracer is not None:
                with tracer.span("gateway.request", tid=request.request_id,
                                 root=True):
                    ticket = await roundtrip(reader, writer, request)
            else:
                ticket = await roundtrip(reader, writer, request)
            run.latencies.append(now() - start)
            run.tickets[request.request_id] = ticket
            if len(run.latencies) == RSS_AT_REQUESTS:
                run.peak_rss_mb = peak_rss_mb()

    async def roundtrip(reader, writer, request):
        writer.write(protocol.encode_frame(protocol.submit_payload(request)))
        await writer.drain()
        return protocol.parse_ticket(await protocol.read_frame(reader))

    end = now() + seconds
    try:
        # with ``speed``, both clients pause between segments so the
        # calibration slices run while no request is in flight
        while True:
            began = now()
            deadline = min(end, began + SEGMENT_S) if speed else end
            await asyncio.gather(*(client(r, w, deadline)
                                   for r, w in connections))
            run.window_s += now() - began
            if now() >= end or len(run.sent) == len(requests):
                break
            speed.sample(SEGMENT_S)
        run.peak_rss_mb = run.peak_rss_mb or peak_rss_mb()
    finally:
        for _reader, writer in connections:
            writer.close()
        gateway.request_shutdown()
        await gateway.terminated.wait()
    run.busy_rejections = gateway.busy_rejections
    run.terminals = _terminals(gateway.merged_trace())


def _terminals(merged) -> dict:
    """request id -> first terminal trace kind on the wall-clock run."""
    from repro.sim.trace import TraceEventKind

    terminals: dict[str, str] = {}
    for event in merged.events:
        if event.kind in (TraceEventKind.COMPLETION, TraceEventKind.SHED):
            terminals.setdefault(event.subject, event.kind.value)
    return terminals


def measure(seed: int, requests: list, seconds: float, workdir: Path,
            tracer: Tracer | None = None,
            speed: HostSpeed | None = None) -> GatewayRun:
    from repro.gateway import load_journal

    run = GatewayRun(seed=seed, workdir=workdir)
    try:
        asyncio.run(_drive(run, requests, seconds, tracer, speed))
        run.journal_ops = load_journal(workdir / "journal.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def check(run: GatewayRun) -> tuple[int, list[str]]:
    """(requests failed, problems): every request got its own ticket,
    the journal agrees with the tickets, and every fate matches the
    ``VirtualClock`` control replay of the run's journal."""
    from repro.gateway import default_gateway_service_config, run_control_replay

    decided: dict[str, str] = {}
    for op in run.journal_ops:
        if op.get("op") == "decided":
            decided.setdefault(op["id"], op["ticket"]["decision"])
    control = run_control_replay(
        run.journal_ops, default_gateway_service_config(), run.seed
    )
    bad: set[str] = set()
    for request in run.sent:
        rid = request.request_id
        ticket = run.tickets.get(rid)
        if ticket is None or ticket.request_id != rid:
            bad.add(rid)
            continue
        wall = (decided.get(rid), run.terminals.get(rid))
        if ticket.decision.value != wall[0] or control.get(rid) != wall:
            bad.add(rid)
    problems = []
    if bad:
        problems.append(f"{len(bad)} request(s) without a matching ticket "
                        f"or fate, e.g. {sorted(bad)[:3]}")
    return len(bad), problems


# -- the traced run ---------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the deployment path's layer boundaries (traced run only)."""
    from repro.gateway import gateway as gateway_module
    from repro.gateway import protocol
    from repro.service import AdmissionService, CheckpointLog

    raw_end: contextvars.ContextVar[float] = contextvars.ContextVar(
        "perfbench_raw_end", default=0.0
    )
    unclaimed: list[Span] = []

    read_raw_frame = protocol.read_raw_frame

    async def timed_raw_frame(*args, **kwargs):
        raw = await read_raw_frame(*args, **kwargs)
        raw_end.set(now())
        return raw

    def decoding(read_frame):
        # only the decode after the bytes arrived: the wait for the peer
        # is the other side's time, not the protocol's
        async def wrapper(*args, **kwargs):
            payload = await read_frame(*args, **kwargs)
            if payload is not None:
                body = payload.get("request") or payload.get("ticket") or {}
                span = tracer.start("protocol.decode",
                                    tid=body.get("request_id"))
                span.start = raw_end.get()
                tracer.finish(span)
            return payload
        return wrapper

    def frame_kind(span, args, result):
        span.attrs.update(kind=args[0].get("kind"), bytes=len(result))

    def ticket_id(args, kwargs):
        return args[1].get("ticket", {}).get("request_id")

    tracer.patch(protocol, "read_raw_frame", timed_raw_frame)
    tracer.patch(protocol, "read_frame", decoding(protocol.read_frame))
    tracer.patch(gateway_module, "read_frame",
                 decoding(gateway_module.read_frame))
    tracer.wrap(protocol, "encode_frame", "protocol.encode_frame",
                on_result=frame_kind)
    tracer.wrap(protocol, "parse_ticket", "protocol.parse_ticket")
    tracer.wrap(gateway_module, "parse_request", "protocol.parse_request",
                tid_of=lambda a, k: a[0]["request"]["request_id"])
    tracer.wrap(gateway_module, "write_frame", "protocol.write_frame",
                tid_of=ticket_id)
    tracer.wrap(AdmissionService, "submit", "service.submit",
                tid_of=lambda a, k: a[1].request_id)
    tracer.wrap(os, "fsync", "os.fsync")

    pending_due = AdmissionService.pending_due

    def settle_poll(self, t):
        span = tracer.start("gateway.settle_poll")
        try:
            return pending_due(self, t)
        finally:
            tracer.finish(span)
            unclaimed.append(span)

    tracer.patch(AdmissionService, "pending_due", settle_poll)

    append = CheckpointLog.append

    def logged(self, op):
        rid = op.get("id") or op.get("request", {}).get("request_id")
        if op.get("op") == "ingest":
            # the dispatcher polled the settle discipline for this
            # request before it knew which request it was stamping
            for span in unclaimed:
                tracer.claim(span, rid)
            unclaimed.clear()
        name = ("gateway.journal" if self.path.name == "journal.jsonl"
                else "service.checkpoint")
        with tracer.span(name, tid=rid) as span:
            span.attrs["op"] = op.get("op")
            return append(self, op)

    tracer.patch(CheckpointLog, "append", logged)


def layer_metrics(tracer: Tracer, run: GatewayRun) -> dict[str, float]:
    """Per-request layer figures from the traced requests' spans."""
    n = len(run.sent)
    ids = {request.request_id for request in run.sent}
    self_time = tracer.self_times()
    spans = tracer.spans

    def named(name: str, *, requests_only: bool = False) -> list[Span]:
        return [s for s in spans if s.name == name
                and (not requests_only or s.tid in ids)]

    def total(items: list[Span], *, own: bool = False) -> float:
        return sum(self_time[s.sid] if own else s.duration for s in items)

    protocol = [s for s in spans if s.name.startswith("protocol.")]
    encoded = named("protocol.encode_frame")
    fsyncs = named("os.fsync")
    roots = named("gateway.request")
    return {
        "gateway.protocol_s": total(protocol, own=True) / n,
        "gateway.request_frame_bytes": sum(
            s.attrs["bytes"] for s in encoded if s.attrs["kind"] == "submit"
        ) / n,
        "gateway.ticket_frame_bytes": sum(
            s.attrs["bytes"] for s in encoded if s.attrs["kind"] == "ticket"
        ) / n,
        "gateway.journal_s": total(named("gateway.journal")) / n,
        "gateway.journal_appends_per_request": len(
            named("gateway.journal", requests_only=True)) / n,
        "service.submit_s": total(named("service.submit"), own=True) / n,
        "service.checkpoint_s": total(named("service.checkpoint")) / n,
        "service.checkpoint_appends_per_request": len(
            named("service.checkpoint", requests_only=True)) / n,
        "gateway.fsyncs_per_request": len(
            named("os.fsync", requests_only=True)) / n,
        "gateway.fsync_ms_p50": statistics.median(
            s.duration for s in fsyncs) * 1e3,
        "gateway.wait_ms": total(roots, own=True) / len(roots) * 1e3,
        "gateway.settle_polls_per_request": len(
            named("gateway.settle_poll", requests_only=True)) / n,
        "gateway.busy_rejections": run.busy_rejections,
    }
