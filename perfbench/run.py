"""The repository's benchmark: the paper pipeline and the gateway.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_tables --seed 1983 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced half and a traced half and prints the per-layer metrics, and
writes every span to ``.perfbench/spans-<workload>-<seed>.jsonl``.
The last line of standard output is the JSON result; the line before
it records the environment the figures depend on.  The exit code is
non-zero when a correctness check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from host import HostSpeed
from tracing import Tracer, covered, now

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench"
PAPER = ("paper_tables", "paper_long")
GATEWAY = ("gateway_ingest",)
#: set-up is timed this many times, each in a fresh interpreter
SETUP_PROBES = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=PAPER + GATEWAY)
    parser.add_argument("--seed", type=int, default=None,
                        help="generator master seed (paper_*, default "
                             "1983) or soak_requests seed (gateway, "
                             "default 0)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = 1983 if args.workload in PAPER else 0
    return args


def setup(args: argparse.Namespace):
    """Imports and input generation; returns the workload's inputs."""
    if args.workload in PAPER:
        import paper

        return paper.setup(args.workload, args.seed)
    import gateway_load

    return gateway_load.setup_requests(
        args.seed, round(gateway_load.POOL_PER_SECOND * args.seconds)
    )


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds of one set-up in this fresh interpreter, at the reference
    host speed; for the gateway it ends once the gateway is up and both
    connections are open."""
    start = now()
    setup(args)
    if args.workload in PAPER:
        elapsed = now() - start
    else:
        import gateway_load

        elapsed = asyncio.run(gateway_load.time_start(
            args.seed, SCRATCH / f"probe-{os.getpid()}", since=start
        ))
    speed = HostSpeed()
    speed.sample(elapsed)
    return speed.normalize(elapsed)


def median_setup_s(args: argparse.Namespace) -> float:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment() -> dict:
    import gateway_load

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "journal_fs": _filesystem(SCRATCH),
        "socket": gateway_load.SOCKET_KIND,
    }


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- one run per workload family ----------------------------------------------


def run_paper(args, sets) -> tuple[dict, int, int, list[str]]:
    import paper

    half = args.seconds / 2 if args.trace else args.seconds
    speed = HostSpeed()
    times, output, drifted, rss = paper.measure(sets, half, speed=speed)
    campaigns = len(times)
    if not args.trace:
        metrics = _timings(times, speed, rss)
    else:
        tracer = Tracer()
        paper.instrument(tracer)
        began = now()
        try:
            traced, _output, traced_drift, _rss = paper.measure(
                sets, half, tracer, first=output)
        finally:
            tracer.restore()
        wall = now() - began
        metrics = paper.layer_metrics(tracer, len(traced))
        metrics.update(_trace_figures(tracer, wall, times, traced))
        _write_spans(args, tracer)
        campaigns += len(traced)
        drifted += traced_drift
    failed, problems = paper.check(args.workload, args.seed, sets, output,
                                   campaigns, drifted)
    return metrics, campaigns, failed, problems


def run_gateway(args, requests) -> tuple[dict, int, int, list[str]]:
    import gateway_load

    half = args.seconds / 2 if args.trace else args.seconds
    speed = HostSpeed()
    speed.sample(0.0)
    run = gateway_load.measure(args.seed, requests, half,
                               SCRATCH / f"gw-{os.getpid()}-0", speed=speed)
    failed, problems = gateway_load.check(run)
    if not args.trace:
        metrics = _timings(run.latencies, speed, run.peak_rss_mb)
        return metrics, len(run.sent), failed, problems

    tracer = Tracer()
    gateway_load.instrument(tracer)
    began = now()
    try:
        traced = gateway_load.measure(
            args.seed, requests[:gateway_load.TRACED_REQUESTS],
            float("inf"), SCRATCH / f"gw-{os.getpid()}-1", tracer,
        )
    finally:
        tracer.restore()
    wall = now() - began
    layers = gateway_load.layer_metrics(tracer, traced)
    layers.update(_trace_figures(tracer, wall, run.latencies,
                                 traced.latencies))
    layers["gateway.request_ms_p99"] = _tail_ms(run.latencies)
    layers["gateway.requests_per_s"] = len(run.latencies) / run.window_s
    _write_spans(args, tracer)
    traced_failed, traced_problems = gateway_load.check(traced)
    return (layers, len(run.sent) + len(traced.sent),
            failed + traced_failed, problems + traced_problems)


def _timings(times: list[float], speed: HostSpeed, rss: float) -> dict:
    """End-to-end metrics, timings at the reference host speed."""
    raw = statistics.median(times)
    print(f"# raw op_ms_p50 {raw * 1e3:.4f} over {len(times)} operations, "
          f"host slice median {statistics.median(speed.slices) * 1e3:.3f} "
          f"ms over {len(speed.slices)} slices")
    return {
        "op_ms_p50": metric(speed.normalize(raw) * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def _tail_ms(latencies: list[float]) -> float:
    """p99, or the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    beyond = max(10, round(len(ordered) * 0.01))
    return ordered[max(0, len(ordered) - 1 - beyond)] * 1e3


def _trace_figures(tracer: Tracer, wall: float, untraced: list[float],
                   traced: list[float]) -> dict:
    roots = [(s.start, s.end) for s in tracer.spans
             if s.name in ("paper.campaign", "gateway.request")]
    return {
        "trace.overhead_ms": (statistics.median(traced)
                              - statistics.median(untraced)) * 1e3,
        "trace.coverage": covered(roots) / wall,
    }


def _write_spans(args, tracer: Tracer) -> None:
    path = SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                              **environment()})


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    SCRATCH.mkdir(exist_ok=True)
    if args.setup_probe:
        print(setup_probe(args))
        return 0

    setup_s = None if args.trace else median_setup_s(args)
    inputs = setup(args)
    runner = run_paper if args.workload in PAPER else run_gateway
    metrics, attempted, failed, problems = runner(args, inputs)
    if setup_s is not None:
        metrics["setup_s"] = metric(setup_s, "s")
    else:
        metrics = {name: metric(value, LAYER_UNITS[name])
                   for name, value in _all_layers(metrics).items()}
    for problem in problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print("# env " + json.dumps(environment()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _all_layers(measured: dict) -> dict:
    """Every per-layer metric; layers a workload never enters read 0."""
    return {name: float(measured.get(name, 0.0)) for name in LAYER_UNITS}


#: the per-layer metrics of the traced run, as listed in BENCHMARK.json
LAYER_UNITS = {
    "workload.generate_s": "s/op",
    "workload.events": "count/op",
    "sim.busy_s": "s/op",
    "sim.trace_events": "count/op",
    "sim.ns_per_event": "ns",
    "exec.busy_s": "s/op",
    "exec.trace_events": "count/op",
    "exec.ns_per_event": "ns",
    "core.queue_s": "s/op",
    "core.queue_calls": "count/op",
    "core.items_scanned": "count/op",
    "core.backlog_max": "count",
    "core.backlog_mean": "count",
    "metrics.busy_s": "s/op",
    "campaign.self_s": "s/op",
    "gateway.protocol_s": "s/op",
    "gateway.request_frame_bytes": "bytes/op",
    "gateway.ticket_frame_bytes": "bytes/op",
    "gateway.journal_s": "s/op",
    "gateway.journal_appends_per_request": "count/op",
    "service.submit_s": "s/op",
    "service.checkpoint_s": "s/op",
    "service.checkpoint_appends_per_request": "count/op",
    "gateway.fsyncs_per_request": "count/op",
    "gateway.fsync_ms_p50": "ms",
    "gateway.wait_ms": "ms/op",
    "gateway.settle_polls_per_request": "count/op",
    "gateway.busy_rejections": "count",
    "gateway.request_ms_p99": "ms",
    "gateway.requests_per_s": "1/s",
    "trace.overhead_ms": "ms",
    "trace.coverage": "ratio",
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
