"""The paper-pipeline workloads: ``paper_tables`` and ``paper_long``.

One operation is what a reader regenerating Tables 2-5 runs:
``run_campaign()`` over the six paper sets (4 arms x 60 systems,
``workers=1``), then ``format_table`` for each table and
``shape_checks``.  ``paper_long`` is the same campaign at 20x the
paper's horizon (the runner's ``--horizon-multiplier 20``).

Run as a script to re-record the reference tables::

    python3 perfbench/paper.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import random
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from host import HostSpeed
from tracing import Tracer, now, peak_rss_mb

HORIZON_PERIODS = {"paper_tables": 10, "paper_long": 200}
#: systems per set re-run with the verification monitors attached
VERIFY_SYSTEMS = {"paper_tables": 10, "paper_long": 2}
ARMS = ("ps_sim", "ps_exec", "ds_sim", "ds_exec")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: the paper's master seed and one held-out seed, recorded in full
REFERENCE_SEEDS = (1983, 2007)
#: seeds whose outputs are recorded as a digest, so a run on any of them
#: checks the execution arms against this commit too
DIGEST_SEEDS = {"paper_tables": range(200), "paper_long": range(40)}


def paper_sets(workload: str, seed: int) -> tuple:
    from repro.workload import PAPER_SETS

    return tuple(
        replace(p, seed=seed, horizon_periods=HORIZON_PERIODS[workload])
        for p in PAPER_SETS
    )


def setup(workload: str, seed: int) -> tuple:
    """Imports and input generation (what ``setup_s`` times)."""
    from repro.experiments import campaign, tables  # noqa: F401
    from repro.workload import RandomSystemGenerator

    sets = paper_sets(workload, seed)
    for params in sets:
        RandomSystemGenerator(params).generate()
    return sets


def campaign_op(sets: tuple):
    """One full campaign plus the four rendered tables."""
    from repro.experiments import campaign, tables

    result = campaign.run_campaign(sets)
    rendered = [
        tables.format_table(n, result.table(arm))
        for n, arm in tables.TABLE_ARMS.items()
    ]
    return result, rendered, tables.shape_checks(result.tables)


def measure(sets: tuple, seconds: float, tracer: Tracer | None = None,
            first=None, speed: HostSpeed | None = None):
    """Closed loop, one campaign after another, for ``seconds``.

    A campaign starts only when the median so far says it ends inside
    the window, so a run overshoots by at most one campaign's noise.
    ``speed`` (optional) times calibration slices before and after
    every campaign.  Returns the campaign times, the first campaign's
    output (or the given ``first``), how many campaigns differ from it
    and the peak RSS once the first campaign is done.  Only that one
    output is kept, so memory does not grow with the campaigns.
    """
    times: list[float] = []
    drifted = 0
    began = now()
    if speed is not None:
        speed.sample(0.0)
    while True:
        start = now()
        if tracer is not None:
            with tracer.span("paper.campaign", tid=f"c{len(times)}",
                             root=True):
                output = campaign_op(sets)
        else:
            output = campaign_op(sets)
        times.append(now() - start)
        if speed is not None:
            speed.sample(times[-1])
        if first is None:
            first = output
        elif output[0].tables != first[0].tables:
            drifted += 1
        if len(times) == 1:
            rss = peak_rss_mb()
        if now() - began + statistics.median(times) > seconds:
            return times, first, drifted, rss


# -- correctness ------------------------------------------------------------


def _cells(result) -> dict:
    return {
        arm: {f"{d:g},{s:g}": [m.aart, m.air, m.asr]
              for (d, s), m in sorted(result.tables[arm].items())}
        for arm in ARMS
    }


def _digest(cells: dict, shapes: list[bool]) -> str:
    text = json.dumps({"tables": cells, "shape_checks": shapes},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(workload: str, seed: int, sets: tuple, output, campaigns: int,
          drifted: int) -> tuple[int, list[str]]:
    """(campaigns failed, problems) for one run of ``campaigns``
    campaigns, ``drifted`` of which differed from the first, whose
    ``output`` is checked."""
    from repro.batch import BatchTables
    from repro.batch.kernel import simulate_batch
    from repro.experiments.campaign import execute_system, simulate_system
    from repro.sim.metrics import aggregate
    from repro.workload import RandomSystemGenerator

    problems: list[str] = []
    first, _rendered, shape = output
    # the sim arms against an independent implementation, the
    # vectorized batch kernel, bit for bit; then a seeded sample of
    # systems re-run with the monitor battery on
    rng = random.Random(seed)
    for params in sets:
        key = (params.task_density, params.std_deviation)
        systems = RandomSystemGenerator(params).generate()
        batch = BatchTables.from_systems(systems)
        for arm, policy in (("ps_sim", "polling"), ("ds_sim", "deferrable")):
            ran = simulate_batch(batch, policy)
            oracle = aggregate([ran.run_metrics(i)
                                for i in range(len(systems))])
            if oracle != first.tables[arm][key]:
                problems.append(f"{arm} {key}: batch kernel disagrees")
        sample = rng.sample(range(len(systems)), VERIFY_SYSTEMS[workload])
        for index in sorted(sample):
            for arm in ARMS:
                policy = "polling" if arm.startswith("ps") else "deferrable"
                run = simulate_system if arm.endswith("_sim") else execute_system
                verified = run(systems[index], policy, verify=True)
                if not verified.report.ok:
                    problems.append(f"{arm} {key} system {index}: "
                                    f"{verified.report.summary()}")
                elif verified.metrics != first.tables[arm][key].runs[index]:
                    problems.append(f"{arm} {key} system {index}: verified "
                                    "re-run differs")

    reference = json.loads(REFERENCE_PATH.read_text())[workload]
    cells, shapes = _cells(first), [c.holds for c in shape]
    recorded = reference["full"].get(str(seed))
    if recorded is not None:
        if cells != recorded["tables"]:
            problems.append("tables differ from the recorded reference")
        if shapes != recorded["shape_checks"]:
            problems.append(f"shape checks {shapes} differ from the "
                            f"recorded {recorded['shape_checks']}")
    digest = reference["digests"].get(str(seed))
    if digest is not None and digest != _digest(cells, shapes):
        problems.append("tables or shape checks differ from the recorded "
                        "digest")
    if problems:
        return campaigns, problems
    if drifted:
        problems.append(f"{drifted} campaign(s) differ from the first")
    return drifted, problems


# -- the traced run ---------------------------------------------------------


class _QueueCounts:
    __slots__ = ("seconds", "calls", "scanned", "backlog_sum", "backlog_max",
                 "chooses")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = self.scanned = self.chooses = 0
        self.backlog_sum = self.backlog_max = 0


def instrument(tracer: Tracer) -> None:
    """Wrap the pipeline's layer boundaries (traced run only)."""
    from repro.core import DeferrableTaskServer, PendingQueue, PollingTaskServer
    from repro.core import server as core_server
    from repro.experiments import campaign, tables
    from repro.workload import RandomSystemGenerator

    runs = itertools.count()
    counts: list[_QueueCounts | None] = [None]

    def run_id(args, kwargs):
        return f"run{next(runs)}"

    def count_events(span, args, result):
        span.attrs["events"] = sum(len(s.events) for s in result)

    def count_trace(span, args, result):
        span.attrs["trace_events"] = len(result.trace.events)

    tracer.wrap(RandomSystemGenerator, "generate", "workload.generate",
                on_result=count_events)
    tracer.wrap(campaign, "run_campaign", "campaign.run_campaign")
    tracer.wrap(campaign, "simulate_system", "sim.simulate_system",
                tid_of=run_id, on_result=count_trace)
    tracer.wrap(campaign, "measure_run", "metrics.measure_run")
    tracer.wrap(core_server, "measure_run", "metrics.measure_run")
    tracer.wrap(campaign, "aggregate", "metrics.aggregate")
    tracer.wrap(tables, "format_table", "tables.format_table")
    tracer.wrap(tables, "shape_checks", "tables.shape_checks")

    execute = campaign.execute_system

    def execute_system(*args, **kwargs):
        counts[0] = acc = _QueueCounts()
        tid = run_id(args, kwargs)
        with tracer.span("exec.execute_system", tid=tid) as span:
            result = execute(*args, **kwargs)
        counts[0] = None
        span.attrs["trace_events"] = len(result.trace.events)
        tracer.add_aggregate(
            span, "core.queues", acc.seconds, calls=acc.calls,
            scanned=acc.scanned, chooses=acc.chooses,
            backlog_sum=acc.backlog_sum, backlog_max=acc.backlog_max,
        )
        return result

    tracer.patch(campaign, "execute_system", execute_system)

    def timed_choose(original):
        def choose(self, *args):
            acc = counts[0]
            backlog = self.pending_count
            start = now()
            result = original(self, *args)
            acc.seconds += now() - start
            acc.calls += 1
            acc.chooses += 1
            acc.backlog_sum += backlog
            acc.backlog_max = max(acc.backlog_max, backlog)
            return result
        return choose

    for cls in (DeferrableTaskServer, PollingTaskServer):
        tracer.patch(cls, "_choose", timed_choose(cls._choose))

    add = PendingQueue.add

    def queue_add(self, item):
        start = now()
        result = add(self, item)
        acc = counts[0]
        acc.seconds += now() - start
        acc.calls += 1
        return result

    iterate = PendingQueue.__iter__

    def queue_iter(self):
        acc = counts[0]
        for item in iterate(self):
            acc.scanned += 1
            yield item

    first_fitting = PendingQueue.choose_first_fitting

    def choose_first_fitting(self, limit_ns):
        item = first_fitting(self, limit_ns)
        items = self._items
        counts[0].scanned += (
            len(items) if item is None else operator.indexOf(items, item) + 1
        )
        return item

    tracer.patch(PendingQueue, "add", queue_add)
    tracer.patch(PendingQueue, "__iter__", queue_iter)
    tracer.patch(PendingQueue, "choose_first_fitting", choose_first_fitting)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-campaign layer figures from the traced campaigns' spans."""
    self_time = tracer.self_times()
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for span in tracer.spans:
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_time[span.sid]

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in tracer.spans
                   if s.name == name)

    queues = [s for s in tracer.spans if s.name == "core.queues"]
    chooses = sum(s.attrs["chooses"] for s in queues)
    sim_events = attr_sum("sim.simulate_system", "trace_events")
    exec_events = attr_sum("exec.execute_system", "trace_events")
    sim_s = inclusive.get("sim.simulate_system", 0.0)
    exec_s = inclusive.get("exec.execute_system", 0.0)
    metrics_s = sum(inclusive.get(n, 0.0) for n in (
        "metrics.measure_run", "metrics.aggregate", "tables.format_table",
        "tables.shape_checks"))
    return {
        "workload.generate_s": inclusive.get("workload.generate", 0.0) / ops,
        "workload.events": attr_sum("workload.generate", "events") / ops,
        "sim.busy_s": sim_s / ops,
        "sim.trace_events": sim_events / ops,
        "sim.ns_per_event": sim_s * 1e9 / sim_events,
        "exec.busy_s": exec_s / ops,
        "exec.trace_events": exec_events / ops,
        "exec.ns_per_event": exec_s * 1e9 / exec_events,
        "core.queue_s": inclusive.get("core.queues", 0.0) / ops,
        "core.queue_calls": sum(s.attrs["calls"] for s in queues) / ops,
        "core.items_scanned": sum(s.attrs["scanned"] for s in queues) / ops,
        "core.backlog_max": max(s.attrs["backlog_max"] for s in queues),
        "core.backlog_mean": (
            sum(s.attrs["backlog_sum"] for s in queues) / chooses
            if chooses else 0.0
        ),
        "metrics.busy_s": metrics_s / ops,
        "campaign.self_s": own.get("campaign.run_campaign", 0.0) / ops,
    }


def record_reference() -> None:
    """Write the reference tables, shape verdicts and digests."""
    reference: dict = {}
    for workload in HORIZON_PERIODS:
        full, digests = {}, {}
        for seed in sorted({*REFERENCE_SEEDS, *DIGEST_SEEDS[workload]}):
            result, _, shape = campaign_op(paper_sets(workload, seed))
            cells, shapes = _cells(result), [c.holds for c in shape]
            if seed in REFERENCE_SEEDS:
                full[str(seed)] = {"tables": cells, "shape_checks": shapes}
            else:
                digests[str(seed)] = _digest(cells, shapes)
        reference[workload] = {"full": full, "digests": digests}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/paper.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record_reference()
