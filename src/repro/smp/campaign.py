"""The multicore evaluation campaign: workload -> placement -> engine.

Runs a generated workload (periodic tasks with total utilization up to
*m*, plus a Poisson aperiodic stream) under the four multicore arms:

* ``part-ff`` / ``part-wf`` / ``part-bf`` — partitioned scheduling: the
  periodic set is bin-packed onto the cores (first-/worst-/best-fit
  decreasing utilization) and every core runs preemptive fixed priority
  with its *own* Polling or Deferrable server instance; aperiodic events
  are routed round-robin across the per-core servers;
* ``global-fp`` / ``global-edf`` — global scheduling: one logical queue,
  the top-*m* entities run, a single (migratable) server serves the
  aperiodic stream, and migrations are counted as first-class trace
  events.

Every arm consumes the *same* :class:`~repro.workload.spec.GeneratedSystem`
descriptor, so fault plans (:mod:`repro.faults`) apply to the workload
before placement — a targeted fault perturbs the same tasks and events
regardless of which core they end up on.  Campaign hardening (per-run
timeout, bounded retry, JSONL checkpoint/resume) and the worker pool are
shared with the uniprocessor campaign executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as _replace
from typing import TYPE_CHECKING

from ..sim import (
    AperiodicJob,
    IdealDeferrableServer,
    IdealPollingServer,
)
from ..sim.engine import EPS
from ..sim.trace import ExecutionTrace
from ..workload.rng import PortableRandom
from ..workload.spec import (
    AperiodicEventSpec,
    GeneratedSystem,
    PeriodicTaskSpec,
    ServerSpec,
)
from ..workload.uunifast import generate_multicore_taskset
from .engine import MulticoreSimulation
from .metrics import (
    MulticoreRunMetrics,
    measure_multicore_run,
    multicore_metrics_from_dict,
    multicore_metrics_to_dict,
)
from .partition import Partition, partition_tasks
from .policies import (
    AperiodicRouter,
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    PartitionedPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig
    from ..faults.injectors import EventBurst, FaultPlan
    from ..overload.config import OverloadConfig
    from ..experiments.campaign import RunPolicy
    from ..verify.violations import VerificationReport

__all__ = [
    "MULTICORE_MODES",
    "MulticoreParameters",
    "MulticoreSystemResult",
    "MulticoreCampaignResult",
    "build_multicore_system",
    "run_multicore_system",
    "run_multicore_campaign",
    "run_multicore_overload_campaign",
]

#: the four standard arms (plus best-fit) of the multicore evaluation
MULTICORE_MODES = ("part-ff", "part-wf", "part-bf", "global-fp", "global-edf")

_HEURISTIC_OF_MODE = {"part-ff": "ff", "part-wf": "wf", "part-bf": "bf"}


@dataclass(frozen=True)
class MulticoreParameters:
    """Knobs of the multicore campaign generator.

    The periodic side is a UUniFast-Discard task set with total
    utilization ``total_utilization`` (may exceed 1; must not exceed
    ``n_cores`` minus the per-core server share in partitioned modes);
    the aperiodic side is the paper's Poisson/Gaussian stream, served by
    per-core (partitioned) or migratable (global) servers of
    ``server_capacity`` per ``server_period``.
    """

    n_cores: int = 4
    n_tasks: int = 12
    total_utilization: float = 2.0
    task_density: float = 2.0
    average_cost: float = 1.0
    std_deviation: float = 0.5
    server_capacity: float = 2.0
    server_period: float = 10.0
    nb_systems: int = 1
    seed: int = 1983
    horizon_periods: int = 10
    period_range: tuple[float, float] = (10.0, 100.0)
    min_cost: float = 0.1

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_tasks <= 0:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.total_utilization <= 0:
            raise ValueError(
                f"total_utilization must be > 0, got {self.total_utilization}"
            )
        if self.nb_systems <= 0:
            raise ValueError(f"nb_systems must be >= 1, got {self.nb_systems}")
        if self.server_capacity > self.server_period:
            raise ValueError("server capacity exceeds its period")

    @property
    def horizon(self) -> float:
        return self.horizon_periods * self.server_period

    @property
    def server_utilization(self) -> float:
        return self.server_capacity / self.server_period


@dataclass
class MulticoreSystemResult:
    """One system's outcome under one multicore arm."""

    mode: str
    metrics: MulticoreRunMetrics
    trace: ExecutionTrace
    partition: Partition | None = None
    #: the run's aperiodic job records (overload reports read these)
    jobs: list[AperiodicJob] = field(default_factory=list)
    #: verification outcome when the run was monitored (``verify=True``)
    report: "VerificationReport | None" = None


@dataclass
class MulticoreCampaignResult:
    """``tables[mode]`` -> per-system metrics, plus hardening records."""

    tables: dict[str, list[MulticoreRunMetrics]] = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [r for r in self.records if r.status != "ok"]


# -- workload ---------------------------------------------------------------


def build_multicore_system(params: MulticoreParameters,
                           system_id: int = 0) -> GeneratedSystem:
    """Generate one multicore system (periodic set + aperiodic stream).

    Deterministic in ``(params, system_id)``; every arm of the campaign
    consumes the descriptor returned here, so placements are compared on
    byte-identical workloads.
    """
    mix = (params.seed << 4) ^ (system_id * 0x9E3779B9) ^ 0x5BD1
    task_seed = mix & 0x7FFFFFFFFFFFFFFF
    tasks = generate_multicore_taskset(
        seed=task_seed,
        n=params.n_tasks,
        total_utilization=params.total_utilization,
        period_range=params.period_range,
    )
    rng = PortableRandom(task_seed ^ 0x0A5E)
    horizon = params.horizon
    mean_interarrival = params.server_period / params.task_density
    events: list[AperiodicEventSpec] = []
    t = rng.exponential(mean_interarrival)
    eid = 0
    while t < horizon:
        cost = rng.gauss(params.average_cost, params.std_deviation)
        if cost < params.min_cost:
            cost = params.min_cost
        events.append(
            AperiodicEventSpec(event_id=eid, release=t, declared_cost=cost)
        )
        eid += 1
        t += rng.exponential(mean_interarrival)
    return GeneratedSystem(
        system_id=system_id,
        server=ServerSpec(
            capacity=params.server_capacity,
            period=params.server_period,
            priority=0,
        ),
        events=tuple(events),
        horizon=horizon,
        periodic_tasks=tuple(tasks),
    )


# -- single runs ------------------------------------------------------------

_SERVER_CLASSES = {
    "polling": IdealPollingServer,
    "deferrable": IdealDeferrableServer,
}


class _GlobalPollingServer(IdealPollingServer):
    """Polling server rankable under global EDF: its deadline is the end
    of the current server period (when unspent capacity is forfeit)."""

    def current_deadline(self, now: float) -> float:
        period = self.spec.period
        return (math.floor(now / period + EPS) + 1) * period


class _GlobalDeferrableServer(IdealDeferrableServer):
    """Deferrable server rankable under global EDF (same deadline rule)."""

    def current_deadline(self, now: float) -> float:
        period = self.spec.period
        return (math.floor(now / period + EPS) + 1) * period


def run_multicore_system(
    system: GeneratedSystem,
    n_cores: int,
    mode: str,
    server: str | None = "polling",
    enforcement: "EnforcementConfig | None" = None,
    overload: "OverloadConfig | None" = None,
    verify: bool = False,
    trace_mode: str | None = None,
    kernel: str = "auto",
) -> MulticoreSystemResult:
    """Run one generated system under one multicore arm.

    ``server`` selects the per-core (partitioned) or migratable (global)
    aperiodic server family — ``"polling"``, ``"deferrable"`` or ``None``
    to drop the aperiodic stream entirely (pure periodic scheduling).
    ``overload`` wires the full overload stack (queue bounds, per-server
    circuit breakers, the degraded-mode detector and, in partitioned
    modes, overload-aware routing); ``None`` keeps the golden path
    byte-identical.  ``verify=True`` attaches the runtime-verification
    monitor battery (:mod:`repro.verify`) — per-core non-overlap,
    ordering legality scoped by the placement, server capacity
    conservation — and stores the outcome on the result's ``report``.
    ``trace_mode``/``kernel`` select the columnar trace and the lazy
    release-scheduling path (see docs/performance.md); defaults are
    byte-identical to the historical behaviour.
    """
    if mode not in MULTICORE_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; choose from {MULTICORE_MODES}"
        )
    if server is not None and server not in _SERVER_CLASSES:
        raise ValueError(
            f"unknown server {server!r}; choose 'polling', 'deferrable' "
            "or None"
        )
    if mode in _HEURISTIC_OF_MODE:
        return _run_partitioned(
            system, n_cores, _HEURISTIC_OF_MODE[mode], mode, server,
            enforcement, overload, verify, trace_mode, kernel,
        )
    return _run_global(
        system, n_cores, mode, server, enforcement, overload, verify,
        trace_mode, kernel,
    )


def _make_jobs(system: GeneratedSystem) -> list[AperiodicJob]:
    return [
        AperiodicJob(
            name=f"h{event.event_id}",
            release=event.release,
            cost=event.cost,
            declared_cost=event.declared_cost,
        )
        for event in system.events
    ]


def _wire_overload(sim, servers, overload):
    """Attach the overload stack to one multicore run (or do nothing)."""
    if overload is None or not overload.active or not servers:
        return None
    from ..faults.watchdog import DeadlineMissWatchdog
    from ..overload import wire_sim_servers

    watchdog = sim.watchdog
    if watchdog is None and overload.detector is not None:
        watchdog = DeadlineMissWatchdog().attach_sim(sim)
    return wire_sim_servers(
        overload, sim.trace, servers, watchdog=watchdog
    )


def _run_partitioned(
    system: GeneratedSystem,
    n_cores: int,
    heuristic: str,
    mode: str,
    server: str | None,
    enforcement: "EnforcementConfig | None",
    overload: "OverloadConfig | None" = None,
    verify: bool = False,
    trace_mode: str | None = None,
    kernel: str = "auto",
) -> MulticoreSystemResult:
    tasks = list(system.periodic_tasks)
    reserve = (
        system.server.capacity / system.server.period
        if server is not None else 0.0
    )
    partition = partition_tasks(
        tasks, n_cores, heuristic=heuristic, capacity=1.0, reserve=reserve
    )
    top = max((t.priority for t in tasks), default=0)
    server_names = [f"{server or 'srv'}{k}".upper() for k in range(n_cores)]
    core_of = dict(partition.core_of)
    for k, name in enumerate(server_names):
        core_of[name] = k
    servers = []
    if server is not None:
        spec = ServerSpec(
            capacity=system.server.capacity,
            period=system.server.period,
            priority=top + 1,  # highest on its core, the paper's invariant
        )
        for name in server_names:
            servers.append(_SERVER_CLASSES[server](
                spec, name=name, enforcement=enforcement
            ))
    monitors = None
    if verify:
        from ..verify import monitors_for_system

        monitors = monitors_for_system(
            system, servers=tuple(servers), policy="fp", core_of=core_of,
            check_demand=enforcement is None and overload is None,
        )
    sim = MulticoreSimulation(
        PartitionedPolicy(core_of, n_cores),
        n_cores=n_cores,
        enforcement=enforcement,
        monitors=monitors,
        trace_mode=trace_mode,
        kernel=kernel,
    )
    for instance in servers:
        instance.attach(sim, horizon=system.horizon)
    for task_spec in tasks:
        sim.add_periodic_task(task_spec)
    detector = _wire_overload(sim, servers, overload)
    jobs = _make_jobs(system)
    core_of_job: dict[str, int] = {}
    if server is not None:
        if overload is not None and overload.active:
            # overload-aware routing decides at release time, when the
            # breaker and queue state it steers around actually exists
            router = AperiodicRouter(servers, overload)
            core_of_job = router.core_of_job
            for job in jobs:
                sim.submit_aperiodic(job, router.route)
        else:
            for i, job in enumerate(jobs):
                core = i % n_cores  # deterministic round-robin routing
                core_of_job[job.name] = core
                sim.submit_aperiodic(job, servers[core].submit)
    trace = sim.run(until=system.horizon)
    if detector is not None:
        detector.finish(system.horizon)
    metrics = measure_multicore_run(
        jobs, trace, n_cores, system.horizon,
        core_of_job=core_of_job if server is not None else None,
    )
    report = (
        trace.finish_monitors(system.horizon) if monitors is not None
        else None
    )
    return MulticoreSystemResult(
        mode=mode, metrics=metrics, trace=trace, partition=partition,
        jobs=jobs, report=report,
    )


def _run_global(
    system: GeneratedSystem,
    n_cores: int,
    mode: str,
    server: str | None,
    enforcement: "EnforcementConfig | None",
    overload: "OverloadConfig | None" = None,
    verify: bool = False,
    trace_mode: str | None = None,
    kernel: str = "auto",
) -> MulticoreSystemResult:
    tasks = list(system.periodic_tasks)
    top = max((t.priority for t in tasks), default=0)
    policy = (
        GlobalFixedPriorityPolicy() if mode == "global-fp"
        else GlobalEDFPolicy()
    )
    instance = None
    if server is not None:
        # one migratable server; global modes pool the per-core bandwidth
        spec = ServerSpec(
            capacity=min(
                system.server.capacity * n_cores, system.server.period
            ),
            period=system.server.period,
            priority=top + 1,
        )
        cls = (
            _GlobalPollingServer if server == "polling"
            else _GlobalDeferrableServer
        )
        instance = cls(spec, name=server.upper(), enforcement=enforcement)
    monitors = None
    if verify:
        from ..verify import monitors_for_system

        monitors = monitors_for_system(
            system,
            servers=(instance,) if instance is not None else (),
            policy="fp" if mode == "global-fp" else "edf",
            check_demand=enforcement is None and overload is None,
        )
    sim = MulticoreSimulation(policy, n_cores=n_cores,
                              enforcement=enforcement, monitors=monitors,
                              trace_mode=trace_mode, kernel=kernel)
    if instance is not None:
        instance.attach(sim, horizon=system.horizon)
    for task_spec in tasks:
        sim.add_periodic_task(task_spec)
    detector = _wire_overload(
        sim, [instance] if instance is not None else [], overload
    )
    jobs = _make_jobs(system)
    if instance is not None:
        for job in jobs:
            sim.submit_aperiodic(job, instance.submit)
    trace = sim.run(until=system.horizon)
    if detector is not None:
        detector.finish(system.horizon)
    metrics = measure_multicore_run(jobs, trace, n_cores, system.horizon)
    report = (
        trace.finish_monitors(system.horizon) if monitors is not None
        else None
    )
    return MulticoreSystemResult(
        mode=mode, metrics=metrics, trace=trace, jobs=jobs, report=report,
    )


# -- the campaign -----------------------------------------------------------


def _mc_worker(task: tuple) -> "object":
    """Pool entry point: run one (mode, system) with guard rails."""
    return _guarded_mc_run(*task)


def _guarded_mc_run(
    mode: str,
    params: MulticoreParameters,
    system_id: int,
    system: GeneratedSystem,
    server: str | None,
    enforcement: "EnforcementConfig | None",
    fault_plan: "FaultPlan | None",
    run_policy: "RunPolicy | None",
    verify: bool = False,
):
    """One hardened run -> a RunRecord (metrics carry the aggregate)."""
    import traceback

    from ..experiments.campaign import (
        RunExhausted,
        RunRecord,
        RunTimeout,
        _time_limit,
    )
    from ..verify.violations import VerificationError

    key = (float(params.n_cores), float(params.total_utilization))
    policy = run_policy
    max_retries = policy.max_retries if policy is not None else 0
    timeout_s = policy.timeout_s if policy is not None else None
    seed_bump = policy.retry_seed_bump if policy is not None else 1
    attempts = 0
    current = system
    status, last_error = "failed", ""
    result: MulticoreSystemResult | None = None
    while attempts <= max_retries:
        attempts += 1
        try:
            with _time_limit(timeout_s):
                result = run_multicore_system(
                    current, params.n_cores, mode, server=server,
                    enforcement=enforcement, verify=verify,
                )
                if result.report is not None and not result.report.ok:
                    raise VerificationError(result.report.summary())
            return RunRecord(
                arm=mode, set_key=key, system_id=system_id,
                status="ok", attempts=attempts,
                metrics=result.metrics.aggregate,
                payload=multicore_metrics_to_dict(result.metrics),
            )
        except RunTimeout as exc:
            status, last_error = "timeout", str(exc)
        except Exception:
            status, last_error = "failed", traceback.format_exc(limit=5)
        if attempts <= max_retries:
            bumped = _replace(
                params, seed=params.seed + attempts * seed_bump
            )
            current = build_multicore_system(bumped, system_id)
            if fault_plan is not None:
                current = fault_plan.apply(current)
    record = RunRecord(
        arm=mode, set_key=key, system_id=system_id,
        status=status, attempts=attempts, error=last_error,
    )
    if policy is not None and policy.fail_fast:
        raise RunExhausted(record.to_dict())
    return record


def _mc_overload_worker(task: tuple):
    """Pool entry point: baseline + burst run of one (mode, system)."""
    import traceback

    from ..experiments.campaign import (
        RunExhausted,
        RunPolicy,
        RunRecord,
        RunTimeout,
        _report_payload,
        _time_limit,
    )
    from ..overload.metrics import measure_overload

    (mode, params, clean, burst_system, server, overload, run_policy) = task
    key = (float(params.n_cores), float(params.total_utilization))
    policy = run_policy if run_policy is not None else RunPolicy()
    status, last_error = "failed", ""
    try:
        with _time_limit(policy.timeout_s):
            # the unfaulted baseline calibrates the recovery criterion
            baseline = run_multicore_system(
                clean, params.n_cores, mode, server=server
            )
            faulted = run_multicore_system(
                burst_system, params.n_cores, mode, server=server,
                overload=overload,
            )
    except RunTimeout as exc:
        status, last_error = "timeout", str(exc)
    except Exception:
        status, last_error = "failed", traceback.format_exc(limit=5)
    else:
        report = measure_overload(
            faulted.trace,
            faulted.jobs,
            horizon=burst_system.horizon,
            pre_burst_aart=(
                baseline.metrics.aggregate.average_response_time or None
            ),
        )
        return RunRecord(
            arm=mode, set_key=key, system_id=clean.system_id, status="ok",
            metrics=faulted.metrics.aggregate,
            payload=_report_payload(report, baseline.metrics.aggregate),
        )
    record = RunRecord(
        arm=mode, set_key=key, system_id=clean.system_id,
        status=status, error=last_error,
    )
    if run_policy is not None and run_policy.fail_fast:
        raise RunExhausted(record.to_dict())
    return record


def run_multicore_overload_campaign(
    params: MulticoreParameters,
    modes: tuple[str, ...] = MULTICORE_MODES,
    server: str | None = "polling",
    overload: "OverloadConfig | None" = None,
    burst: "EventBurst | None" = None,
    run_policy: "RunPolicy | None" = None,
    workers: int = 1,
):
    """The multicore burst-overload sweep: every system runs twice per arm.

    The multicore twin of
    :func:`repro.experiments.campaign.run_overload_campaign`: an unfaulted
    baseline calibrates pre-burst response times, then the same workload
    runs through an :class:`~repro.faults.injectors.EventBurst` storm with
    the ``overload`` stack armed — per-server queue bounds and breakers,
    the degraded-mode detector, and (partitioned modes) overload-aware
    routing that steers arrivals around open breakers and full queues.
    Returns an :class:`~repro.experiments.campaign.OverloadCampaignResult`.
    """
    from ..experiments.campaign import (
        OverloadCampaignResult,
        RunPolicy,
        _checkpoint,
        _open_checkpoint,
        _overload_run_from_record,
        _parallel_map,
        default_overload_config,
    )
    from ..faults.injectors import EventBurst, FaultPlan

    for mode in modes:
        if mode not in MULTICORE_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {MULTICORE_MODES}"
            )
    if overload is None:
        overload = default_overload_config()
    if burst is None:
        burst = EventBurst(extra=3, probability=0.5, spacing=0.05)
    policy = run_policy if run_policy is not None else RunPolicy()
    log, checkpointed = _open_checkpoint(policy.checkpoint_path)
    worker_policy = _replace(policy, checkpoint_path=None)
    key = (float(params.n_cores), float(params.total_utilization))
    plan = FaultPlan(injectors=(burst,), seed=params.seed)

    order: list[tuple[str, int, bool]] = []
    pending: list[tuple | None] = []
    for system_id in range(params.nb_systems):
        clean = build_multicore_system(params, system_id)
        burst_system = plan.apply(clean)
        for mode in modes:
            cached = (mode, key, system_id) in checkpointed
            order.append((mode, system_id, cached))
            pending.append(
                None if cached else (
                    mode, params, clean, burst_system, server, overload,
                    worker_policy,
                )
            )
    fresh = iter(_parallel_map(
        _mc_overload_worker, [t for t in pending if t is not None], workers
    ))

    result = OverloadCampaignResult()
    try:
        for slot, (mode, system_id, cached) in zip(pending, order):
            if cached:
                record = checkpointed[(mode, key, system_id)]
            else:
                record = next(fresh)
                _checkpoint(log, record)
            result.records.append(record)
            run = _overload_run_from_record(record)
            if run is not None:
                result.runs.append(run)
    finally:
        if log is not None:
            log.close()
    return result


def run_multicore_campaign(
    params: MulticoreParameters,
    modes: tuple[str, ...] = MULTICORE_MODES,
    server: str | None = "polling",
    enforcement: "EnforcementConfig | None" = None,
    fault_plan: "FaultPlan | None" = None,
    run_policy: "RunPolicy | None" = None,
    workers: int = 1,
    verify: bool = False,
) -> MulticoreCampaignResult:
    """Run every generated system under every multicore arm.

    ``workers > 1`` fans the (mode, system) runs out over a
    ``multiprocessing`` pool with the master-seed fan-out preserved, so
    results are bit-identical to a sequential sweep; checkpoint lines
    (``run_policy.checkpoint_path``) are written by the parent only,
    committed (fsynced) per record, and an existing checkpoint resumes.
    """
    from ..experiments.campaign import (
        _checkpoint,
        _open_checkpoint,
        _parallel_map,
    )

    for mode in modes:
        if mode not in MULTICORE_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {MULTICORE_MODES}"
            )
    log, checkpointed = _open_checkpoint(
        run_policy.checkpoint_path if run_policy is not None else None
    )
    systems = []
    for system_id in range(params.nb_systems):
        system = build_multicore_system(params, system_id)
        if fault_plan is not None:
            system = fault_plan.apply(system)
        systems.append(system)
    key = (float(params.n_cores), float(params.total_utilization))
    # workers never see the checkpoint path: the parent is the only writer
    worker_policy = (
        _replace(run_policy, checkpoint_path=None)
        if run_policy is not None else None
    )
    pending = []
    order = []
    for system_id, system in enumerate(systems):
        for mode in modes:
            order.append((mode, system_id))
            if (mode, key, system_id) in checkpointed:
                pending.append(None)
                continue
            pending.append((mode, params, system_id, system, server,
                            enforcement, fault_plan, worker_policy, verify))
    fresh = _parallel_map(
        _mc_worker, [t for t in pending if t is not None], workers
    )
    fresh_iter = iter(fresh)
    result = MulticoreCampaignResult(tables={m: [] for m in modes})
    try:
        for slot, (mode, system_id) in zip(pending, order):
            if slot is None:
                record = checkpointed[(mode, key, system_id)]
            else:
                record = next(fresh_iter)
                _checkpoint(log, record)
            result.records.append(record)
            if record.payload is not None:
                result.tables[mode].append(
                    multicore_metrics_from_dict(record.payload)
                )
    finally:
        if log is not None:
            log.close()
    return result
