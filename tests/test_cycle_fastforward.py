"""The hyperperiod cycle knob's equivalence and safety contract.

Three tiers of guarantee, all enforced here:

* **byte-identity off** — ``cycle="off"`` (the default) emits exactly
  the trace a pre-knob kernel emitted: same construction path, same
  records, same order.
* **prefix/marker identity detect** — ``cycle="detect"`` adds exactly
  one CYCLE point event to the otherwise byte-identical trace; nothing
  else moves.
* **bit-identical metrics fastforward** — on exactly-representable task
  sets the fast-forwarded per-task summary equals the full run's
  field by field with no tolerance, across policies and kernels
  (the seeded matrix), and every feature the tracker cannot model
  stands down loudly into ``repro.cycle.STAND_DOWNS``.
"""

from __future__ import annotations

import logging

import pytest

from repro.cycle import (
    CYCLE_MODES,
    STAND_DOWNS,
    CycleConsistencyMonitor,
    cross_check,
    periodic_summary,
)
from repro.cycle.monitor import parse_cycle_detail
from repro.sim import (
    EarliestDeadlineFirstPolicy,
    FixedPriorityPolicy,
    Simulation,
    TraceEventKind,
)
from repro.sim.trace import ExecutionTrace
from repro.smp import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MulticoreSimulation,
)
from repro.workload.rng import PortableRandom
from repro.workload.spec import PeriodicTaskSpec, ServerSpec
from test_engine_fastpath import random_specs, trace_key

#: dyadic period pool (0.25-tu grid): every release, deadline and
#: completion instant is exactly representable, so the skip's exactness
#: gate always commits — hyperperiod divides 16
_PERIODS = (2.0, 4.0, 8.0, 16.0)


def dyadic_specs(rng, n_tasks, budget):
    """A random task set on the 0.25-tu grid with utilization ~budget."""
    specs = []
    share = budget / n_tasks
    for i in range(n_tasks):
        period = _PERIODS[rng.randint(0, len(_PERIODS) - 1)]
        quanta = max(1, int(period * share / 0.25))
        specs.append(PeriodicTaskSpec(
            name=f"t{i}",
            cost=0.25 * rng.randint(1, quanta),
            period=period,
            priority=rng.randint(1, 8),
            offset=0.25 * rng.randint(0, 8) if rng.random() < 0.4 else 0.0,
        ))
    return specs


def build_uni(specs, policy_cls, cycle, kernel="auto", miss="continue"):
    sim = Simulation(
        policy_cls(), cycle=cycle, kernel=kernel, on_deadline_miss=miss
    )
    for spec in specs:
        sim.add_periodic_task(spec)
    return sim


# -- the knob ----------------------------------------------------------------


class TestKnobValidation:

    def test_uniprocessor_rejects_bad_value(self):
        with pytest.raises(ValueError, match="cycle"):
            Simulation(FixedPriorityPolicy(), cycle="warp")

    def test_multicore_rejects_bad_value(self):
        with pytest.raises(ValueError, match="cycle"):
            MulticoreSimulation(GlobalEDFPolicy(), n_cores=2, cycle="warp")

    def test_modes_tuple(self):
        assert CYCLE_MODES == ("off", "detect", "fastforward")


# -- off: byte identity ------------------------------------------------------


class TestOffByteIdentity:

    @pytest.mark.parametrize("policy_cls", [
        FixedPriorityPolicy, EarliestDeadlineFirstPolicy,
    ])
    def test_chaos_matrix(self, policy_cls):
        """``cycle="off"`` is the constructor default and must change
        nothing: the trace equals a default-constructed kernel's."""
        rng = PortableRandom(0xC1C7E)
        for case in range(20):
            specs = random_specs(
                rng, rng.randint(1, 5), overload=case % 5 == 0
            )
            until = rng.uniform(40.0, 120.0)
            base = Simulation(policy_cls())
            off = Simulation(policy_cls(), cycle="off")
            for spec in specs:
                base.add_periodic_task(spec)
                off.add_periodic_task(spec)
            assert trace_key(off.run(until)) == trace_key(base.run(until)), (
                f"case {case}: cycle='off' perturbed the trace"
            )
            assert off._cycle_report is None

    def test_off_never_samples_dyadic_sets(self):
        """Even on a perfectly cyclic set the off mode does no work."""
        rng = PortableRandom(7)
        specs = dyadic_specs(rng, 4, budget=0.7)
        sim = build_uni(specs, FixedPriorityPolicy, "off")
        trace = sim.run(until=160.0)
        assert sim._cycle_report is None
        assert trace.events_of(TraceEventKind.CYCLE) == []


# -- detect: one marker, nothing else moves ----------------------------------


class TestDetectMode:

    @pytest.mark.parametrize("policy_cls", [
        FixedPriorityPolicy, EarliestDeadlineFirstPolicy,
    ])
    def test_trace_is_off_trace_plus_one_marker(self, policy_cls):
        rng = PortableRandom(0xDE7EC7)
        for case in range(10):
            specs = dyadic_specs(
                rng, rng.randint(2, 5), budget=rng.uniform(0.4, 0.85)
            )
            until = 16.0 * rng.randint(5, 12)
            off = build_uni(specs, policy_cls, "off").run(until)
            detect_sim = build_uni(specs, policy_cls, "detect")
            detect = detect_sim.run(until)
            report = detect_sim._cycle_report
            assert report.status == "detected", f"case {case}: {report}"
            markers = detect.events_of(TraceEventKind.CYCLE)
            assert len(markers) == 1
            off_segments, off_events = trace_key(off)
            det_segments, det_events = trace_key(detect)
            assert det_segments == off_segments, f"case {case}"
            stripped = [
                e for e in det_events if e[1] is not TraceEventKind.CYCLE
            ]
            assert stripped == off_events, f"case {case}"

    def test_marker_payload_matches_report(self):
        rng = PortableRandom(11)
        specs = dyadic_specs(rng, 3, budget=0.6)
        sim = build_uni(specs, FixedPriorityPolicy, "detect")
        trace = sim.run(until=160.0)
        report = sim._cycle_report
        (marker,) = trace.events_of(TraceEventKind.CYCLE)
        info = parse_cycle_detail(marker.detail)
        assert info["start"] == report.cycle_start
        assert info["period"] == report.cycle_period
        assert info["windows"] == 0  # detect-only: nothing is skipped
        assert marker.time == report.detected_at
        assert report.cycle_period % 16.0 == 0.0 or \
            16.0 % report.cycle_period == 0.0

    def test_detect_allowed_on_reference_kernel(self):
        """The eager reference path cannot be fast-forwarded (no release
        chains to advance) but detection still works on it."""
        rng = PortableRandom(13)
        specs = dyadic_specs(rng, 3, budget=0.6)
        sim = build_uni(specs, FixedPriorityPolicy, "detect",
                        kernel="reference")
        sim.run(until=160.0)
        assert sim._cycle_report.status == "detected"

    def test_no_cycle_when_backlog_grows(self):
        """An overloaded soft set never revisits a state: the tracker
        samples to the end and reports honestly."""
        sim = Simulation(FixedPriorityPolicy(), cycle="detect")
        sim.add_periodic_task(
            PeriodicTaskSpec(name="hog", cost=1.8, period=2.0, priority=5)
        )
        sim.add_periodic_task(
            PeriodicTaskSpec(name="lo", cost=1.5, period=4.0, priority=1)
        )
        sim.run(until=40.0)
        report = sim._cycle_report
        assert report.status == "no-cycle"
        assert report.samples > 1


# -- fastforward: bit-identical metrics --------------------------------------


class TestFastForwardMatrix:

    def test_seeded_uniprocessor_matrix(self):
        """50 seeded dyadic systems across policies, kernels and miss
        modes: the extrapolated summary equals the full run bit-for-bit
        and the tracker engages on every one."""
        rng = PortableRandom(0xFF50)
        policies = (FixedPriorityPolicy, EarliestDeadlineFirstPolicy)
        for case in range(50):
            policy_cls = policies[case % 2]
            kernel = ("auto", "fast")[(case // 2) % 2]
            miss = ("continue", "abort")[(case // 4) % 2]
            specs = dyadic_specs(
                rng, rng.randint(2, 6), budget=rng.uniform(0.4, 0.85)
            )
            # odd cases end off the hyperperiod grid, so the run must
            # resume after the skip and simulate a partial-window suffix
            until = 16.0 * rng.randint(20, 60) + \
                (0.25 * rng.randint(1, 63) if case % 2 else 0.0)

            def make_sim(cycle):
                return build_uni(specs, policy_cls, cycle, kernel, miss)

            outcome = cross_check(make_sim, until)
            assert outcome.fast_forwarded, (
                f"case {case}: tracker never engaged"
            )
            assert outcome.matched, (
                f"case {case}: {outcome.mismatches}"
            )
            assert outcome.fast.windows_extrapolated > 0
            assert outcome.fast.horizon == outcome.full.horizon

    def test_seeded_multicore_matrix(self):
        rng = PortableRandom(0xFF51)
        policies = (GlobalFixedPriorityPolicy, GlobalEDFPolicy)
        for case in range(8):
            policy_cls = policies[case % 2]
            n_cores = rng.randint(2, 3)
            specs = dyadic_specs(
                rng, rng.randint(3, 6),
                budget=rng.uniform(0.5, 0.9),  # well under n_cores
            )
            until = 16.0 * rng.randint(20, 40) + \
                (0.25 * rng.randint(1, 63) if case % 2 else 0.0)

            def make_sim(cycle):
                sim = MulticoreSimulation(
                    policy_cls(), n_cores=n_cores, cycle=cycle
                )
                for spec in specs:
                    sim.add_periodic_task(spec)
                return sim

            outcome = cross_check(make_sim, until)
            assert outcome.fast_forwarded, f"case {case}"
            assert outcome.matched, f"case {case}: {outcome.mismatches}"

    def test_trace_prefix_matches_off_run(self):
        """Everything recorded before the skip is the full run's trace,
        byte for byte."""
        rng = PortableRandom(17)
        specs = dyadic_specs(rng, 4, budget=0.7)
        until = 16.0 * 40
        off = build_uni(specs, FixedPriorityPolicy, "off").run(until)
        ff_sim = build_uni(specs, FixedPriorityPolicy, "fastforward")
        ff = ff_sim.run(until)
        report = ff_sim._cycle_report
        assert report.fast_forwarded
        _, off_events = trace_key(off)
        _, ff_events = trace_key(ff)
        cut = next(
            i for i, e in enumerate(ff_events)
            if e[1] is TraceEventKind.CYCLE
        )
        assert ff_events[:cut] == off_events[:cut]
        detected = report.detected_at
        ff_before = [
            s for s in ff.segments if s.end <= detected
        ]
        off_before = [
            s for s in off.segments if s.end <= detected
        ]
        assert [
            (s.start, s.end, s.entity, s.job) for s in ff_before
        ] == [
            (s.start, s.end, s.entity, s.job) for s in off_before
        ]

    def test_skipped_gap_is_clean(self):
        """The fast-forwarded span contains no records: checked by the
        cycle-consistency monitor over the real trace."""
        rng = PortableRandom(19)
        specs = dyadic_specs(rng, 4, budget=0.7)
        sim = build_uni(specs, FixedPriorityPolicy, "fastforward")
        trace = sim.run(until=16.0 * 50)
        assert sim._cycle_report.fast_forwarded
        monitor = CycleConsistencyMonitor()
        monitor.bind(monitor.report, trace)
        for index, event in enumerate(trace.events):
            monitor.on_event(index, event)
        monitor.finish(sim.now)
        assert not monitor.report.violations

    def test_report_accounting(self):
        sim = build_uni(
            [PeriodicTaskSpec(name="t", cost=1.0, period=4.0, priority=5)],
            FixedPriorityPolicy, "fastforward",
        )
        sim.run(until=400.0)
        report = sim._cycle_report
        assert report.fast_forwarded
        assert report.hyperperiod == 4.0
        assert report.skipped_time == report.windows_skipped * \
            report.cycle_period
        assert sim.now == 400.0
        summary = periodic_summary(sim)
        # one release per period over the whole horizon, exactly
        assert summary.released == {"t": 100}
        assert summary.completed == {"t": 100}
        assert summary.busy == {"t": 100.0}

    def test_non_representable_periods_never_drift(self):
        """Periods off the dyadic grid: the skip either commits exactly
        or stands down with the float-representation rail — metrics
        match the full run either way."""
        specs = [
            PeriodicTaskSpec(name="a", cost=0.05, period=0.2, priority=5),
            PeriodicTaskSpec(name="b", cost=0.1, period=0.4, priority=3),
        ]

        def make_sim(cycle):
            return build_uni(specs, FixedPriorityPolicy, cycle)

        outcome = cross_check(make_sim, until=40.0)
        assert outcome.matched, outcome.mismatches
        if not outcome.fast_forwarded:
            assert STAND_DOWNS["float-representation"] > 0


# -- the stand-down rails ----------------------------------------------------


def _ineligible_reason(sim, until=64.0):
    """Run ``sim`` and return (report, tally delta for its reason)."""
    report_before = dict(STAND_DOWNS)
    sim.run(until=until)
    report = sim._cycle_report
    assert report is not None and report.status == "ineligible"
    delta = STAND_DOWNS[report.reason] - report_before.get(report.reason, 0)
    return report, delta


class TestStandDowns:

    PERIODIC = PeriodicTaskSpec(name="p", cost=1.0, period=4.0, priority=3)

    def test_no_periodic_tasks(self):
        sim = Simulation(FixedPriorityPolicy(), cycle="fastforward")
        report, delta = _ineligible_reason(sim, until=4.0)
        assert report.reason == "no-periodic-tasks" and delta == 1

    def test_aperiodic_jobs(self):
        from repro.sim.servers.polling import IdealPollingServer
        from repro.sim.task import AperiodicJob

        sim = Simulation(FixedPriorityPolicy(), cycle="fastforward")
        sim.add_periodic_task(self.PERIODIC)
        server = IdealPollingServer(
            ServerSpec(capacity=1.0, period=4.0, priority=9), name="PS"
        )
        server.attach(sim, horizon=64.0)
        sim.submit_aperiodic(
            AperiodicJob("h1", release=1.0, cost=0.5), server.submit
        )
        report, delta = _ineligible_reason(sim)
        assert report.reason == "aperiodic-jobs" and delta == 1

    def test_externally_scheduled_events(self):
        sim = Simulation(FixedPriorityPolicy(), cycle="fastforward")
        sim.add_periodic_task(self.PERIODIC)
        sim.schedule_at(1.0, lambda now: None)
        report, delta = _ineligible_reason(sim)
        assert report.reason == "external-events" and delta == 1

    def test_enforcement(self):
        from repro.faults import EnforcementConfig

        sim = Simulation(
            FixedPriorityPolicy(), cycle="fastforward",
            enforcement=EnforcementConfig(policy="log-and-continue"),
        )
        sim.add_periodic_task(self.PERIODIC)
        report, delta = _ineligible_reason(sim)
        assert report.reason == "enforcement" and delta == 1

    def test_monitors(self):
        from repro.verify.invariants import MonotoneClockMonitor

        sim = Simulation(
            FixedPriorityPolicy(), cycle="fastforward",
            monitors=[MonotoneClockMonitor()],
        )
        sim.add_periodic_task(self.PERIODIC)
        report, delta = _ineligible_reason(sim)
        assert report.reason == "monitors" and delta == 1

    def test_patched_release_hook(self, monkeypatch):
        from repro.sim.engine import PeriodicTaskEntity

        original = PeriodicTaskEntity.release
        monkeypatch.setattr(
            PeriodicTaskEntity, "release",
            lambda self, now, job, sim: original(self, now, job, sim),
        )
        sim = build_uni([self.PERIODIC], FixedPriorityPolicy, "fastforward")
        report, delta = _ineligible_reason(sim)
        assert report.reason == "patched-hook" and delta == 1

    def test_patched_policy(self, monkeypatch):
        original = FixedPriorityPolicy.select
        monkeypatch.setattr(
            FixedPriorityPolicy, "select",
            lambda self, now, ready: original(self, now, ready),
        )
        sim = build_uni([self.PERIODIC], FixedPriorityPolicy, "fastforward")
        report, delta = _ineligible_reason(sim)
        assert report.reason == "patched-policy" and delta == 1

    def test_non_memoryless_policy(self):
        class BiasedPolicy(FixedPriorityPolicy):
            pass

        sim = Simulation(BiasedPolicy(), cycle="fastforward")
        sim.add_periodic_task(self.PERIODIC)
        report, delta = _ineligible_reason(sim)
        assert report.reason == "non-memoryless-policy" and delta == 1

    def test_reference_kernel_fastforward_only(self):
        sim = build_uni(
            [self.PERIODIC], FixedPriorityPolicy, "fastforward",
            kernel="reference",
        )
        report, delta = _ineligible_reason(sim)
        assert report.reason == "reference-kernel" and delta == 1

    def test_horizon_shorter_than_hyperperiod(self):
        # two boundaries (base and base + hyperperiod) must fit before
        # the horizon for anything to compare: until 3.5 < hyperperiod 4
        sim = build_uni([self.PERIODIC], FixedPriorityPolicy, "fastforward")
        report, delta = _ineligible_reason(sim, until=3.5)
        assert report.reason == "horizon-shorter-than-hyperperiod"
        assert delta == 1

    def test_stand_down_logs_only_for_fastforward(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.cycle"):
            sim = Simulation(FixedPriorityPolicy(), cycle="detect")
            sim.run(until=4.0)
            assert not caplog.records
            sim = Simulation(FixedPriorityPolicy(), cycle="fastforward")
            sim.run(until=4.0)
        assert any(
            "no-periodic-tasks" in record.message
            for record in caplog.records
        )


# -- the consistency monitor on synthetic traces -----------------------------


class TestCycleConsistencyMonitor:

    def _sweep(self, trace, horizon=40.0):
        monitor = CycleConsistencyMonitor()
        monitor.bind(monitor.report, trace)
        for index, event in enumerate(trace.events):
            monitor.on_event(index, event)
        monitor.finish(horizon)
        return [v.kind for v in monitor.report.violations]

    def test_flags_record_inside_the_gap(self):
        trace = ExecutionTrace()
        trace.add_event(
            10.0, TraceEventKind.CYCLE, "kernel",
            "start=6 period=4 windows=3",
        )
        trace.add_segment(15.0, 16.0, "ghost", "ghost#0")
        trace.add_event(14.0, TraceEventKind.RELEASE, "ghost#0")
        kinds = self._sweep(trace)
        assert "segment-in-gap" in kinds
        assert "event-in-gap" in kinds

    def test_flags_multiple_markers(self):
        trace = ExecutionTrace()
        for time in (8.0, 16.0):
            trace.add_event(
                time, TraceEventKind.CYCLE, "kernel",
                "start=4 period=4 windows=0",
            )
        assert "multiple-cycle-markers" in self._sweep(trace)

    def test_flags_malformed_detail(self):
        trace = ExecutionTrace()
        trace.add_event(8.0, TraceEventKind.CYCLE, "kernel", "start=4")
        assert "malformed-cycle-marker" in self._sweep(trace)

    def test_detect_only_marker_allows_full_trace(self):
        trace = ExecutionTrace()
        trace.add_event(
            8.0, TraceEventKind.CYCLE, "kernel",
            "start=4 period=4 windows=0",
        )
        trace.add_segment(10.0, 11.0, "t", "t#2")
        assert self._sweep(trace) == []

    def test_parse_cycle_detail(self):
        info = parse_cycle_detail("start=6.5 period=4 windows=12")
        assert info == {"start": 6.5, "period": 4.0, "windows": 12}
        assert isinstance(info["windows"], int)
