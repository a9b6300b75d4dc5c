"""Campaign hardening: per-run timeout, bounded retry, checkpointing.

A hardened sweep must *record* failures instead of raising: a crashed
or hung run becomes a :class:`RunRecord` with a status, the survivors
still aggregate into the paper's tables, and a checkpoint file lets an
interrupted campaign resume without redoing completed runs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    CampaignResult,
    RunPolicy,
    RunRecord,
    RunTimeout,
    run_campaign,
)
from repro.workload.generator import GenerationParameters

SMALL = (
    GenerationParameters(
        task_density=1.0,
        average_cost=3.0,
        std_deviation=0.0,
        server_capacity=4.0,
        server_period=6.0,
        nb_generation=2,
        seed=7,
    ),
)
N_ARMS = 4  # ps_sim, ps_exec, ds_sim, ds_exec


# ------------------------------------------------------------- RunPolicy


class TestRunPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RunPolicy(timeout_s=-1.0)
        with pytest.raises(ValueError):
            RunPolicy(max_retries=-1)
        RunPolicy()  # defaults are valid

    def test_record_round_trip(self):
        record = RunRecord(
            arm="ps_sim", set_key=(1.0, 0.5), system_id=3,
            status="timeout", attempts=2, error="wall clock exceeded",
        )
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.arm == record.arm
        assert clone.set_key == record.set_key
        assert clone.system_id == record.system_id
        assert clone.status == record.status
        assert clone.attempts == record.attempts
        assert clone.error == record.error
        assert clone.metrics is None


# --------------------------------------------------------- golden parity


class TestGoldenParity:
    """run_policy=RunPolicy() must not change any aggregated number."""

    def test_hardened_equals_plain(self):
        plain = run_campaign(sets=SMALL)
        hard = run_campaign(sets=SMALL, run_policy=RunPolicy())
        assert set(plain.tables) == set(hard.tables)
        for arm in plain.tables:
            for key, metrics in plain.tables[arm].items():
                other = hard.tables[arm][key]
                assert other.aart == metrics.aart
                assert other.air == metrics.air
                assert other.asr == metrics.asr
        assert len(hard.records) == SMALL[0].nb_generation * N_ARMS
        assert not hard.failures

    def test_plain_campaign_records_nothing(self):
        plain = run_campaign(sets=SMALL)
        assert plain.records == []
        assert plain.failures == []


# ------------------------------------------------------------- failures


class TestFailureRecording:
    def test_crash_becomes_record_not_exception(self, monkeypatch):
        real = campaign._run_arm

        def flaky(arm, system, overhead, enforcement, verify=False):
            if arm == "ps_exec" and system.system_id == 1:
                raise RuntimeError("boom")
            return real(arm, system, overhead, enforcement, verify)

        monkeypatch.setattr(campaign, "_run_arm", flaky)
        result = run_campaign(sets=SMALL, run_policy=RunPolicy())
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.status == "failed"
        assert failure.arm == "ps_exec"
        assert failure.system_id == 1
        assert "boom" in failure.error
        # the sweep still aggregated the surviving runs of that arm
        assert result.tables["ps_exec"]

    def test_all_runs_failing_leaves_arm_empty(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify=False):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        result = run_campaign(
            sets=SMALL, arms=("ps_sim",), run_policy=RunPolicy()
        )
        assert len(result.failures) == SMALL[0].nb_generation
        assert result.tables["ps_sim"] == {}

    def test_unhardened_campaign_still_raises(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify=False):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        with pytest.raises(RuntimeError):
            run_campaign(sets=SMALL, arms=("ps_sim",))


# ---------------------------------------------------------------- retry


class TestRetry:
    def test_retry_with_seed_bump_recovers(self, monkeypatch):
        real = campaign._run_arm
        calls = {"n": 0}

        def flaky_once(arm, system, overhead, enforcement, verify=False):
            if arm == "ps_sim" and system.system_id == 0 and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("first attempt dies")
            return real(arm, system, overhead, enforcement, verify)

        monkeypatch.setattr(campaign, "_run_arm", flaky_once)
        result = run_campaign(sets=SMALL, run_policy=RunPolicy(max_retries=2))
        record = next(
            r for r in result.records
            if r.arm == "ps_sim" and r.system_id == 0
        )
        assert record.status == "ok"
        assert record.attempts == 2
        assert not result.failures

    def test_retries_exhausted(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify=False):
            raise RuntimeError("always")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        result = run_campaign(
            sets=SMALL, arms=("ds_sim",), run_policy=RunPolicy(max_retries=2)
        )
        assert all(r.attempts == 3 for r in result.failures)


# -------------------------------------------------------------- timeout


class TestTimeout:
    def test_hung_run_times_out(self, monkeypatch):
        def hang(arm, system, overhead, enforcement, verify=False):
            time.sleep(10)

        monkeypatch.setattr(campaign, "_run_arm", hang)
        start = time.monotonic()
        result = run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(timeout_s=0.1),
        )
        assert time.monotonic() - start < 5
        assert result.records
        assert all(r.status == "timeout" for r in result.records)

    def test_time_limit_is_nested_safe(self):
        # no limit -> no signal machinery involved
        with campaign._time_limit(None):
            pass
        with pytest.raises(RunTimeout):
            with campaign._time_limit(0.05):
                time.sleep(1)
        # the timer is disarmed afterwards
        time.sleep(0.1)


# ----------------------------------------------------------- checkpoint


class TestCheckpoint:
    def test_resume_skips_completed_runs(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "runs.jsonl"
        first = run_campaign(
            sets=SMALL, run_policy=RunPolicy(checkpoint_path=ckpt)
        )
        assert ckpt.exists()
        assert len(ckpt.read_text().splitlines()) == len(first.records)

        def explode(arm, system, overhead, enforcement, verify=False):
            raise AssertionError("must resume from the checkpoint")

        monkeypatch.setattr(campaign, "_run_arm", explode)
        second = run_campaign(
            sets=SMALL, run_policy=RunPolicy(checkpoint_path=ckpt)
        )
        for arm in first.tables:
            for key, metrics in first.tables[arm].items():
                assert second.tables[arm][key].aart == metrics.aart

    def test_checkpoint_appends_only_new_runs(self, tmp_path):
        ckpt = tmp_path / "runs.jsonl"
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        lines_once = len(ckpt.read_text().splitlines())
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        assert len(ckpt.read_text().splitlines()) == lines_once

    def test_failed_runs_are_checkpointed_too(self, tmp_path, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify=False):
            raise RuntimeError("crash")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        ckpt = tmp_path / "runs.jsonl"
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        records = [
            RunRecord.from_dict(json.loads(line))
            for line in ckpt.read_text().splitlines()
        ]
        assert records
        assert all(r.status == "failed" for r in records)


# ------------------------------------------------------------ integration


class TestFaultedCampaign:
    """The acceptance scenario: overrun faults + enforcement + hardening."""

    def test_completes_with_records(self):
        from repro.faults import EnforcementConfig, FaultPlan, WcetOverrun

        result = run_campaign(
            sets=SMALL,
            fault_plan=FaultPlan(injectors=(WcetOverrun(factor=3.0),), seed=3),
            enforcement=EnforcementConfig("clip-to-budget"),
            run_policy=RunPolicy(max_retries=1),
        )
        assert isinstance(result, CampaignResult)
        assert len(result.records) == SMALL[0].nb_generation * N_ARMS
        assert not result.failures
        for arm in ("ps_sim", "ps_exec", "ds_sim", "ds_exec"):
            assert result.tables[arm], arm
