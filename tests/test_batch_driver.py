"""The sharded batch driver for population-scale batched campaigns."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.batch.driver as driver_module
from repro.batch import (
    BatchUnsupported,
    BatchVerificationError,
    run_batched_campaign,
)
from repro.batch.driver import BatchShardRecord
from repro.experiments.campaign import PAPER_SETS, run_campaign

SMALL_SETS = tuple(
    dataclasses.replace(s, nb_generation=4) for s in PAPER_SETS[:3]
)
SIM_ARMS = ("ps_sim", "ds_sim")


def _cells(tables):
    return {
        arm: {key: (m.aart, m.air, m.asr) for key, m in table.items()}
        for arm, table in tables.items()
    }


def _runs(tables):
    return {
        arm: {
            key: tuple(tuple(r.response_times) for r in m.runs)
            for key, m in table.items()
        }
        for arm, table in tables.items()
    }


class TestDriver:
    def test_matches_run_campaign_bit_identically(self):
        reference = run_campaign(sets=SMALL_SETS, arms=SIM_ARMS)
        batched = run_batched_campaign(sets=SMALL_SETS, shard_size=3)
        assert _cells(batched.tables) == _cells(reference.tables)
        assert _runs(batched.tables) == _runs(reference.tables)
        assert batched.systems == sum(s.nb_generation for s in SMALL_SETS)
        assert batched.fallbacks == 0
        # >= 5% of every shard differentially verified (here: >= 1 per
        # shard, 2 shards of <= 3 systems per 4-system set)
        assert batched.verified >= len(batched.shards)

    def test_workers_bit_identical_to_sequential(self):
        seq = run_batched_campaign(sets=SMALL_SETS, shard_size=2, workers=1)
        par = run_batched_campaign(sets=SMALL_SETS, shard_size=2, workers=3)
        assert _runs(par.tables) == _runs(seq.tables)

    def test_keep_runs_false_streams_identical_cells(self):
        kept = run_batched_campaign(sets=SMALL_SETS, shard_size=3)
        streamed = run_batched_campaign(
            sets=SMALL_SETS, shard_size=3, keep_runs=False
        )
        assert _cells(streamed.tables) == _cells(kept.tables)
        for table in streamed.tables.values():
            for metrics in table.values():
                assert metrics.runs == ()
        for record in streamed.shards:
            assert record.metrics == {}

    def test_checkpoint_kill_and_resume(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        golden = run_batched_campaign(
            sets=SMALL_SETS, shard_size=2, checkpoint_path=path
        )
        lines = path.read_text().splitlines(True)
        assert len(lines) == len(golden.shards)
        # simulate a mid-write kill: drop the last full record and leave
        # a half-written line behind
        path.write_text(
            "".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2]
        )
        resumed = run_batched_campaign(
            sets=SMALL_SETS, shard_size=2, checkpoint_path=path
        )
        assert resumed.resumed == len(lines) - 2
        assert _runs(resumed.tables) == _runs(golden.tables)
        # a third sweep resumes every shard and re-runs nothing
        n_lines = len(path.read_text().splitlines())
        third = run_batched_campaign(
            sets=SMALL_SETS, shard_size=2, checkpoint_path=path
        )
        assert third.resumed == len(third.shards)
        assert len(path.read_text().splitlines()) == n_lines

    def test_shard_record_round_trips(self):
        result = run_batched_campaign(sets=SMALL_SETS[:1], shard_size=2)
        record = result.shards[0]
        restored = BatchShardRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert restored.metrics == record.metrics
        assert restored.to_dict() == record.to_dict()

    def test_differential_mismatch_raises(self, monkeypatch):
        from repro.verify import differential

        real = differential.batch_differential_check

        def poisoned(system, policy, metrics):
            if system.system_id == 0 and policy == "polling":
                return [f"system={system.system_id}: seeded mismatch"]
            return real(system, policy, metrics)

        monkeypatch.setattr(
            differential, "batch_differential_check", poisoned
        )
        with pytest.raises(BatchVerificationError, match="seeded mismatch"):
            run_batched_campaign(
                sets=SMALL_SETS[:1], shard_size=2, verify_fraction=1.0
            )

    def test_fallback_counted_and_still_exact(self, monkeypatch):
        golden = run_batched_campaign(sets=SMALL_SETS[:1], shard_size=4)
        real = driver_module.ensure_batchable

        def picky(system, policy, **kwargs):
            if system.system_id % 2 == 0:
                raise BatchUnsupported("seeded rejection")
            return real(system, policy, **kwargs)

        monkeypatch.setattr(driver_module, "ensure_batchable", picky)
        result = run_batched_campaign(sets=SMALL_SETS[:1], shard_size=4)
        assert result.fallbacks == 2
        # the fallback path is the reference kernel, so the tables are
        # still bit-identical
        assert _runs(result.tables) == _runs(golden.tables)

    def test_force_mode_raises_on_unbatchable(self, monkeypatch):
        def reject(system, policy, **kwargs):
            raise BatchUnsupported("seeded rejection")

        monkeypatch.setattr(driver_module, "ensure_batchable", reject)
        with pytest.raises(BatchUnsupported, match="seeded rejection"):
            run_batched_campaign(
                sets=SMALL_SETS[:1], shard_size=4, mode="force"
            )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_batched_campaign(sets=SMALL_SETS[:1], mode="maybe")
        with pytest.raises(ValueError, match="shard_size"):
            run_batched_campaign(sets=SMALL_SETS[:1], shard_size=0)
        with pytest.raises(ValueError, match="verify_fraction"):
            run_batched_campaign(sets=SMALL_SETS[:1], verify_fraction=1.5)
        with pytest.raises(BatchUnsupported, match="ps_exec"):
            run_batched_campaign(
                sets=SMALL_SETS[:1], arms=("ps_exec",)
            )
        with pytest.raises(KeyError, match="unknown arm"):
            run_batched_campaign(sets=SMALL_SETS[:1]).table("nope")
