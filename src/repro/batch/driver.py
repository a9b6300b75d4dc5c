"""Sharded driver for population-scale batched campaigns.

``run_batched_campaign`` turns the batched kernel into a 10^4–10^5-system
sweep machine:

* systems are generated *per shard* inside the worker
  (:meth:`RandomSystemGenerator.generate_slice` replays the master-seed
  fan-out bit-identically), so neither the parent nor any worker ever
  materialises the whole population;
* shards fan out over the existing campaign multiprocessing executor
  (:func:`repro.experiments.campaign._parallel_map`) and fold back in
  deterministic shard order, so tables are bit-identical to a
  one-worker sweep;
* the parent appends one CRC'd JSONL record per finished shard to a
  :class:`~repro.durable.CheckpointLog` and commits (fsyncs) it; an
  interrupted sweep resumes from the checkpoint, skipping completed
  shards — a torn final line (a mid-write kill) is skipped and that
  shard simply re-runs;
* every shard cross-validates a seeded sample of its systems (at least
  ``verify_fraction`` of the shard, default 5%) against the per-system
  reference kernel via
  :func:`repro.verify.batch_differential_check` — *exact* equality, the
  reference stays the oracle;
* systems outside the batch envelope fall back to the reference path
  per system, counted and logged, never silently (``mode="force"``
  raises instead).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..durable import CheckpointLog
from ..sim.metrics import RunMetrics, SetMetrics, aggregate
from ..workload.generator import PAPER_SETS, RandomSystemGenerator
from ..workload.rng import PortableRandom
from ..workload.spec import GenerationParameters
from .kernel import simulate_batch
from .soa import BatchTables, BatchUnsupported, ensure_batchable

__all__ = [
    "BATCH_ARMS",
    "BatchCampaignResult",
    "BatchShardRecord",
    "BatchVerificationError",
    "run_batched_campaign",
]

logger = logging.getLogger("repro.batch")

#: the arms the batched kernel can serve (the campaign's sim arms)
BATCH_ARMS = ("ps_sim", "ds_sim")
_ARM_POLICY = {"ps_sim": "polling", "ds_sim": "deferrable"}


class BatchVerificationError(RuntimeError):
    """The seeded differential sample found batch/reference mismatches.

    This is a *stop-the-line* error: the batched kernel promises
    bit-identical metrics, so any mismatch means the batch (or the
    reference) kernel is wrong and every result of the sweep is suspect.
    """


def _metrics_to_dict(m: RunMetrics) -> dict:
    return {
        "released": m.released,
        "served": m.served,
        "interrupted": m.interrupted,
        "average_response_time": m.average_response_time,
        "response_times": list(m.response_times),
    }


def _metrics_from_dict(d: dict) -> RunMetrics:
    return RunMetrics(
        released=d["released"],
        served=d["served"],
        interrupted=d["interrupted"],
        average_response_time=d["average_response_time"],
        response_times=tuple(d["response_times"]),
    )


@dataclass
class BatchShardRecord:
    """Outcome of one shard: per-system metrics plus audit counters."""

    set_key: tuple[float, float]
    shard: int
    start: int
    count: int
    status: str  # "ok" (computed this run) | "resumed" (from checkpoint)
    fallbacks: int = 0
    verified: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: arm -> per-system metrics, in system order (may be dropped after
    #: aggregation when ``keep_runs=False``)
    metrics: dict[str, list[RunMetrics]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "set_key": list(self.set_key),
            "shard": self.shard,
            "start": self.start,
            "count": self.count,
            "status": self.status,
            "fallbacks": self.fallbacks,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "metrics": {
                arm: [_metrics_to_dict(m) for m in runs]
                for arm, runs in self.metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchShardRecord":
        return cls(
            set_key=tuple(data["set_key"]),
            shard=data["shard"],
            start=data["start"],
            count=data["count"],
            status=data["status"],
            fallbacks=data.get("fallbacks", 0),
            verified=data.get("verified", 0),
            mismatches=list(data.get("mismatches", ())),
            metrics={
                arm: [_metrics_from_dict(m) for m in runs]
                for arm, runs in data.get("metrics", {}).items()
            },
        )


@dataclass
class BatchCampaignResult:
    """Aggregated sweep: per-arm tables + shard audit trail.

    ``tables`` has the same shape as
    :class:`repro.experiments.campaign.CampaignResult.tables` —
    ``tables[arm][(density, std)] -> SetMetrics`` — and is bit-identical
    to running :func:`run_campaign` over the same sets' sim arms.  With
    ``keep_runs=False`` the per-run tuples are dropped (``runs=()``)
    and the AART/AIR/ASR means are accumulated streaming, in the same
    left-to-right order Python's ``sum`` folds them, so the three table
    cells stay bit-identical while memory stays bounded.
    """

    tables: dict[str, dict[tuple[float, float], SetMetrics]] = field(
        default_factory=dict
    )
    shards: list[BatchShardRecord] = field(default_factory=list)
    systems: int = 0
    fallbacks: int = 0
    verified: int = 0
    resumed: int = 0
    elapsed_s: float = 0.0

    @property
    def runs_per_sec(self) -> float:
        """(arm, system) runs completed per wall-clock second."""
        runs = sum(len(table) and self.systems for table in self.tables.values())
        return runs / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def systems_per_sec(self) -> float:
        """Distinct systems swept per wall-clock second."""
        return self.systems / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def table(self, arm: str) -> dict[tuple[float, float], SetMetrics]:
        if arm not in self.tables:
            raise KeyError(f"unknown arm {arm!r}; have {sorted(self.tables)}")
        return self.tables[arm]


def _batch_shard_worker(task: tuple) -> dict:
    """Pool entry point: simulate one shard, verify its seeded sample."""
    (params, arms, shard, start, count, verify_fraction, sample_seed,
     mode) = task
    from ..experiments.campaign import simulate_system
    from ..verify.differential import batch_differential_check

    generator = RandomSystemGenerator(params)
    systems = generator.generate_slice(start, count)
    key = (params.task_density, params.std_deviation)

    supported: list[int] = []
    fallback: list[int] = []
    for i, system in enumerate(systems):
        try:
            ensure_batchable(system, _ARM_POLICY[arms[0]])
            supported.append(i)
        except BatchUnsupported:
            if mode == "force":
                raise
            fallback.append(i)

    metrics: dict[str, list[RunMetrics | None]] = {
        arm: [None] * count for arm in arms
    }
    if supported:
        tables = BatchTables.from_systems([systems[i] for i in supported])
        for arm in arms:
            batch = simulate_batch(tables, _ARM_POLICY[arm])
            for slot, i in enumerate(supported):
                metrics[arm][i] = batch.run_metrics(slot)
    for i in fallback:
        for arm in arms:
            metrics[arm][i] = simulate_system(
                systems[i], policy=_ARM_POLICY[arm]
            ).metrics

    # seeded differential sample: >= verify_fraction of the shard's
    # batch-served systems, re-run on the reference kernel and compared
    # exactly (the fallback systems already took the reference path)
    mismatches: list[str] = []
    verified = 0
    if verify_fraction > 0 and supported:
        k = min(
            len(supported),
            max(1, math.ceil(verify_fraction * count)),
        )
        rng = PortableRandom(sample_seed)
        pool = list(supported)
        for _ in range(k):
            i = pool.pop(rng.randint(0, len(pool) - 1))
            verified += 1
            for arm in arms:
                mismatches.extend(
                    batch_differential_check(
                        systems[i], _ARM_POLICY[arm], metrics[arm][i]
                    )
                )

    record = BatchShardRecord(
        set_key=key, shard=shard, start=start, count=count, status="ok",
        fallbacks=len(fallback), verified=verified, mismatches=mismatches,
        metrics={arm: list(runs) for arm, runs in metrics.items()},
    )
    return record.to_dict()


def run_batched_campaign(
    sets: tuple[GenerationParameters, ...] = PAPER_SETS,
    arms: tuple[str, ...] = BATCH_ARMS,
    shard_size: int = 512,
    workers: int = 1,
    checkpoint_path: Path | str | None = None,
    verify_fraction: float = 0.05,
    verify_seed: int = 20260809,
    mode: str = "auto",
    keep_runs: bool = True,
    progress: Callable[[BatchShardRecord], None] | None = None,
    cycle: str = "off",
) -> BatchCampaignResult:
    """Sweep every set through the batched kernel, shard by shard.

    Shards of ``shard_size`` systems fan out over ``workers`` processes;
    the parent checkpoints each finished shard to ``checkpoint_path``
    (JSONL) and aggregates streaming, so peak memory is one shard per
    worker regardless of population size.  Any differential-sample
    mismatch raises :class:`BatchVerificationError` after the sweep
    finishes (all mismatches are reported at once).  ``mode="auto"``
    routes unsupported systems through the per-system reference kernel
    (counted in ``fallbacks`` and logged); ``mode="force"`` raises
    :class:`BatchUnsupported` instead.  ``keep_runs=False`` drops the
    per-run metric tuples after aggregation (``SetMetrics.runs == ()``)
    to keep 10^5-system sweeps bounded.

    ``cycle`` is accepted for driver parity with
    :func:`~repro.experiments.campaign.run_campaign` but always stands
    down: every batched system carries a Poisson aperiodic stream, which
    makes hyperperiod fast-forwarding inapplicable.  Any value other
    than ``"off"`` is counted in :data:`repro.cycle.STAND_DOWNS` and
    (for ``"fastforward"``) logged, then the sweep proceeds unchanged.
    """
    from ..sim.engine import CYCLE_MODES

    if cycle not in CYCLE_MODES:
        raise ValueError(
            f"cycle must be one of {CYCLE_MODES}, got {cycle!r}"
        )
    if cycle != "off":
        from ..cycle.tracker import _stand_down

        _stand_down("batched-aperiodic-stream", cycle)
    if mode not in ("auto", "force"):
        raise ValueError(f"mode must be 'auto' or 'force', got {mode!r}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if not 0.0 <= verify_fraction <= 1.0:
        raise ValueError(
            f"verify_fraction must be in [0, 1], got {verify_fraction}"
        )
    for arm in arms:
        if arm not in _ARM_POLICY:
            raise BatchUnsupported(
                f"arm {arm!r} cannot be batched (batchable: "
                f"{', '.join(BATCH_ARMS)}); use run_campaign for "
                "execution arms"
            )
    log = (
        CheckpointLog(checkpoint_path) if checkpoint_path is not None
        else None
    )
    checkpointed: dict[tuple, BatchShardRecord] = {}
    for op in log.load() if log is not None else ():
        try:
            record = BatchShardRecord.from_dict(op)
        except (KeyError, TypeError, ValueError):
            continue  # not a shard record: that shard re-runs
        checkpointed[(record.set_key, record.shard)] = record

    # deterministic shard plan: set-major, ascending start index
    plan: list[tuple] = []
    shard_index = 0
    for params in sets:
        nb = params.nb_generation
        for shard, lo in enumerate(range(0, nb, shard_size)):
            count = min(shard_size, nb - lo)
            sample_seed = verify_seed + 1_000_003 * shard_index
            plan.append(
                (params, arms, shard, lo, count, verify_fraction,
                 sample_seed, mode)
            )
            shard_index += 1

    from ..experiments.campaign import _parallel_map

    t0 = time.monotonic()
    pending = [
        task for task in plan
        if ((task[0].task_density, task[0].std_deviation), task[2])
        not in checkpointed
    ]
    fresh = iter(_parallel_map(_batch_shard_worker, pending, workers))

    result = BatchCampaignResult(tables={arm: {} for arm in arms})
    # streaming accumulators: (set_key, arm) -> [n, sum_aart, sum_air,
    # sum_asr, runs-or-None] — sums fold left-to-right in system order,
    # the same order aggregate()'s Python sum() uses
    acc: dict[tuple, list] = {}
    set_order: list[tuple[float, float]] = []
    try:
        for task in plan:
            params, _, shard = task[0], task[1], task[2]
            key = (params.task_density, params.std_deviation)
            if key not in set_order:
                set_order.append(key)
            cached = checkpointed.get((key, shard))
            if cached is not None:
                record = cached
                record.status = "resumed"
                result.resumed += 1
            else:
                record = BatchShardRecord.from_dict(next(fresh))
                if log is not None:
                    log.append(record.to_dict())
                    log.commit()
            result.systems += record.count
            result.fallbacks += record.fallbacks
            result.verified += record.verified
            for arm in arms:
                runs = record.metrics.get(arm, ())
                slot = acc.setdefault(
                    (key, arm), [0, 0.0, 0.0, 0.0, [] if keep_runs else None]
                )
                for m in runs:
                    slot[0] += 1
                    slot[1] += m.average_response_time
                    slot[2] += m.interrupted_ratio
                    slot[3] += m.served_ratio
                    if slot[4] is not None:
                        slot[4].append(m)
            if not keep_runs:
                record.metrics = {}
            result.shards.append(record)
            if progress is not None:
                progress(record)
    finally:
        if log is not None:
            log.close()

    for key in set_order:
        for arm in arms:
            n, s_aart, s_air, s_asr, runs = acc.get(
                (key, arm), (0, 0.0, 0.0, 0.0, None)
            )
            if not n:
                continue
            if runs is not None:
                result.tables[arm][key] = aggregate(runs)
            else:
                result.tables[arm][key] = SetMetrics(
                    aart=s_aart / n, air=s_air / n, asr=s_asr / n, runs=()
                )
    result.elapsed_s = time.monotonic() - t0

    if result.fallbacks:
        logger.warning(
            "batched campaign fell back to the reference kernel for "
            "%d system(s) outside the batch envelope", result.fallbacks,
        )
    mismatches = [m for rec in result.shards for m in rec.mismatches]
    if mismatches:
        raise BatchVerificationError(
            f"{len(mismatches)} differential mismatch(es) between the "
            "batched and reference kernels:\n" + "\n".join(mismatches)
        )
    return result
