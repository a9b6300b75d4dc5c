"""The held-handle durable log and the gateway's two commit barriers.

``CheckpointLog.append`` hands each record to the OS (a process crash
loses nothing); ``commit`` fsyncs (a power loss loses nothing
committed).  The power-loss drill models a power cut as each log
independently losing any whole-record suffix past its last commit, and
checks the durability contract of ``docs/deployment.md``: every acked
``ADMIT`` is admitted exactly once across the crash, every acked
rejection comes back unchanged, and the journal stays a write-ahead log
of the checkpoint."""

from __future__ import annotations

import asyncio
import builtins
import dataclasses
import io
import json
import os
import pathlib
import warnings

import pytest

from repro.batch import driver as batch_driver
from repro.batch import run_batched_campaign
from repro.durable import CheckpointLog
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import RunPolicy, run_campaign
from repro.gateway import (
    AdmissionGateway,
    GatewayConfig,
    parse_ticket,
    read_frame,
    submit_payload,
    write_frame,
)
from repro.gateway.soak import default_gateway_service_config
from repro.service import (
    AdmissionService,
    Decision,
    EventRequest,
    VirtualClock,
)
from repro.workload import PAPER_SETS

SERVICE_CONFIG = default_gateway_service_config()


def _admit(rid: str) -> EventRequest:
    return EventRequest(rid, cost=0.2, relative_deadline=20.0)


def _reject(rid: str) -> EventRequest:
    # more than the server's whole capacity: a terminal REJECT_DEADLINE
    return EventRequest(rid, cost=5.0, relative_deadline=20.0)


def _paths(directory) -> dict:
    return dict(journal_path=directory / "journal.jsonl",
                checkpoint_path=directory / "checkpoint.jsonl")


def _gateway_config(directory) -> GatewayConfig:
    return GatewayConfig(unix_path=str(directory / "gw.sock"))


async def _submit(reader, writer, request):
    await write_frame(writer, submit_payload(request))
    return parse_ticket(await read_frame(reader))


def _fsync_counter(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def _ops(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line]


def _record_ends(data: bytes, committed: int) -> list[int]:
    """Every cut a power loss can leave: the committed prefix plus any
    number of the whole records appended after it."""
    cuts = [committed]
    end = committed
    while end < len(data):
        end = data.index(b"\n", end) + 1
        cuts.append(end)
    return cuts


class TestCheckpointLog:
    def test_torn_tail_is_repaired_once_at_open(self, tmp_path):
        path = tmp_path / "log.jsonl"
        seed = CheckpointLog(path)
        seed.append({"op": "a"})
        seed.close()
        torn = b'{"op": "b", "t": 1'
        with open(path, "ab") as handle:
            handle.write(torn)
        before = path.read_bytes()

        log = CheckpointLog(path)
        log.append({"op": "c"})
        log.append({"op": "d"})
        log.close()
        data = path.read_bytes()
        # one newline isolates the torn record; nothing else is touched
        assert data.startswith(before + b"\n")
        assert data.count(torn) == 1
        assert len(data.splitlines()) == 4
        with pytest.warns(UserWarning, match="torn/corrupt"):
            ops = CheckpointLog(path).load()
        assert [op["op"] for op in ops] == ["a", "c", "d"]

    def test_no_file_is_opened_per_append(self, tmp_path, monkeypatch):
        log = CheckpointLog(tmp_path / "log.jsonl")
        log.append({"op": "first"})
        opened: list[object] = []

        def counting(real):
            def wrapper(*args, **kwargs):
                opened.append(args[0] if args else kwargs)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(io, "open", counting(io.open))
        monkeypatch.setattr(os, "open", counting(os.open))
        monkeypatch.setattr(pathlib.Path, "open",
                            counting(pathlib.Path.open))
        for i in range(50):
            log.append({"op": "more", "i": i})
            log.commit()
        monkeypatch.undo()
        log.close()
        assert opened == []
        assert len(CheckpointLog(log.path).load()) == 51

    def test_commit_fsyncs_only_new_records(self, tmp_path, monkeypatch):
        fsyncs = _fsync_counter(monkeypatch)
        log = CheckpointLog(tmp_path / "log.jsonl")
        log.commit()                     # never opened: nothing to sync
        assert fsyncs == []
        log.append({"op": "a"})
        assert log.committed_offset == 0
        log.commit()
        assert len(fsyncs) == 1
        assert log.committed_offset == log.path.stat().st_size
        log.commit()                     # clean: no second fsync
        assert len(fsyncs) == 1
        log.append({"op": "b"})
        log.append({"op": "c"})
        log.commit()                     # one fsync covers both records
        assert len(fsyncs) == 2
        log.close()
        # reopening adopts the file's size as its durable prefix
        again = CheckpointLog(log.path)
        again.append({"op": "d"})
        assert again.committed_offset == log.committed_offset
        again.close()

    def test_reopen_fsyncs_inherited_bytes_once(self, tmp_path,
                                                 monkeypatch):
        fsyncs = _fsync_counter(monkeypatch)
        path = tmp_path / "log.jsonl"
        fresh = CheckpointLog(path)
        fresh.append({"op": "a"})        # a new file inherits nothing
        fresh.close()
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        log = CheckpointLog(empty)
        log.append({"op": "a"})          # nor does an empty one
        log.close()
        assert fsyncs == []

        inherited = path.stat().st_size
        again = CheckpointLog(path)
        again.append({"op": "b"})
        again.append({"op": "c"})
        assert len(fsyncs) == 1          # once at open, not per append
        assert again.committed_offset == inherited
        again.commit()
        assert len(fsyncs) == 2
        again.close()

        # a torn tail: the repair newline is covered by the same fsync
        with open(path, "ab") as handle:
            handle.write(b'{"op": "d"')
        inherited = path.stat().st_size
        torn = CheckpointLog(path)
        torn.append({"op": "e"})
        assert len(fsyncs) == 3
        assert torn.committed_offset == inherited + 1
        torn.close()

    def test_appended_records_reach_the_os_without_commit(self, tmp_path):
        log = CheckpointLog(tmp_path / "log.jsonl")
        log.append({"op": "a", "t": 1.5})
        # a process crash right here loses nothing: a reader sees it
        assert CheckpointLog(log.path).load() == [{"op": "a", "t": 1.5}]
        log.close()


class TestSweepCheckpoints:
    SETS = (dataclasses.replace(PAPER_SETS[0], nb_generation=2),)

    def test_no_checkpoint_path_creates_no_log(self, monkeypatch):
        def refuse(path):
            raise AssertionError(f"log object created for {path!r}")

        monkeypatch.setattr(campaign_module, "CheckpointLog", refuse)
        monkeypatch.setattr(batch_driver, "CheckpointLog", refuse)
        run_campaign(sets=self.SETS, arms=("ps_sim",))
        run_campaign(sets=self.SETS, arms=("ps_sim",),
                     run_policy=RunPolicy())
        run_batched_campaign(sets=self.SETS, shard_size=1)

    def test_each_run_is_crcd_and_committed_alone(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "runs.jsonl"
        fsyncs = _fsync_counter(monkeypatch)
        result = run_campaign(sets=self.SETS, arms=("ps_sim", "ds_sim"),
                              run_policy=RunPolicy(checkpoint_path=path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(result.records) == len(fsyncs) == 4
        assert all(isinstance(record["crc"], int) for record in records)
        # checkpoints written before the CRC discipline still resume
        for record in records:
            record.pop("crc")
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        run_campaign(sets=self.SETS, arms=("ps_sim", "ds_sim"),
                     run_policy=RunPolicy(checkpoint_path=path))
        assert len(path.read_text().splitlines()) == 4   # nothing re-ran


class TestFsyncCount:
    def test_two_fsyncs_per_gateway_request(self, tmp_path, monkeypatch):
        async def scenario():
            gateway = await AdmissionGateway(
                _gateway_config(tmp_path), SERVICE_CONFIG,
                **_paths(tmp_path),
            ).start()
            reader, writer = await asyncio.open_unix_connection(
                gateway.address
            )
            fsyncs = _fsync_counter(monkeypatch)
            counts = []
            for request in (_admit("a-0"), _reject("r-0"), _admit("a-1"),
                            _reject("r-1")):
                before = len(fsyncs)
                ticket = await _submit(reader, writer, request)
                counts.append((ticket.decision, len(fsyncs) - before))
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()
            return counts

        counts = asyncio.run(scenario())
        assert counts == [
            (Decision.ADMIT, 2), (Decision.REJECT_DEADLINE, 2),
            (Decision.ADMIT, 2), (Decision.REJECT_DEADLINE, 2),
        ]

    def test_standalone_admit_is_durable_before_its_ticket(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "service.jsonl"

        async def scenario():
            service = AdmissionService(SERVICE_CONFIG, clock=VirtualClock(),
                                       checkpoint_path=path)
            await service.start()
            fsyncs = _fsync_counter(monkeypatch)
            admitted = await service.submit(_admit("a-0"))
            assert admitted.admitted and len(fsyncs) == 1
            assert service.log.committed_offset == path.stat().st_size
            rejected = await service.submit(_reject("r-0"))
            assert not rejected.admitted and len(fsyncs) == 1
            await service.drain()

        asyncio.run(scenario())


def _open_fds_on(paths) -> list[str]:
    targets = {str(p.resolve()) for p in paths}
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target in targets:
            found.append(target)
    return found


class TestHandleLifetime:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_kill_restore_drills_leave_no_open_handle(self, tmp_path):
        paths = _paths(tmp_path)
        config = _gateway_config(tmp_path)

        async def scenario():
            gateway = await AdmissionGateway(
                config, SERVICE_CONFIG, **paths
            ).start()
            for round_ in range(4):
                reader, writer = await asyncio.open_unix_connection(
                    gateway.address
                )
                ticket = await _submit(reader, writer,
                                       _admit(f"a-{round_}"))
                assert ticket.admitted
                assert _open_fds_on(paths.values())
                gateway.kill()
                writer.close()
                assert _open_fds_on(paths.values()) == []
                gateway = await AdmissionGateway.restore(
                    config, SERVICE_CONFIG, predecessor=gateway, **paths
                )
            gateway.request_shutdown()
            await gateway.terminated.wait()
            assert _open_fds_on(paths.values()) == []

        asyncio.run(scenario())


class TestRestoreDedup:
    def test_retired_admit_is_never_admitted_again(self, tmp_path):
        """Power loss can keep a ``complete`` whose ``decided`` it
        dropped: the restored service must still know the id."""
        path = tmp_path / "service.jsonl"

        async def scenario():
            clock = VirtualClock()
            service = AdmissionService(SERVICE_CONFIG, clock=clock,
                                       checkpoint_path=path)
            await service.start()
            assert (await service.submit(_admit("a-0"))).admitted
            await clock.advance(10.0)
            assert service.planner.backlog == 0      # retired
            service.kill()
            restored = await AdmissionService.restore(path)
            again = await restored.submit(_admit("a-0"))
            assert again.admitted and again.duplicate
            await restored.drain()

        asyncio.run(scenario())
        admits = [op for op in CheckpointLog(path).load()
                  if op["op"] == "admit"]
        assert len(admits) == 1


class TestPowerLossDrill:
    SCRIPT = ("a-0", "r-0", "a-1", "a-2", "r-1", "a-3")

    def test_every_truncation_keeps_the_contract(self, tmp_path):
        requests = [_admit(rid) if rid.startswith("a") else _reject(rid)
                    for rid in self.SCRIPT]
        live = tmp_path / "live"
        live.mkdir()
        snapshots = asyncio.run(self._record_session(live, requests))
        assert [t.decision for t in snapshots[-1][2]] == [
            Decision.ADMIT if rid.startswith("a")
            else Decision.REJECT_DEADLINE for rid in self.SCRIPT
        ]
        pairs = 0
        hole_seen = False
        for k, (journal, checkpoint, acked) in enumerate(snapshots):
            for j_cut in _record_ends(*journal):
                for c_cut in _record_ends(*checkpoint):
                    case = tmp_path / f"s{k}-{j_cut}-{c_cut}"
                    case.mkdir()
                    paths = _paths(case)
                    paths["journal_path"].write_bytes(journal[0][:j_cut])
                    paths["checkpoint_path"].write_bytes(
                        checkpoint[0][:c_cut]
                    )
                    hole_seen |= self._is_hole(paths, acked)
                    asyncio.run(self._restore_and_check(
                        case, requests[:len(acked)], acked
                    ))
                    pairs += 1
        assert pairs > len(snapshots)
        # the drill exercised the case the restore dedup exists for
        assert hole_seen

    async def _record_session(self, directory, requests):
        gateway = await AdmissionGateway(
            _gateway_config(directory), SERVICE_CONFIG, **_paths(directory),
        ).start()
        reader, writer = await asyncio.open_unix_connection(gateway.address)
        snapshots = []
        acked = []
        for request in requests:
            acked.append(await _submit(reader, writer, request))
            # let the admitted work complete, so its ``complete`` record
            # sits uncommitted in the checkpoint beside the uncommitted
            # ``decided`` in the journal
            for _ in range(1000):
                if gateway.service.planner.backlog == 0:
                    break
                await asyncio.sleep(0.001)
            snapshots.append((
                (gateway.journal.path.read_bytes(),
                 gateway.journal.committed_offset),
                (gateway.service.log.path.read_bytes(),
                 gateway.service.log.committed_offset),
                list(acked),
            ))
        writer.close()
        gateway.kill()
        return snapshots

    @staticmethod
    def _is_hole(paths, acked) -> bool:
        journal = _ops(paths["journal_path"].read_bytes())
        checkpoint = _ops(paths["checkpoint_path"].read_bytes())
        decided = {op["id"] for op in journal if op["op"] == "decided"}
        completed = {op["id"] for op in checkpoint if op["op"] == "complete"}
        return any(t.request_id in completed - decided for t in acked)

    async def _restore_and_check(self, case, sent, acked):
        paths = _paths(case)
        truncated_journal = _ops(paths["journal_path"].read_bytes())
        truncated = _ops(paths["checkpoint_path"].read_bytes())
        # write-ahead: every durable admit has a durable ingest
        ingested = {op["request"]["request_id"] for op in truncated_journal
                    if op["op"] == "ingest"}
        for op in truncated:
            if op["op"] == "admit":
                assert op["request"]["request_id"] in ingested
        decided = {op["id"] for op in truncated_journal
                   if op["op"] == "decided"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # nothing torn
            gateway = await AdmissionGateway.restore(
                _gateway_config(case), SERVICE_CONFIG, **paths
            )
        reader, writer = await asyncio.open_unix_connection(gateway.address)
        retried = {}
        for request in sent:
            retried[request.request_id] = await _submit(reader, writer,
                                                        request)
        writer.close()
        gateway.kill()
        final = _ops(paths["checkpoint_path"].read_bytes())

        def admits(ops, rid):
            return sum(1 for op in ops if op["op"] == "admit"
                       and op["request"]["request_id"] == rid)

        for ticket in acked:
            rid = ticket.request_id
            again = retried[rid]
            if ticket.admitted:
                # durable before the ack, and never admitted again
                assert admits(truncated, rid) == 1, (case.name, rid)
                assert admits(final, rid) == 1, (case.name, rid)
                assert again.admitted, (case.name, rid)
            else:
                # durable before the ack, and answered from it on retry
                assert rid in decided, (case.name, rid)
                unchanged = {k: v for k, v in ticket.to_dict().items()
                             if k not in ("duplicate", "attempt")}
                assert {k: v for k, v in again.to_dict().items()
                        if k not in ("duplicate", "attempt")} == unchanged
