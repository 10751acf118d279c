"""Journal-layer tests: checksummed records, damage-tolerant replay,
snapshots and the campaign-grade fault hooks.

The two acceptance properties live here:

* truncating a journal at *any* byte boundary recovers a valid prefix
  of the history (torn-tail tolerance by construction), and
* corrupting any single record costs exactly that record, never the
  file.
"""

import json
import os
import warnings

import pytest

from repro.design.journal import (JOURNAL_NAME, SNAPSHOT_NAME, Journal,
                                  decode_record, load_snapshot, record_crc,
                                  replay_journal, write_snapshot)
from repro.harness.faults import FaultPlan


def _write_history(path, n=6, worker="w"):
    journal = Journal(path, worker=worker)
    for index in range(n):
        journal.append("done", cell=index, fingerprint=f"fp{index}",
                       cycles=100 + index, ipc=1.5)
    return journal


class TestRecords:
    def test_append_and_replay_round_trip(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        _write_history(path, n=4)
        replay = replay_journal(path)
        assert [r["cell"] for r in replay.records] == [0, 1, 2, 3]
        assert replay.corrupt_records == 0 and not replay.torn_tail
        for record in replay.records:
            assert record["worker"] == "w"
            assert record["crc"] == record_crc(record)

    def test_decode_rejects_wrong_checksum_and_junk(self):
        record = {"type": "done", "cell": 1, "t": 1.0}
        record["crc"] = record_crc(record)
        line = json.dumps(record).encode()
        assert decode_record(line) == record
        assert decode_record(line.replace(b'"cell": 1', b'"cell": 2')) is None
        assert decode_record(b"not json at all") is None
        assert decode_record(b'{"no": "type key"}') is None

    def test_missing_file_is_empty_history(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.records == [] and not replay.torn_tail

    def test_concurrent_appenders_interleave_whole_records(self, tmp_path):
        # Two handles on one file (two workers sharing a filesystem):
        # every record must survive intact, in *some* total order.
        path = tmp_path / JOURNAL_NAME
        a = Journal(path, worker="a")
        b = Journal(path, worker="b")
        for index in range(10):
            (a if index % 2 else b).append("claim", cell=index,
                                           nonce=f"n{index}", ttl=5.0)
        replay = replay_journal(path)
        assert replay.corrupt_records == 0
        assert sorted(r["cell"] for r in replay.records) == list(range(10))


class TestDamageTolerance:
    def test_truncation_at_any_byte_recovers_a_valid_prefix(self, tmp_path):
        # The acceptance property: for EVERY possible torn-write length,
        # replay yields an exact prefix of the full history and flags
        # (only) genuine tears.
        path = tmp_path / JOURNAL_NAME
        _write_history(path, n=5)
        data = path.read_bytes()
        full = replay_journal(path).records
        for cut in range(len(data) + 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(data[:cut])
            replay = replay_journal(torn)
            assert replay.records == full[:len(replay.records)]
            assert replay.corrupt_records == 0
            # A tear mid-record is flagged; clean boundaries are not.
            boundary = cut == 0 or data[:cut].endswith(b"\n")
            assert replay.torn_tail == (not boundary)

    def test_corrupting_any_single_record_costs_only_that_record(
            self, tmp_path):
        # Flip a byte inside each record in turn: replay must keep every
        # *other* record and count exactly one corruption.
        path = tmp_path / JOURNAL_NAME
        _write_history(path, n=5)
        lines = path.read_bytes().splitlines(keepends=True)
        for victim in range(len(lines)):
            mangled = tmp_path / "mangled.jsonl"
            scribbled = bytearray(lines[victim])
            scribbled[len(scribbled) // 2] ^= 0xFF
            mangled.write_bytes(b"".join(lines[:victim])
                                + bytes(scribbled)
                                + b"".join(lines[victim + 1:]))
            replay = replay_journal(mangled)
            cells = [r["cell"] for r in replay.records]
            assert cells == [i for i in range(5) if i != victim]
            assert replay.corrupt_records == 1

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        _write_history(path, n=2)
        path.write_bytes(path.read_bytes() + b"\n\n")
        replay = replay_journal(path)
        assert len(replay.records) == 2 and replay.corrupt_records == 0


class TestAppendDegradation:
    def test_fail_append_warns_once_and_keeps_records(self, tmp_path):
        plan = FaultPlan.parse("fail-append:0",
                               state_dir=str(tmp_path / "state"))
        journal = Journal(tmp_path / JOURNAL_NAME, worker="w", faults=plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for index in range(3):
                record, persisted = journal.append("done", cell=index,
                                                   fingerprint="fp")
                assert not persisted and record["cell"] == index
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1
        assert journal.append_errors == 3
        assert [r["cell"] for r in journal.unpersisted] == [0, 1, 2]
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_fail_append_from_ordinal_is_persistent(self, tmp_path):
        plan = FaultPlan.parse("fail-append:2",
                               state_dir=str(tmp_path / "state"))
        journal = Journal(tmp_path / JOURNAL_NAME, worker="w", faults=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcomes = [journal.append("done", cell=i)[1] for i in range(4)]
        assert outcomes == [True, True, False, False]
        assert len(replay_journal(tmp_path / JOURNAL_NAME).records) == 2

    def test_real_oserror_degrades_identically(self, tmp_path):
        journal = Journal(tmp_path / "no-such-dir" / JOURNAL_NAME,
                          worker="w")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record, persisted = journal.append("done", cell=0)
        assert not persisted and journal.append_errors == 1


class TestJournalFaultHooks:
    def test_torn_tail_fault_tears_the_addressed_record(self, tmp_path):
        plan = FaultPlan.parse("torn-tail:1",
                               state_dir=str(tmp_path / "state"))
        journal = Journal(tmp_path / JOURNAL_NAME, worker="w", faults=plan)
        journal.append("done", cell=0, fingerprint="fp0")
        journal.append("done", cell=1, fingerprint="fp1")
        replay = replay_journal(tmp_path / JOURNAL_NAME)
        assert replay.torn_tail
        assert [r["cell"] for r in replay.records] == [0]
        # "Once" semantics: a restarted worker replaying the same ordinal
        # does not tear again.
        journal2 = Journal(tmp_path / JOURNAL_NAME, worker="w", faults=plan)
        journal2.append("done", cell=1, fingerprint="fp1")
        journal2.append("done", cell=2, fingerprint="fp2")
        # The torn half-line has no newline, so the next append glues to
        # it: that merged line is corrupt, later records are intact —
        # exactly the damage replay is built to absorb.
        final = replay_journal(tmp_path / JOURNAL_NAME)
        assert [r["cell"] for r in final.records] == [0, 2]
        assert final.corrupt_records == 1

    def test_corrupt_journal_fault_is_caught_by_replay(self, tmp_path):
        plan = FaultPlan.parse("corrupt-journal:0",
                               state_dir=str(tmp_path / "state"))
        journal = Journal(tmp_path / JOURNAL_NAME, worker="w", faults=plan)
        journal.append("done", cell=0, fingerprint="fp0")
        journal.append("done", cell=1, fingerprint="fp1")
        replay = replay_journal(tmp_path / JOURNAL_NAME)
        assert replay.corrupt_records == 1
        assert [r["cell"] for r in replay.records] == [1]


class TestSnapshots:
    # Any JSON object: the store's folded state and covered prefix.
    STATE = {"covers": {"records": 2, "crc": "9f2c4e0011223344"},
             "jobs": [{"id": "d:0", "state": "done", "cycles": 100,
                       "ipc": 1.5},
                      {"id": "d:3", "state": "failed", "attempts": 2,
                       "error": "boom"}]}

    def test_round_trip(self, tmp_path):
        assert write_snapshot(tmp_path, "digest-a", self.STATE)
        assert load_snapshot(tmp_path, "digest-a") == self.STATE

    def test_wrong_digest_is_quarantined(self, tmp_path):
        write_snapshot(tmp_path, "digest-a", self.STATE)
        assert load_snapshot(tmp_path, "digest-b") == {}
        assert (tmp_path / (SNAPSHOT_NAME + ".corrupt")).exists()

    def test_corrupt_snapshot_is_quarantined_not_fatal(self, tmp_path):
        (tmp_path / SNAPSHOT_NAME).write_text("{never finished")
        assert load_snapshot(tmp_path, "digest-a") == {}
        assert (tmp_path / (SNAPSHOT_NAME + ".corrupt")).exists()

    def test_unwritable_directory_returns_false(self, tmp_path):
        if hasattr(os, "geteuid") and os.geteuid() == 0:
            pytest.skip("permissions are not enforced for root")
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            assert write_snapshot(target, "d", self.STATE) is False
        finally:
            os.chmod(target, 0o700)
