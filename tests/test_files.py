"""The store-file helpers every on-disk store writes through.

Failures are forced with monkeypatching, not with permissions, so the
tests hold when the suite runs as root.
"""

import os
from pathlib import Path

import pytest

from repro.harness.files import quarantine, sweep, write_atomic


def _names(directory):
    return sorted(path.name for path in directory.iterdir())


class TestWriteAtomic:
    def test_writes_text_and_bytes(self, tmp_path):
        write_atomic(tmp_path / "a.json", "{\"x\": \"é\"}")
        write_atomic(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "a.json").read_text(encoding="utf-8") \
            == "{\"x\": \"é\"}"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        assert _names(tmp_path) == ["a.json", "b.bin"]

    def test_creates_the_directory(self, tmp_path):
        write_atomic(tmp_path / "new" / "deeper" / "f.txt", "x")
        assert (tmp_path / "new" / "deeper" / "f.txt").read_text() == "x"

    def test_replace_failure_raises_and_leaves_the_old_file(
            self, tmp_path, monkeypatch):
        target = tmp_path / "entry.json"
        target.write_text("old")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space"):
            write_atomic(target, "new")
        assert target.read_text() == "old"
        assert _names(tmp_path) == ["entry.json"]

    def test_interrupt_mid_write_leaves_no_temp_file(self, tmp_path,
                                                     monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(tmp_path / "entry.json", "new")
        assert _names(tmp_path) == []

    def test_a_file_in_place_of_the_directory_raises(self, tmp_path):
        blocker = tmp_path / "store"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            write_atomic(blocker / "entry.json", "x")
        assert _names(tmp_path) == ["store"]


class TestQuarantine:
    def test_renames_to_corrupt(self, tmp_path):
        bad = tmp_path / "fp.000000001000.ckpt"
        bad.write_bytes(b"junk")
        quarantine(bad)
        assert _names(tmp_path) == ["fp.000000001000.ckpt.corrupt"]
        assert (tmp_path / "fp.000000001000.ckpt.corrupt").read_bytes() \
            == b"junk"

    def test_unlinks_when_the_rename_fails(self, tmp_path, monkeypatch):
        bad = tmp_path / "snapshot.json"
        bad.write_text("{never finished")

        def refuse(self, target):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(Path, "rename", refuse)
        quarantine(bad)
        assert _names(tmp_path) == []

    def test_missing_file_is_not_an_error(self, tmp_path):
        quarantine(tmp_path / "absent.json")
        assert _names(tmp_path) == []


class TestSweep:
    def test_returns_count_and_spares_non_matching(self, tmp_path):
        for name in (".tmp-a.json-x1", ".tmp-b.ckpt-x2", "a.json",
                     "a.json.corrupt", "keep.txt"):
            (tmp_path / name).write_text(name)
        assert sweep(tmp_path, ".tmp-*", "*.corrupt") == 3
        assert _names(tmp_path) == ["a.json", "keep.txt"]

    def test_overlapping_globs_count_a_file_once(self, tmp_path):
        (tmp_path / ".tmp-dead.json").write_text("partial")
        assert sweep(tmp_path, "*.json", ".tmp-*") == 1
        assert _names(tmp_path) == []

    def test_missing_root_sweeps_nothing(self, tmp_path):
        assert sweep(tmp_path / "absent", "*") == 0
