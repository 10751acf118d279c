"""Tests for the NDJSON service wire protocol.

Framing and job-id units first; then a wire-fuzz section that feeds a
*live* daemon truncated, oversized, garbage and duplicate-id frames
over raw sockets.  The contract under test: malformed input always
yields a typed error frame (or a clean close for unresyncable streams),
and no input sequence kills the daemon — the class-scoped daemon
survives every test in order and still drains cleanly at teardown.
"""

import asyncio
import io
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.harness.exit_codes import EXIT_OK
from repro.harness.jobs import SimJob
from repro.service.client import ServiceClient
from repro.service.daemon import SchedulerDaemon
from repro.service.protocol import (DONE, MAX_FRAME_BYTES, ProtocolError,
                                    decode_frame, encode_frame,
                                    error_response, job_id)
from repro.sim.config import GPUConfig


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "submit", "id": "ab:0", "job": {"scale": 0.5}}
        line = encode_frame(frame)
        assert line.endswith(b"\n")
        assert decode_frame(line) == frame

    def test_encoding_is_canonical(self):
        # Key order must not matter on the wire (frames are hashable
        # test fixtures and diffable log lines).
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b
        assert b"\n" not in a[:-1]

    def test_unparseable_frame_raises(self):
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_frame(b"{torn off mid-")

    def test_non_object_frame_raises(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2, 3]\n")

    def test_oversized_frame_rejected_without_parsing(self):
        line = b'{"op": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(line)

    def test_error_response_shape(self):
        response = error_response("submit", "bad job payload")
        assert response == {"ok": False, "op": "submit",
                            "error": "bad job payload"}
        assert error_response(None, "x")["op"] == "?"
        # Error responses must themselves be encodable frames.
        assert json.loads(encode_frame(response))["ok"] is False


class TestJobIds:
    def test_digest_prefix_and_index(self):
        assert job_id("abcdef0123456789", 4) == "abcdef012345:4"

    def test_distinct_designs_never_collide(self):
        assert job_id("a" * 64, 0) != job_id("b" * 64, 0)

    def test_stable_for_idempotent_resubmission(self):
        assert job_id("d" * 64, 7) == job_id("d" * 64, 7)


# --------------------------------------------------------------------------- #
# wire fuzz against a live daemon
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="class")
def live_daemon(tmp_path_factory):
    """One real daemon shared by every fuzz test: surviving the whole
    torture sequence *and* draining cleanly afterwards is the point."""
    root = tmp_path_factory.mktemp("proto-fuzz")
    daemon = SchedulerDaemon(state_dir=root / "state",
                             cache_dir=root / "cache",
                             workers=1, drain_grace=15.0, log=io.StringIO())
    outcome = {}

    def runner():
        outcome["exit"] = asyncio.run(daemon.serve())

    thread = threading.Thread(target=runner, daemon=True,
                              name="fuzz-repro-serve")
    thread.start()
    deadline = time.monotonic() + 15.0
    while not Path(daemon.address).exists():
        assert time.monotonic() < deadline, "daemon never bound its socket"
        time.sleep(0.02)
    yield daemon
    with ServiceClient(daemon.address) as client:
        client.drain()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "daemon did not drain after the fuzzing"
    assert outcome.get("exit") == EXIT_OK


def _raw(daemon):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(15.0)
    sock.connect(daemon.address)
    return sock


def _exchange(sock, payload: bytes) -> dict:
    sock.sendall(payload)
    line = sock.makefile("rb").readline()
    assert line, "daemon closed the connection without answering"
    return json.loads(line)


def _alive(daemon) -> bool:
    with ServiceClient(daemon.address) as client:
        return bool(client.status().get("ok"))


class TestDaemonWireRobustness:
    def test_binary_garbage_gets_a_typed_error(self, live_daemon):
        with _raw(live_daemon) as sock:
            fh = sock.makefile("rb")
            sock.sendall(b"\x00\xfe\xffnot a frame at all\n")
            response = json.loads(fh.readline())
            assert response["ok"] is False
            assert "unparseable" in response["error"]
            # Same connection, next line: the stream resynced on the
            # newline and valid frames still work.
            sock.sendall(encode_frame({"op": "status"}))
            assert json.loads(fh.readline())["ok"] is True
        assert _alive(live_daemon)

    @pytest.mark.parametrize("payload,needle", [
        (b"[1, 2, 3]\n", "JSON object"),
        (b"null\n", "JSON object"),
        (b'"just a string"\n', "JSON object"),
        (b"\n", "unparseable"),
        (b'{"op": "explode"}\n', "unknown op"),
        (b'{"no_op_key": 1}\n', "unknown op"),
        (b'{"op": 42}\n', "unknown op"),
    ])
    def test_malformed_frames_get_typed_errors(self, live_daemon,
                                               payload, needle):
        with _raw(live_daemon) as sock:
            response = _exchange(sock, payload)
            assert response["ok"] is False
            assert needle in response["error"]
        assert _alive(live_daemon)

    def test_oversized_frame_within_stream_limit_is_refused(self,
                                                            live_daemon):
        # Between MAX_FRAME_BYTES and the stream limit: the line is
        # readable, decode refuses it, and the connection stays usable.
        pad = b"x" * (MAX_FRAME_BYTES + 100)
        with _raw(live_daemon) as sock:
            fh = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + pad + b'"}\n')
            response = json.loads(fh.readline())
            assert response["ok"] is False and "exceeds" in response["error"]
            sock.sendall(encode_frame({"op": "status"}))
            assert json.loads(fh.readline())["ok"] is True
        assert _alive(live_daemon)

    def test_frame_beyond_stream_limit_closes_the_connection(self,
                                                             live_daemon):
        # Past the asyncio stream limit the line cannot even be
        # buffered; the daemon answers a typed refusal (when the bytes
        # still flow) and closes — it must never die.
        pad = b"y" * (MAX_FRAME_BYTES + 64 * 1024)
        with _raw(live_daemon) as sock:
            try:
                sock.sendall(b'{"pad": "' + pad + b'"}\n')
            except (BrokenPipeError, ConnectionResetError):
                pass   # the daemon already slammed the door mid-send
            fh = sock.makefile("rb")
            try:
                line = fh.readline()
                rest = fh.readline() if line else b""
            except (ConnectionResetError, OSError):
                line, rest = b"", b""   # reset: the close raced our read
            if line:
                response = json.loads(line)
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                assert rest == b""      # and then it closed
        assert _alive(live_daemon)

    def test_truncated_frame_then_disconnect_is_harmless(self, live_daemon):
        with _raw(live_daemon) as sock:
            sock.sendall(b'{"op": "stat')   # no newline, then vanish
        assert _alive(live_daemon)

    def test_half_frame_does_not_block_other_connections(self, live_daemon):
        frame = encode_frame({"op": "status"})
        half = len(frame) // 2
        with _raw(live_daemon) as slow, _raw(live_daemon) as fast:
            slow.sendall(frame[:half])
            # The stalled connection must not head-of-line-block the
            # daemon: a concurrent client gets served immediately.
            assert _exchange(fast, frame)["ok"] is True
            slow.sendall(frame[half:])
            assert json.loads(slow.makefile("rb").readline())["ok"] is True

    def test_duplicate_ids_across_connections_stay_idempotent(
            self, live_daemon):
        job = SimJob(names=("kmeans",), scale=0.02, seed=99,
                     config=GPUConfig.small())
        with ServiceClient(live_daemon.address) as one, \
                ServiceClient(live_daemon.address) as two:
            first = one.submit("fuzz:dup", job.to_payload(), tenant="a")
            assert first["ok"]
            # The same id from another connection is answered from the
            # job table — acknowledged, never enqueued a second time.
            second = two.submit("fuzz:dup", job.to_payload(), tenant="b")
            assert second["ok"] and second.get("duplicate")
            done = one.watch(["fuzz:dup"])["fuzz:dup"]
            assert done["state"] == DONE
            again = two.submit("fuzz:dup", job.to_payload(), tenant="b")
            assert again.get("duplicate") and again["state"] == DONE
            assert again["cycles"] == done["cycles"]

    def test_watch_with_bad_ids_is_refused_not_fatal(self, live_daemon):
        with _raw(live_daemon) as sock:
            response = _exchange(sock, encode_frame(
                {"op": "watch", "ids": "not-a-list"}))
            assert response["ok"] is False
            assert "list of string ids" in response["error"]
        assert _alive(live_daemon)
