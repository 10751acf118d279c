"""Wire protocol for the scheduler daemon: newline-delimited JSON.

One request or response per line (a *frame*), UTF-8, no length prefix —
the same torn-tail-tolerant shape as the campaign journal, so a frame
either parses whole or is rejected whole.  The daemon and the client
share these helpers; everything else about the service lives behind
them.

Requests carry an ``op`` and op-specific fields::

    {"op": "submit", "id": "ab12cd34ef56:3", "tenant": "alice",
     "job": {...SimJob.to_payload()...}}
    {"op": "status"}                       # healthz: counts + uptime
    {"op": "result", "id": "..."}          # terminal state + result
    {"op": "watch", "ids": ["...", ...]}   # stream terminal events
    {"op": "drain"}                        # administrative SIGTERM
    {"op": "gossip", "addr": ..., "index": ..., ...}   # peer heartbeat

In a federated fleet (:mod:`repro.service.cluster`) a ``submit`` may
additionally carry ``"route": {"via": ADDR, "index": N}`` — set by a
daemon forwarding the frame to the fingerprint's rendezvous owner, and
never set twice (one forwarding hop at most) — or ``"pin": true`` from a
client that wants *this* daemon to own the job regardless of routing.
``gossip`` frames are daemon-to-daemon heartbeats carrying the sender's
membership view, its non-terminal job announcements (the cluster
leases), its terminal states, and its open circuit-breaker fingerprints;
the response mirrors the same payload back so one exchange synchronises
both directions.

Responses echo ``op`` and carry ``ok`` plus op-specific fields; a
``submit`` response's ``state`` is one of the :data:`STATES` below (or
:data:`SHED`, which is not a job state — the job was never accepted).
``watch`` responses are a stream: zero or more ``{"event": "terminal",
...}`` frames followed by one ``{"ok": true, "done": true}`` frame.

Job ids are chosen by the *client* and are idempotency keys: submitting
the same id twice (a reconnect after a dropped socket, a re-run of
``repro-submit``) returns the job's current state instead of enqueueing
a duplicate.  ``repro-submit`` derives ids from the design digest and
cell index (:func:`~repro.design.store.job_id`, the id a campaign
store gives the same cell), so two concurrent clients submitting the
same design converge on the same jobs.
"""

from __future__ import annotations

import json
from typing import Any

from ..design.store import job_id  # noqa: F401  (re-exported: wire ids)

#: Protocol version, echoed in ``status`` responses.  Version 2 added
#: the ``gossip`` op and the ``route``/``pin`` submit fields.
PROTOCOL_VERSION = 2

#: Maximum accepted frame size in bytes (a malformed or malicious
#: client cannot balloon daemon memory with one endless line).
MAX_FRAME_BYTES = 1 << 20

#: Request operations the daemon understands.
OPS = ("submit", "status", "result", "watch", "drain", "gossip")

#: Job lifecycle states (journal-backed; see ``repro.service.daemon``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
STATES = (QUEUED, RUNNING, DONE, FAILED, QUARANTINED)

#: Terminal states: a job in one of these never changes again.
TERMINAL = (DONE, FAILED, QUARANTINED)

#: Not a job state: the submission was refused at admission and never
#: entered the queue (the response carries a ``reason``).
SHED = "shed"


class ProtocolError(ValueError):
    """A frame that does not parse, or parses to a non-request."""


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame to its wire form (canonical JSON + newline)."""
    return (json.dumps(frame, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> dict[str, Any]:
    """One wire line back to a frame; raises :class:`ProtocolError`.

    Unlike journal replay, a bad frame is *not* silently dropped — the
    peer is live and must be told (the daemon answers with an error
    response; the client raises to its caller).
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"unparseable frame: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, "
                            f"got {type(frame).__name__}")
    return frame


def parse_address(address: str) -> tuple[str, Any]:
    """A daemon address, where one listens and the others dial:
    ``"host:port"`` -> ``("tcp", (host, port))``; anything else is a
    unix socket path, ``("unix", path)``."""
    if "/" not in address and address.count(":") == 1:
        host, _, port = address.rpartition(":")
        if port.isdigit():
            return "tcp", (host, int(port))
    return "unix", address


def error_response(op: str | None, message: str) -> dict[str, Any]:
    """The daemon's uniform bad-request answer (connection stays up)."""
    return {"ok": False, "op": op or "?", "error": message}
