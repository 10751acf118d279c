"""Supervised simulation service (ROADMAP item 3).

The one-shot batch engine promoted to an always-on scheduler daemon:
``repro-serve`` (:mod:`repro.service.daemon`) owns a journal-backed
persistent submission queue, admission control with load shedding
(:mod:`repro.service.admission`), the batch engine's heartbeat-watched
worker pool (:mod:`repro.harness.pool`), a per-fingerprint circuit
breaker (with half-open probing) for poison jobs, and graceful drain on
SIGTERM.
``repro-submit`` (:mod:`repro.service.client`) compiles a design
client-side and talks newline-delimited JSON
(:mod:`repro.service.protocol`) over a unix socket or TCP, failing over
across a ``--peers`` list.

Daemons federate (:mod:`repro.service.cluster`): gossip-based
membership with lease-rule failure detection, replicated job ownership
with rendezvous-hashed handoff from dead peers, quorum-gated admission
(the split-brain stance), and fleet-wide quarantine sync.
``repro-audit`` (:mod:`repro.service.audit`) folds every daemon's
journal into one offline exactly-once verdict.  See docs/ROBUSTNESS.md
("Service", "Clustered service") for the supervision tree, the overload
ladder, the membership protocol and the crash matrix.
"""

from ..harness.pool import DEFAULT_HB_TIMEOUT
from .admission import (ADMIT_OK, ADMIT_PROBE, ADMIT_REFUSE,
                        DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD,
                        DEFAULT_BURST, DEFAULT_QUEUE_DEPTH, DEFAULT_RATE,
                        CircuitBreaker, FairShareQueue, TokenBucket)
from .audit import AuditReport, JobAudit, audit_state_dirs
from .client import ServiceClient, ServiceError
from .cluster import (DEFAULT_GOSSIP_INTERVAL, DEFAULT_PEER_TTL, PEER_DEAD,
                      PEER_SUSPECT, PEER_UNKNOWN, PEER_UP, ClusterManager,
                      PeerState, parse_address, rendezvous_owner)
from .daemon import (DEFAULT_DRAIN_GRACE, DEFAULT_STATE_DIR, SOCKET_NAME,
                     JobRecord, JobTable, SchedulerDaemon)
from .protocol import (DONE, FAILED, MAX_FRAME_BYTES, PROTOCOL_VERSION,
                       QUARANTINED, QUEUED, RUNNING, SHED, STATES, TERMINAL,
                       ProtocolError, decode_frame, encode_frame,
                       error_response, job_id)

__all__ = [
    "ADMIT_OK", "ADMIT_PROBE", "ADMIT_REFUSE", "DEFAULT_BREAKER_COOLDOWN",
    "DEFAULT_BREAKER_THRESHOLD", "DEFAULT_BURST", "DEFAULT_DRAIN_GRACE",
    "DEFAULT_GOSSIP_INTERVAL", "DEFAULT_HB_TIMEOUT", "DEFAULT_PEER_TTL",
    "DEFAULT_QUEUE_DEPTH", "DEFAULT_RATE", "DEFAULT_STATE_DIR", "DONE",
    "FAILED", "MAX_FRAME_BYTES", "PEER_DEAD", "PEER_SUSPECT",
    "PEER_UNKNOWN", "PEER_UP", "PROTOCOL_VERSION", "QUARANTINED", "QUEUED",
    "RUNNING", "SHED", "SOCKET_NAME", "STATES", "TERMINAL", "AuditReport",
    "CircuitBreaker", "ClusterManager", "FairShareQueue",
    "JobAudit", "JobRecord", "JobTable", "PeerState", "ProtocolError",
    "SchedulerDaemon", "ServiceClient", "ServiceError",
    "TokenBucket", "audit_state_dirs", "decode_frame", "encode_frame",
    "error_response", "job_id", "parse_address", "rendezvous_owner",
]
