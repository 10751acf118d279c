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

The package imports none of its modules, so ``python -m
repro.service.<module>`` runs the module once; import names from their
submodules (``from repro.service.client import ServiceClient``).
"""
