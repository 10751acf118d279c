"""Coordinator-less federation of scheduler daemons.

N ``repro-serve`` daemons — each keeping its own supervision tree,
admission ladder and write-ahead journal — peer over the existing NDJSON
protocol (a ``gossip`` op) to form one fleet with no coordinator, no
leader election and no shared database.  Three mechanisms, all built on
machinery that already exists elsewhere in the tree:

**Membership.**  Every ``gossip_interval`` seconds each daemon probes
every peer with a gossip frame; the response synchronises both
directions in one exchange.  Peer liveness is the job store's lease rule
verbatim (:func:`repro.design.store.lease_alive`): a peer whose newest
contact is older than its TTL is *suspected*, older than twice its TTL
is *dead*.  TTLs are deterministically jittered per (observer, peer)
pair — the same sha256 trick as campaign worker leases — so N observers
never declare a peer dead in the same instant.  Transitions are
journaled as ``peer.up`` / ``peer.suspect`` / ``peer.dead`` events.

**Job ownership as cluster leases.**  A daemon's gossip frames announce
its own accepted-but-unfinished jobs (id, tenant, fingerprint, full
payload) and its own terminal states.  Receivers journal the
announcements (``cluster-job`` / ``cluster-terminal`` records) into the
daemon's :class:`~repro.design.store.JobStore`, which folds them into
replicas: store jobs whose ``owner`` is the announcing peer.  So every
journal in the fleet can answer "who owned what" offline, and a replica
survives a restart exactly as the daemon's own jobs do (journal, or the
store's snapshot when appends were lost).  A replica's lease is its
owner's node lease, heartbeated by the owner's gossip: a replica is
only ever learned during a contact with its owner, so it expires
exactly when the owner is declared dead.  The rendezvous-hash winner
among the surviving nodes then adopts the job — journals a ``submit``
with ``adopted_from``, which makes the replica its own, and
force-pushes it into its queue.  Re-execution is bitwise-safe and cheap
because results are keyed by job fingerprint in the shared result
cache.

**Routing and split-brain.**  ``submit`` frames are routed to the
fingerprint's rendezvous owner (one forwarding hop, marked ``route``),
so any daemon can front the fleet; clients fail over across the
fleet's address list.  A daemon that cannot see a strict majority of the
configured fleet stops accepting (sheds with reason ``no-quorum``) and
pauses dispatch/settlement, so a partition minority can never race the
majority to a conflicting terminal state — the split-brain stance
documented in docs/ROBUSTNESS.md.  Quarantined fingerprints travel in
gossip too, so one daemon's circuit breaker protects every worker in
the fleet.

Chaos coverage is the fleet topology of the one drill harness,
:func:`repro.service.chaos.run_cluster_chaos` (``make
cluster-chaos-smoke``; docs/ROBUSTNESS.md, "Chaos drills"): a daemon
SIGKILL plus an injected ``partition:A|B:CYCLES`` fault, judged by the
shared verdict over every journal (:mod:`repro.service.audit`).
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import TYPE_CHECKING, Any

from ..design.store import TTL_JITTER_FRAC, lease_alive, worker_ttl_jitter
from ..harness.faults import FaultPlan
from .protocol import (MAX_FRAME_BYTES, TERMINAL, ProtocolError, decode_frame,
                       encode_frame, error_response, parse_address)

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from .daemon import SchedulerDaemon

#: Membership states of a peer, as this node sees it.
PEER_UNKNOWN = "unknown"    # configured, never yet contacted
PEER_UP = "up"
PEER_SUSPECT = "suspect"
PEER_DEAD = "dead"

#: Default seconds between gossip rounds.
DEFAULT_GOSSIP_INTERVAL = 1.0

#: Default peer lease TTL: silence past this is suspicion, past twice
#: this is death.  Jittered per (observer, peer) pair.
DEFAULT_PEER_TTL = 5.0

#: Upper bound on job/terminal announcements per gossip frame, so a
#: million-cell backlog cannot balloon one frame past the protocol's
#: size bound.  Announcements rotate, so everything is eventually told.
MAX_GOSSIP_JOBS = 256


def rendezvous_owner(fingerprint: str, nodes: list[str]) -> str:
    """Highest-random-weight hash: the owning node for a fingerprint.

    Deterministic for any subset of nodes and minimally disruptive when
    the subset changes (only the dead node's jobs move), which is
    exactly the property job handoff needs.
    """
    if not nodes:
        raise ValueError("rendezvous over an empty node set")
    return max(sorted(nodes), key=lambda node: hashlib.sha256(
        f"{fingerprint}|{node}".encode("utf-8")).digest())


class PeerState:
    """One peer, as seen by the local daemon."""

    __slots__ = ("address", "index", "state", "misses", "ttl")

    def __init__(self, address: str, index: int, ttl: float) -> None:
        self.address = address
        self.index = index
        self.state = PEER_UNKNOWN
        self.misses = 0       # consecutive failed probes (observability)
        self.ttl = ttl        # jittered suspicion TTL for this peer


class ClusterManager:
    """Membership, job replication, routing and reclaim for one daemon.

    Constructed by :class:`repro.service.daemon.SchedulerDaemon` when it
    is given a ``--cluster`` member list; owns no sockets of its own
    except short-lived outbound gossip/forward connections.
    """

    def __init__(self, daemon: "SchedulerDaemon", members: list[str], *,
                 gossip_interval: float = DEFAULT_GOSSIP_INTERVAL,
                 peer_ttl: float = DEFAULT_PEER_TTL,
                 faults: FaultPlan | None = None) -> None:
        #: This node's own entry in the member list: the daemon's address.
        self.address = daemon.address
        if self.address not in members:
            raise ValueError(f"daemon address {self.address!r} is not in "
                             f"the cluster member list")
        if len(set(members)) != len(members):
            raise ValueError("duplicate addresses in cluster member list")
        self.daemon = daemon
        self.members = list(members)
        self.index = members.index(self.address)
        self.gossip_interval = gossip_interval
        self.peer_ttl = peer_ttl
        self.faults = faults
        self.peers: dict[str, PeerState] = {}
        for index, address in enumerate(members):
            if address == self.address:
                continue
            # Deterministic per-(observer, peer) jitter, exactly the
            # campaign worker-lease trick: observers desynchronise their
            # suspicion/death declarations instead of stampeding.
            jitter = worker_ttl_jitter(f"{self.address}->{address}")
            self.peers[address] = PeerState(
                address, index, peer_ttl * (1.0 + TTL_JITTER_FRAC * jitter))
        #: Last successful contact per peer address (local monotonic) —
        #: the beats table every peer lease is checked against.
        self.beats: dict[str, float] = {}
        self.rounds = 0
        self.degraded = False
        self.started = time.monotonic()
        self._announce_rotor = 0
        self._dead_owners: set[str] = set()

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def live_addresses(self) -> list[str]:
        """Nodes eligible for routing/reclaim: self + peers seen UP."""
        return [self.address] + [peer.address
                                 for peer in self.peers.values()
                                 if peer.state == PEER_UP]

    def has_quorum(self) -> bool:
        """Can this node see a strict majority of the configured fleet?

        Peers never yet contacted count optimistically (a booting node
        is not a partition), suspected and dead peers do not.
        """
        live = 1 + sum(1 for peer in self.peers.values()
                       if peer.state in (PEER_UP, PEER_UNKNOWN))
        return 2 * live > len(self.members)

    def _transition(self, peer: PeerState, state: str) -> None:
        if peer.state == state:
            return
        previous, peer.state = peer.state, state
        self.daemon.event(f"peer.{state}" if state != PEER_UNKNOWN
                          else "peer.reset",
                          peer=peer.address, previous=previous,
                          misses=peer.misses)
        if state == PEER_DEAD:
            self._dead_owners.add(peer.address)
        elif state == PEER_UP:
            self._dead_owners.discard(peer.address)
        self._check_quorum()

    def _check_quorum(self) -> None:
        degraded = not self.has_quorum()
        if degraded == self.degraded:
            return
        self.degraded = degraded
        if degraded:
            self.daemon.event("cluster.degraded",
                              live=self.live_addresses(),
                              size=len(self.members))
        else:
            self.daemon.event("cluster.active",
                              live=self.live_addresses(),
                              size=len(self.members))

    def _contact(self, address: str, now: float) -> None:
        peer = self.peers.get(address)
        if peer is None:
            return
        self.beats[address] = now
        peer.misses = 0
        self._transition(peer, PEER_UP)

    def _membership_check(self, now: float) -> None:
        for peer in self.peers.values():
            if peer.state == PEER_DEAD:
                continue
            claim = {"worker": peer.address, "t": self.started,
                     "ttl": peer.ttl}
            if lease_alive(claim, self.beats, now):
                continue
            dead_claim = dict(claim, ttl=2.0 * peer.ttl)
            if not lease_alive(dead_claim, self.beats, now):
                self._transition(peer, PEER_DEAD)
            elif peer.state != PEER_SUSPECT:
                self._transition(peer, PEER_SUSPECT)

    # ------------------------------------------------------------------ #
    # the gossip loop
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Probe every peer once per interval until the daemon drains.

        The loop ends on its own once the daemon is draining, as its
        dispatch loops do, instead of relying on ``serve()``'s cancel
        alone: on Python 3.11 ``asyncio.wait_for`` (under :meth:`call`)
        returns the exchange's result and drops a cancel that arrives in
        the step the exchange completes, which would leave this loop
        running and ``serve()`` waiting for it forever."""
        while not self.daemon.draining:
            try:
                await self._gossip_round()
            except asyncio.CancelledError:
                raise
            except Exception as error:   # pragma: no cover - belt+braces
                self.daemon.event("cluster.error", error=str(error)[:200])
            await asyncio.sleep(self.gossip_interval)

    async def _gossip_round(self) -> None:
        frame = {"op": "gossip", "addr": self.address,
                 "index": self.index, "round": self.rounds,
                 **self._payload()}
        for peer in self.peers.values():
            if self.faults is not None and self.faults.partition_blocks(
                    self.index, peer.index, self.rounds):
                peer.misses += 1
                continue
            try:
                response = await self.call(peer.address, frame,
                                           timeout=self.gossip_interval * 2)
            except (OSError, ConnectionError, ProtocolError,
                    asyncio.TimeoutError, asyncio.IncompleteReadError):
                peer.misses += 1
                continue
            if not response.get("ok"):
                # A partitioned (or drained) receiver answers with an
                # error frame: reachable at the socket level, but not a
                # live fleet member from where we stand.
                peer.misses += 1
                continue
            self._contact(peer.address, time.monotonic())
            self._fold_payload(response)
        self.rounds += 1
        self._membership_check(time.monotonic())
        self._reclaim()

    async def call(self, address: str, frame: dict[str, Any], *,
                   timeout: float = 5.0) -> dict[str, Any]:
        """One request/response exchange with another daemon."""
        kind, where = parse_address(address)
        if kind == "tcp":
            host, port = where
            opening = asyncio.open_connection(host, port,
                                              limit=MAX_FRAME_BYTES + 1024)
        else:
            opening = asyncio.open_unix_connection(
                where, limit=MAX_FRAME_BYTES + 1024)
        reader, writer = await asyncio.wait_for(opening, timeout)
        try:
            writer.write(encode_frame(frame))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
        finally:
            writer.close()
        if not line:
            raise ConnectionError(f"no response from {address}")
        return decode_frame(line)

    # ------------------------------------------------------------------ #
    # gossip payloads (both directions share the same shape)
    # ------------------------------------------------------------------ #
    def _payload(self) -> dict[str, Any]:
        jobs, terminals = [], []
        own = [job for job in self.daemon.table.ordered() if not job.owner]
        # Rotate the announcement window so a backlog larger than one
        # frame's cap is still fully told across consecutive rounds.
        if len(own) > MAX_GOSSIP_JOBS:
            start = self._announce_rotor % len(own)
            own = own[start:] + own[:start]
            self._announce_rotor += MAX_GOSSIP_JOBS
        for job in own:
            if job.state in TERMINAL:
                if len(terminals) < MAX_GOSSIP_JOBS:
                    terminals.append({
                        "id": job.id, "state": job.state,
                        "fingerprint": job.fingerprint,
                        "cycles": job.cycles, "ipc": job.ipc,
                        "error": job.error, "owner": self.address})
            elif len(jobs) < MAX_GOSSIP_JOBS:
                jobs.append({"id": job.id, "tenant": job.tenant,
                             "fingerprint": job.fingerprint, "job": job.job,
                             "owner": self.address})
        quarantine = [{"fingerprint": fp,
                       "crashes": self.daemon.breaker.crashes.get(fp, 0)}
                      for fp in self.daemon.breaker.open_fingerprints()]
        members = [{"addr": self.address, "state": PEER_UP}]
        members += [{"addr": peer.address, "state": peer.state}
                    for peer in self.peers.values()]
        return {"members": members, "jobs": jobs, "terminals": terminals,
                "quarantine": quarantine}

    def _fold_payload(self, payload: dict[str, Any]) -> None:
        for announced in payload.get("jobs") or []:
            self._fold_job(announced)
        for terminal in payload.get("terminals") or []:
            self._fold_terminal(terminal)
        for entry in payload.get("quarantine") or []:
            fingerprint = entry.get("fingerprint")
            if not fingerprint:
                continue
            if self.daemon.breaker.force_open(
                    fingerprint, int(entry.get("crashes") or 0)):
                self.daemon.event("breaker.sync",
                                  fingerprint=fingerprint[:12],
                                  crashes=entry.get("crashes"))

    def _fold_job(self, announced: dict[str, Any]) -> None:
        job_id = announced.get("id")
        owner = announced.get("owner")
        # Only a string id can become a store job (and be hashed).
        if not isinstance(job_id, str) or not job_id or not owner \
                or owner == self.address:
            return
        if job_id in self.daemon.table.jobs:
            return
        # Journaled, so the replica (and the offline audit) survives a
        # local restart.
        self.daemon.table.append("cluster-job", id=job_id, owner=owner,
                                 tenant=announced.get("tenant", "-"),
                                 fingerprint=announced.get("fingerprint", ""),
                                 job=announced.get("job") or {})

    def _fold_terminal(self, terminal: dict[str, Any]) -> None:
        job_id = terminal.get("id")
        state = terminal.get("state")
        if not isinstance(job_id, str) or not job_id \
                or state not in TERMINAL:
            return
        table = self.daemon.table
        job = table.jobs.get(job_id)
        if job is not None and job.state in TERMINAL:
            return
        via = terminal.get("owner")
        if job is None:
            # A terminal for a job never announced to us: replicate it
            # first, so the terminal has a job to land on.
            table.append("cluster-job", id=job_id, owner=via or "?",
                         fingerprint=terminal.get("fingerprint", ""), job={})
            job = table.jobs[job_id]
        details = {"cycles": terminal.get("cycles"),
                   "ipc": terminal.get("ipc"), "error": terminal.get("error")}
        if job.owner:
            table.append("cluster-terminal", id=job_id, owner=job.owner,
                         state=state, fingerprint=job.fingerprint, **details)
        else:
            # A job we own (or adopted) was finished elsewhere — a
            # handoff that raced our own execution, or a rejoin after a
            # partition.  Fold the peer's terminal; never execute again.
            table.append("peer-terminal", id=job_id, state=state, via=via,
                         **details)
            self.daemon.event("cluster.peer_terminal", id=job_id,
                              state=state, via=via)
        self.daemon.notify_watchers(job_id, state, **details)

    # ------------------------------------------------------------------ #
    # inbound gossip (the daemon's "gossip" op)
    # ------------------------------------------------------------------ #
    def handle_gossip(self, frame: dict[str, Any]) -> dict[str, Any]:
        sender = frame.get("addr")
        sender_index = frame.get("index")
        if sender not in self.peers:
            return error_response("gossip",
                                  f"unknown peer {sender!r} (not in this "
                                  f"daemon's cluster member list)")
        if self.faults is not None and isinstance(sender_index, int) \
                and self.faults.partition_blocks(self.index, sender_index,
                                                 self.rounds):
            # The injected partition: pretend the frame never arrived.
            return error_response("gossip", "unreachable (partitioned)")
        self._contact(sender, time.monotonic())
        self._fold_payload(frame)
        return {"ok": True, "op": "gossip", "addr": self.address,
                "index": self.index, "round": self.rounds,
                **self._payload()}

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def blocked_inbound(self, frame: dict[str, Any]) -> bool:
        """Is a forwarded frame from a partitioned sender? (drop it)"""
        route = frame.get("route")
        if self.faults is None or not isinstance(route, dict):
            return False
        sender_index = route.get("index")
        return isinstance(sender_index, int) and self.faults.partition_blocks(
            self.index, sender_index, self.rounds)

    async def route_submit(self, frame: dict[str, Any],
                           fingerprint: str) -> dict[str, Any] | None:
        """Forward a submit to its rendezvous owner; None = handle here.

        One hop at most: frames already carrying ``route`` (or a client
        ``pin``) are never forwarded again.  A failed forward falls back
        to local acceptance — availability over placement.
        """
        if frame.get("route") or frame.get("pin"):
            return None
        owner = rendezvous_owner(fingerprint, self.live_addresses())
        if owner == self.address:
            return None
        peer = self.peers[owner]
        if self.faults is not None and self.faults.partition_blocks(
                self.index, peer.index, self.rounds):
            peer.misses += 1
            return None
        forwarded = dict(frame)
        forwarded["route"] = {"via": self.address, "index": self.index}
        try:
            response = await self.call(owner, forwarded,
                                       timeout=self.gossip_interval * 4)
        except (OSError, ConnectionError, ProtocolError,
                asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
            peer.misses += 1
            self.daemon.event("cluster.forward_fail", peer=owner,
                              id=frame.get("id"), error=str(error)[:120])
            return None
        response["routed"] = owner
        return response

    # ------------------------------------------------------------------ #
    # reclaim (lease-based job handoff)
    # ------------------------------------------------------------------ #
    def _reclaim(self) -> None:
        """Adopt the unfinished replicas of dead owners that hash to us.

        Never while degraded: a partition minority must not adopt the
        majority's jobs (it may be the one that is cut off).  Runs every
        round; all conditions are idempotent, so a replica skipped this
        round (different winner) is re-examined next round, and an
        adopted one is no longer a replica.
        """
        if not self._dead_owners or not self.has_quorum():
            return
        nodes = self.live_addresses()
        for job in list(self.daemon.table.jobs.values()):
            if job.owner in self._dead_owners \
                    and job.state not in TERMINAL \
                    and rendezvous_owner(job.fingerprint,
                                         nodes) == self.address:
                self.daemon.adopt_job(job)

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #
    def view(self) -> dict[str, Any]:
        """The membership table, for ``status`` responses."""
        now = time.monotonic()
        return {
            "advertise": self.address, "index": self.index,
            "size": len(self.members), "rounds": self.rounds,
            "quorum": self.has_quorum(), "degraded": self.degraded,
            "remote_jobs": sum(1 for job in self.daemon.table.jobs.values()
                               if job.owner),
            "peers": [{"addr": peer.address, "index": peer.index,
                       "state": peer.state, "misses": peer.misses,
                       "age": (round(now - self.beats[peer.address], 3)
                               if peer.address in self.beats else None)}
                      for peer in self.peers.values()],
        }
