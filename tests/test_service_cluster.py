"""Tests for the federation layer: membership, routing, handoff, audit.

The :class:`ClusterManager` unit tests drive membership and reclaim on
a stub daemon with a hand-held clock — no sockets, no sleeping — so the
lease arithmetic (suspect past TTL, dead past twice TTL, reclaim only
with quorum and a won rendezvous election) is checked exactly.  The
stub keeps its replicas where a daemon does, in a real
:class:`~repro.design.store.JobStore` on a temporary directory.  The
offline audit is tested against hand-forged journals.  One integration
test boots a real three-daemon fleet over unix sockets and routes a
design through it; the violent end of the story (partitions, SIGKILL,
lease handoff under fire) lives in the cluster chaos drill
(``make cluster-chaos-smoke``).
"""

import asyncio
import io
import socket
import threading
import time

import pytest

from repro.design.campaign import TTL_JITTER_FRAC
from repro.design.journal import Journal, replay_journal
from repro.design.store import PENDING, JobStore
from repro.harness.engine import Backoff
from repro.harness.exit_codes import EXIT_OK
from repro.harness.faults import FaultPlan
from repro.harness.jobs import SimJob
from repro.service.admission import CircuitBreaker
from repro.service.audit import audit_state_dirs
from repro.service.client import ServiceClient
from repro.service.cluster import (PEER_DEAD, PEER_SUSPECT, PEER_UNKNOWN,
                                   PEER_UP, ClusterManager, parse_address,
                                   rendezvous_owner)
from repro.service.daemon import SchedulerDaemon
from repro.service.protocol import DONE, QUEUED, TERMINAL, encode_frame
from repro.sim.config import GPUConfig

A, B, C = "a.sock", "b.sock", "c.sock"


# --------------------------------------------------------------------------- #
# addresses and rendezvous hashing
# --------------------------------------------------------------------------- #

class TestParseAddress:
    def test_host_port_is_tcp(self):
        assert parse_address("gpu-01:7070") == ("tcp", ("gpu-01", 7070))

    @pytest.mark.parametrize("address", [
        "/var/run/repro/serve.sock",   # a path is always a path
        "serve.sock",                  # no colon
        "host:notaport",               # non-numeric port
        "h:1:2",                       # two colons: not host:port
    ])
    def test_everything_else_is_a_unix_path(self, address):
        assert parse_address(address) == ("unix", address)


class TestRendezvous:
    def test_deterministic_and_order_independent(self):
        nodes = [A, B, C]
        owner = rendezvous_owner("fp-1", nodes)
        assert owner in nodes
        assert rendezvous_owner("fp-1", nodes) == owner
        assert rendezvous_owner("fp-1", [C, A, B]) == owner

    def test_every_node_owns_something(self):
        nodes = [A, B, C]
        owners = {rendezvous_owner(f"fp-{i}", nodes) for i in range(64)}
        assert owners == set(nodes)

    def test_minimal_disruption_on_node_death(self):
        # HRW's defining property, and the one handoff depends on: when
        # C dies, only C's jobs move; every A- or B-owned fingerprint
        # keeps its owner.
        fps = [f"fp-{i}" for i in range(128)]
        before = {fp: rendezvous_owner(fp, [A, B, C]) for fp in fps}
        after = {fp: rendezvous_owner(fp, [A, B]) for fp in fps}
        for fp in fps:
            if before[fp] != C:
                assert after[fp] == before[fp]
            else:
                assert after[fp] in (A, B)

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_owner("fp", [])


# --------------------------------------------------------------------------- #
# membership + reclaim, on a stub daemon with a hand-held clock
# --------------------------------------------------------------------------- #

class _StubDaemon:
    """The daemon surface the cluster uses; ``state_dir`` holds its job
    store (membership alone needs none)."""

    def __init__(self, state_dir=None, threshold=2):
        self.table = None
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
            self.table = JobStore(state_dir, worker="stub")
        self.breaker = CircuitBreaker(threshold=threshold, cooldown=None)
        self.events = []
        self.adopted = []
        self.notified = []

    def event(self, kind, **payload):
        self.events.append((kind, payload))

    def kinds(self):
        return [kind for kind, _ in self.events]

    def notify_watchers(self, job_id, state, **details):
        self.notified.append((job_id, state))

    def adopt_job(self, job):
        self.adopted.append((job.id, job.owner))
        # Mirror the real daemon: the adoption submit makes the replica
        # ours, which is what makes _reclaim idempotent across rounds.
        self.table.append("submit", id=job.id, tenant=job.tenant,
                          fingerprint=job.fingerprint,
                          ordinal=self.table.next_index, job=job.job,
                          adopted_from=job.owner)


def _kinds(table):
    """The record kinds in a store's journal, in file order."""
    return [record["type"]
            for record in replay_journal(table.journal.path).records]


def _manager(stub=None, *, peer_ttl=1.0, faults=None):
    stub = stub or _StubDaemon()
    manager = ClusterManager(stub, [A, B, C], A, peer_ttl=peer_ttl,
                             faults=faults)
    manager.started = 0.0   # pin the boot instant: tests own the clock
    return stub, manager


def _announce(manager, job_id, owner, fp):
    """``owner``'s gossip announcing one of its unfinished jobs."""
    manager._fold_job({"id": job_id, "owner": owner, "tenant": "t",
                       "fingerprint": fp, "job": {"seed": 1}})


def _fp_owned_by(node, nodes):
    """A fingerprint whose rendezvous owner among ``nodes`` is ``node``."""
    for i in range(256):
        fp = f"probe-{i}"
        if rendezvous_owner(fp, nodes) == node:
            return fp
    raise AssertionError("no fingerprint hashed to the wanted node")


class TestClusterMembership:
    def test_advertise_must_be_a_member(self):
        with pytest.raises(ValueError, match="not in"):
            ClusterManager(_StubDaemon(), [B, C], A)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterManager(_StubDaemon(), [A, B, B], A)

    def test_peer_ttls_are_jittered_per_pair(self):
        _, manager = _manager(peer_ttl=2.0)
        ttls = [peer.ttl for peer in manager.peers.values()]
        for ttl in ttls:
            assert 2.0 <= ttl < 2.0 * (1.0 + TTL_JITTER_FRAC)
        # Distinct (observer, peer) pairs get distinct deadlines — no
        # stampede of simultaneous death declarations.
        assert ttls[0] != ttls[1]

    def test_boot_is_optimistic(self):
        _, manager = _manager()
        assert all(peer.state == PEER_UNKNOWN
                   for peer in manager.peers.values())
        assert manager.has_quorum()            # booting != partitioned
        assert manager.live_addresses() == [A]  # but routing stays local

    def test_up_suspect_dead_ladder(self):
        stub, manager = _manager(peer_ttl=1.0)
        manager._contact(B, 10.0)
        assert manager.peers[B].state == PEER_UP
        assert "peer.up" in stub.kinds()

        # 1.3s of silence: past any jittered TTL (< 1.25) but short of
        # the 2x death point for B.  C was never heard from at all, and
        # its silence is measured from boot — long dead.
        manager._membership_check(11.3)
        assert manager.peers[B].state == PEER_SUSPECT
        assert manager.peers[C].state == PEER_DEAD
        assert "peer.suspect" in stub.kinds()
        assert "peer.dead" in stub.kinds()

    def test_quorum_loss_and_recovery_are_events(self):
        stub, manager = _manager(peer_ttl=1.0)
        manager._contact(B, 10.0)
        manager._membership_check(11.3)   # B suspect, C dead: live = 1/3
        assert not manager.has_quorum()
        assert manager.degraded
        assert "cluster.degraded" in stub.kinds()

        manager._contact(B, 11.4)         # B answers again: live = 2/3
        assert manager.peers[B].state == PEER_UP
        assert not manager.degraded
        assert "cluster.active" in stub.kinds()

    def test_a_seen_peer_eventually_dies_too(self):
        _, manager = _manager(peer_ttl=1.0)
        manager._contact(B, 10.0)
        manager._membership_check(14.0)   # 4s > 2 x any jittered TTL
        assert manager.peers[B].state == PEER_DEAD
        assert B in manager._dead_owners

    def test_suspect_peers_do_not_count_toward_quorum(self):
        _, manager = _manager(peer_ttl=1.0)
        manager._contact(B, 10.0)
        manager._contact(C, 10.0)
        manager._membership_check(11.3)   # both merely suspect
        assert manager.peers[B].state == PEER_SUSPECT
        assert manager.peers[C].state == PEER_SUSPECT
        assert not manager.has_quorum()


class TestJobReplicationAndReclaim:
    def test_announced_jobs_are_journaled_replicas(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path))
        _announce(manager, "j1", C, "fp-x")
        replica = stub.table.jobs["j1"]
        assert (replica.owner, replica.fingerprint, replica.tenant,
                replica.state) == (C, "fp-x", "t", PENDING)
        assert _kinds(stub.table) == ["cluster-job"]
        # Idempotent: re-announcement next round journals nothing new.
        _announce(manager, "j1", C, "fp-x")
        assert _kinds(stub.table) == ["cluster-job"]

    def test_own_and_self_announcements_ignored(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path))
        stub.table.append("submit", id="mine", tenant="t", fingerprint="fp",
                          ordinal=0, job={})
        _announce(manager, "mine", C, "fp")   # already local
        _announce(manager, "j2", A, "fp")     # echo of ourselves
        _announce(manager, 7, C, "fp")        # ids are strings
        manager._fold_terminal({"id": ["j3"], "state": DONE, "owner": C})
        assert [(job.id, job.owner) for job in stub.table.ordered()] \
            == [("mine", "")]
        assert _kinds(stub.table) == ["submit"]

    def test_reclaim_needs_death_expiry_quorum_and_the_election(
            self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path), peer_ttl=1.0)
        manager._contact(B, 1.0)
        manager._contact(C, 1.0)
        fp = _fp_owned_by(A, [A, B])   # after C dies, this hashes to us
        _announce(manager, "j1", C, fp)

        # C alive: nothing to do — a replica's lease is its owner's
        # node-level gossip, however old the announcement.
        manager._contact(B, 5.5)
        manager._contact(C, 5.5)
        manager._membership_check(5.6)
        manager._reclaim()
        assert stub.adopted == []

        # Now only B keeps answering; C falls silent and dies.
        manager._contact(B, 8.2)
        manager._membership_check(8.3)   # C last heard 5.5; 2.8s > 2xTTL
        assert manager.peers[C].state == PEER_DEAD
        manager._reclaim()
        assert stub.adopted == [("j1", C)]
        # Adoption is once: the job is ours now, rounds re-examine no-op.
        manager._reclaim()
        assert len(stub.adopted) == 1

    def test_no_reclaim_without_quorum(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path), peer_ttl=1.0)
        manager._contact(C, 1.0)
        fp = _fp_owned_by(A, [A])
        _announce(manager, "j1", C, fp)
        manager._membership_check(9.0)   # B never seen, C silent: both dead
        assert not manager.has_quorum()
        manager._reclaim()               # we may be the partitioned one
        assert stub.adopted == []

    def test_lost_election_defers_to_the_winner(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path), peer_ttl=1.0)
        manager._contact(B, 1.0)
        manager._contact(C, 1.0)
        fp = _fp_owned_by(B, [A, B])     # B's job once C is gone
        _announce(manager, "j1", C, fp)
        manager._contact(B, 8.2)
        manager._membership_check(8.3)
        manager._reclaim()
        assert stub.adopted == []        # B adopts it, not us

    def test_terminal_jobs_are_never_reclaimed(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path), peer_ttl=1.0)
        manager._contact(B, 1.0)
        manager._contact(C, 1.0)
        fp = _fp_owned_by(A, [A, B])
        _announce(manager, "j1", C, fp)
        manager._fold_terminal({"id": "j1", "state": DONE, "owner": C,
                                "cycles": 10, "ipc": 1.0})
        manager._contact(B, 8.2)
        manager._membership_check(8.3)
        manager._reclaim()
        assert stub.adopted == []

    def test_peer_terminal_folds_replicas_and_own_jobs(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path))
        # Terminal for a job we never even saw announced: a replica
        # appears, journaled, and watchers are notified.
        manager._fold_terminal({"id": "far", "state": DONE, "owner": C,
                                "fingerprint": "fp-far", "cycles": 7,
                                "ipc": 0.5})
        far = stub.table.jobs["far"]
        assert (far.owner, far.state, far.cycles) == (C, DONE, 7)
        assert _kinds(stub.table) == ["cluster-job", "cluster-terminal"]
        assert ("far", DONE) in stub.notified
        # Refolds are idempotent.
        manager._fold_terminal({"id": "far", "state": DONE, "owner": C})
        assert len(_kinds(stub.table)) == 2

        # A job *we* hold, finished elsewhere: journaled as
        # peer-terminal (knowledge, not execution) — never re-run here.
        stub.table.append("submit", id="own", tenant="t", fingerprint="fp",
                          ordinal=0, job={})
        manager._fold_terminal({"id": "own", "state": DONE, "owner": B,
                                "cycles": 3, "ipc": 0.2})
        assert _kinds(stub.table)[-1] == "peer-terminal"
        assert stub.table.jobs["own"].state == DONE
        assert "cluster.peer_terminal" in stub.kinds()

    def test_quarantine_gossip_opens_the_local_breaker(self):
        stub, manager = _manager()
        payload = {"quarantine": [{"fingerprint": "poison", "crashes": 7}]}
        manager._fold_payload(payload)
        assert stub.breaker.is_open("poison")
        assert stub.kinds().count("breaker.sync") == 1
        manager._fold_payload(payload)   # already open: no re-event
        assert stub.kinds().count("breaker.sync") == 1


class TestInboundGossip:
    def test_unknown_peers_are_refused(self):
        _, manager = _manager()
        response = manager.handle_gossip({"op": "gossip",
                                          "addr": "stranger.sock"})
        assert not response["ok"] and "unknown peer" in response["error"]

    def test_partition_fault_blocks_then_heals(self, tmp_path):
        plan = FaultPlan.parse("partition:0|1:5",
                               state_dir=str(tmp_path / "faults"))
        _, manager = _manager(_StubDaemon(tmp_path / "state"), faults=plan)
        frame = {"op": "gossip", "addr": B, "index": 1}
        blocked = manager.handle_gossip(frame)
        assert not blocked["ok"] and "partition" in blocked["error"]
        assert manager.peers[B].state == PEER_UNKNOWN   # never contacted

        manager.rounds = 5                              # heal point reached
        healed = manager.handle_gossip(frame)
        assert healed["ok"] and healed["addr"] == A
        assert manager.peers[B].state == PEER_UP
        assert {"members", "jobs", "terminals",
                "quarantine"} <= set(healed)

    def test_payload_separates_live_jobs_from_terminals(self, tmp_path):
        stub, manager = _manager(_StubDaemon(tmp_path))
        for job_id, fp in (("q1", "fq"), ("d1", "fd")):
            stub.table.append("submit", id=job_id, tenant="t",
                              fingerprint=fp, ordinal=stub.table.next_index,
                              job={"s": 1})
        stub.table.append("done", id="d1", fingerprint="fd", cycles=9,
                          ipc=1.5)
        # Replicas are their owners' to announce, live or finished.
        manager._fold_job({"id": "r1", "owner": C, "fingerprint": "fr",
                           "job": {"s": 3}})
        manager._fold_terminal({"id": "r2", "state": DONE, "owner": C,
                                "fingerprint": "fs", "cycles": 1,
                                "ipc": 1.0})
        stub.breaker.record_crash("bad-fp")
        stub.breaker.record_crash("bad-fp")
        payload = manager._payload()
        assert [j["id"] for j in payload["jobs"]] == ["q1"]
        assert [t["id"] for t in payload["terminals"]] == ["d1"]
        assert payload["terminals"][0]["state"] == DONE
        assert payload["quarantine"] == [{"fingerprint": "bad-fp",
                                          "crashes": 2}]
        assert payload["members"][0] == {"addr": A, "state": PEER_UP}

    def test_view_reports_the_membership_table(self, tmp_path):
        _, manager = _manager(_StubDaemon(tmp_path))
        manager._fold_job({"id": "r1", "owner": C, "fingerprint": "fr",
                           "job": {}})
        view = manager.view()
        assert view["advertise"] == A and view["size"] == 3
        assert view["quorum"] and not view["degraded"]
        assert view["remote_jobs"] == 1
        assert {peer["addr"] for peer in view["peers"]} == {B, C}


class TestReplicasInTheStore:
    """A clustered daemon keeps its peers' jobs in its one job store."""

    def _daemon(self, tmp_path, **kwargs):
        return SchedulerDaemon(state_dir=tmp_path / "state",
                               cache_dir=tmp_path / "cache", workers=1,
                               log=io.StringIO(), cluster_members=[A, B, C],
                               advertise=A, **kwargs)

    def test_a_replica_survives_the_snapshot_fallback(self, tmp_path):
        # A journal path that is a directory: every append fails.
        (tmp_path / "state" / "journal.jsonl").mkdir(parents=True)
        first = self._daemon(tmp_path)
        first.recover()
        with pytest.warns(RuntimeWarning, match="not appendable"):
            first.table.append("submit", id="own", tenant="t",
                               fingerprint="fp-own", ordinal=0,
                               job={"seed": 1})
            _announce(first.cluster, "far", B, "fp-far")
        assert first.table.close()   # the lost appends' snapshot landed

        second = self._daemon(tmp_path)
        assert second.recover() == 1
        assert [(job.id, job.owner) for job in second.table.ordered()] \
            == [("own", ""), ("far", B)]
        assert second.queue.pop() == "own" and second.queue.pop() is None
        status = second._op_status()
        assert sum(status["jobs"].values()) == status["jobs"][QUEUED] == 1
        assert status["cluster"]["remote_jobs"] == 1

    def test_a_restart_refolds_replicas_from_the_journal(self, tmp_path):
        first = self._daemon(tmp_path)
        first.recover()
        _announce(first.cluster, "far", B, "fp-far")
        first.cluster._fold_terminal({"id": "gone", "state": DONE,
                                      "owner": C, "fingerprint": "fp-g",
                                      "cycles": 7, "ipc": 0.5})
        assert first.table.close() is None   # nothing lost, no snapshot

        second = self._daemon(tmp_path)
        assert second.recover() == 0
        far, gone = second.table.jobs["far"], second.table.jobs["gone"]
        assert (far.owner, far.state, far.job) == (B, PENDING, {"seed": 1})
        assert (gone.owner, gone.state, gone.cycles) == (C, DONE, 7)
        assert second.table.next_index == 0   # replicas take no ordinal
        result = second._op_result({"id": "gone"})
        assert (result["state"], result["remote"]) == (DONE, C)
        assert not (tmp_path / "state" / "snapshot.json").exists()

    def test_an_older_journal_folds_to_the_same_replicas(self, tmp_path):
        # Replica records as earlier versions wrote them: a lease ttl on
        # each cluster-job, and a cluster-terminal for a job never
        # announced, which those versions dropped on restart too.
        state = tmp_path / "state"
        state.mkdir()
        journal = Journal(state / "journal.jsonl", worker="older")
        journal.append("submit", id="own", tenant="t", fingerprint="fp-own",
                       ordinal=0, job={"seed": 1})
        journal.append("cluster-job", id="far", owner=B, tenant="t",
                       fingerprint="fp-far", job={"seed": 2}, ttl=10.0)
        journal.append("cluster-job", id="gone", owner=C, tenant="t",
                       fingerprint="fp-g", job={"seed": 3}, ttl=10.0)
        journal.append("cluster-terminal", id="gone", owner=C, state=DONE,
                       cycles=7, ipc=0.5, error=None, fingerprint="fp-g")
        journal.append("cluster-terminal", id="unseen", owner=C, state=DONE,
                       cycles=8, ipc=0.5, error=None, fingerprint="fp-u")
        daemon = self._daemon(tmp_path)
        assert daemon.recover() == 1
        assert {job.id: (job.owner, job.state)
                for job in daemon.table.ordered()} == {
            "own": ("", PENDING), "far": (B, PENDING), "gone": (C, DONE)}
        assert daemon.table.next_index == 1

    def _rounds(self, manager, stub, start, stop, step=0.05):
        """Gossip rounds on the hand-held clock, B answering each one:
        the instants C is declared dead and its replica is adopted."""
        died = adopted = None
        for tick in range(int((stop - start) / step)):
            now = start + tick * step
            manager._contact(B, now)
            manager._membership_check(now)
            manager._reclaim()
            if died is None and manager.peers[C].state == PEER_DEAD:
                died = now
            if adopted is None and stub.adopted:
                adopted = now
        return died, adopted

    def test_reclaim_follows_the_owners_death_in_the_same_round(
            self, tmp_path):
        fp = _fp_owned_by(A, [A, B])
        # Learned by gossip, during a contact with its owner.
        stub, manager = _manager(_StubDaemon(tmp_path / "gossip"))
        manager._contact(C, 1.0)
        manager._fold_payload({"jobs": [{"id": "j1", "owner": C,
                                         "fingerprint": fp, "job": {}}]})
        died, adopted = self._rounds(manager, stub, 1.0, 6.0)
        assert died is not None and adopted == died
        assert stub.adopted == [("j1", C)]

        # Re-folded by a restarted daemon that never hears from C: its
        # silence counts from this incarnation's boot.
        (tmp_path / "restart").mkdir()
        JobStore(tmp_path / "restart", worker="before").append(
            "cluster-job", id="j2", owner=C, fingerprint=fp, job={})
        refolded = _StubDaemon(tmp_path / "restart")
        refolded.table.refresh()
        _, manager = _manager(refolded)
        died, adopted = self._rounds(manager, refolded, 0.0, 5.0)
        assert died is not None and adopted == died
        assert refolded.adopted == [("j2", C)]

    def test_adoption_makes_the_replica_ours_once(self, tmp_path):
        daemon = self._daemon(tmp_path, peer_ttl=1.0)
        daemon.recover()
        daemon.table.append("submit", id="own", tenant="t",
                            fingerprint="fp-own", ordinal=0, job={})
        _announce(daemon.cluster, "far", C, _fp_owned_by(A, [A, B]))
        cluster = daemon.cluster
        cluster.started = 0.0
        cluster._contact(B, 10.0)
        cluster._membership_check(10.0)   # C silent since boot: dead
        assert cluster.peers[C].state == PEER_DEAD
        cluster._reclaim()
        far = daemon.table.jobs["far"]
        assert (far.owner, far.index, daemon.table.next_index) == ("", 1, 2)
        submits = [record for record
                   in replay_journal(daemon.table.journal.path).records
                   if record["type"] == "submit"]
        assert [(r["id"], r["ordinal"], r.get("adopted_from"))
                for r in submits] == [("own", 0, None), ("far", 1, C)]
        assert daemon.queue.pop() == "far"
        cluster._reclaim()                # ours now: never adopted again
        assert len(_kinds(daemon.table)) == 3
        assert daemon.queue.pop() is None


# --------------------------------------------------------------------------- #
# client failover
# --------------------------------------------------------------------------- #

def _fake_daemon(path, response):
    """A unix-socket stub answering every request line with ``response``."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(str(path))
    server.listen(4)
    server.settimeout(0.2)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            with conn:
                fh = conn.makefile("rb")
                while fh.readline():
                    conn.sendall(encode_frame(response))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return stop, thread, server


class TestClientFailover:
    def test_jitter_is_deterministic_per_key(self, tmp_path):
        one = ServiceClient(tmp_path / "x.sock", jitter_key="alice")
        two = ServiceClient(tmp_path / "x.sock", jitter_key="alice")
        other = ServiceClient(tmp_path / "x.sock", jitter_key="bob")
        assert one.jitter == two.jitter
        assert one.jitter != other.jitter
        for client in (one, two, other):
            assert 1.0 <= client.jitter < 1.0 + 0.25
        # The jitter scales every backoff delay, identically per client.
        assert one._delay(2) == Backoff(base=0.25, cap=5.0).delay(2) \
            * one.jitter

    def test_target_parsing_and_rotation(self):
        client = ServiceClient(peers=["h:7070", "b.sock", "c.sock"],
                               jitter_key="k")
        assert client._target() == ("h", 7070, None)
        client._rotate()
        assert client._target() == (None, None, "b.sock")
        assert client.failovers == 1
        client._rotate()
        client._rotate()                       # wraps around
        assert client._target() == ("h", 7070, None)

    def test_single_target_never_rotates(self):
        client = ServiceClient(peers=["only.sock"], jitter_key="k")
        client._rotate()
        assert client.failovers == 0 and client._peer_index == 0

    def test_connect_fails_over_to_a_live_peer(self, tmp_path):
        live = tmp_path / "live.sock"
        stop, thread, server = _fake_daemon(
            live, {"ok": True, "op": "status", "fake": True})
        try:
            client = ServiceClient(
                peers=[str(tmp_path / "dead.sock"), str(live)],
                connect_attempts=3, jitter_key="k")
            response = client.request({"op": "status"})
            assert response["fake"]
            assert client.failovers >= 1       # the dead peer was skipped
            client.close()
        finally:
            stop.set()
            thread.join(timeout=5.0)
            server.close()


# --------------------------------------------------------------------------- #
# the offline audit
# --------------------------------------------------------------------------- #

def _forge(tmp_path, name, records, events=()):
    """A daemon state dir containing exactly ``records`` (checksummed)."""
    directory = tmp_path / name
    directory.mkdir()
    journal = Journal(directory / "journal.jsonl", worker=name)
    for kind, fields in records:
        journal.append(kind, **fields)
    if events:
        log = Journal(directory / "events.jsonl", worker=name)
        for kind in events:
            log.append("event", kind=kind)
    return directory


class TestOfflineAudit:
    def test_clean_single_daemon_is_strict_exactly_once(self, tmp_path):
        d = _forge(tmp_path, "s0", [
            ("submit", {"id": "a", "ordinal": 0}),
            ("done", {"id": "a", "state": DONE, "cycles": 10, "ipc": 1.0}),
        ], events=("boot",))
        report = audit_state_dirs([d])
        assert report.strict_exactly_once and report.effectively_once
        assert report.executed_dirs("a") == ["s0"]
        assert report.event_kinds() == {"boot"}
        assert "OK" in report.summary_line(strict=True)

    def test_accepted_but_never_executed_is_missing(self, tmp_path):
        d = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("done", {"id": "a", "state": DONE, "cycles": 1, "ipc": 1.0}),
            ("submit", {"id": "lost"}),
        ])
        report = audit_state_dirs([d])
        assert report.missing == ["lost"]
        assert not report.effectively_once
        assert "FAILED" in report.summary_line()

    def test_agreeing_duplicate_passes_effectively_once_only(self, tmp_path):
        # The takeover-races-reclaim shape: two daemons each accepted
        # and executed the job, bitwise-identically (shared fingerprint
        # cache).  The cluster bar tolerates it, the strict bar counts.
        rows = [("submit", {"id": "a"}),
                ("done", {"id": "a", "state": DONE, "cycles": 5,
                          "ipc": 2.0})]
        d0 = _forge(tmp_path, "s0", rows)
        d1 = _forge(tmp_path, "s1", rows)
        report = audit_state_dirs([d0, d1])
        assert report.effectively_once
        assert not report.strict_exactly_once
        assert report.duplicates == 1
        assert report.executed_dirs("a") == ["s0", "s1"]

    def test_disagreeing_states_conflict(self, tmp_path):
        d0 = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("done", {"id": "a", "state": DONE, "cycles": 5, "ipc": 2.0})])
        d1 = _forge(tmp_path, "s1", [
            ("failed", {"id": "a", "state": "failed", "error": "boom"})])
        report = audit_state_dirs([d0, d1])
        assert report.conflicting == ["a"]
        assert not report.effectively_once

    def test_same_state_different_numbers_is_a_determinism_breach(
            self, tmp_path):
        d0 = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("done", {"id": "a", "state": DONE, "cycles": 5, "ipc": 2.0})])
        d1 = _forge(tmp_path, "s1", [
            ("done", {"id": "a", "state": DONE, "cycles": 6, "ipc": 2.0})])
        assert audit_state_dirs([d0, d1]).conflicting == ["a"]

    def test_replicas_prove_knowledge_not_execution(self, tmp_path):
        # The gossiped copies of a job must never make it look
        # double-executed — that distinction is the audit's whole point.
        d0 = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("done", {"id": "a", "state": DONE, "cycles": 5, "ipc": 2.0})])
        d1 = _forge(tmp_path, "s1", [
            ("cluster-job", {"id": "a", "owner": "s0"}),
            ("cluster-terminal", {"id": "a", "state": DONE, "owner": "s0",
                                  "cycles": 5, "ipc": 2.0})])
        report = audit_state_dirs([d0, d1])
        assert report.strict_exactly_once
        assert report.duplicates == 0
        assert report.executed_dirs("a") == ["s0"]
        assert report.jobs["a"].replicated == [
            ("s1", "cluster-terminal", DONE)]

    def test_adoption_provenance_is_surfaced(self, tmp_path):
        d0 = _forge(tmp_path, "s0", [
            ("cluster-job", {"id": "a", "owner": "dead.sock"}),
            ("submit", {"id": "a", "adopted_from": "dead.sock",
                        "ordinal": 3}),
            ("done", {"id": "a", "state": DONE, "cycles": 5, "ipc": 2.0})])
        report = audit_state_dirs([d0])
        assert report.adopted == ["a"]
        assert report.jobs["a"].adopted_from == ["dead.sock"]
        assert report.effectively_once

    def test_crashes_counted_and_missing_journal_is_a_problem(
            self, tmp_path):
        d0 = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("crash", {"id": "a", "fingerprint": "fp"}),
            ("done", {"id": "a", "state": DONE, "cycles": 5, "ipc": 2.0})])
        empty = tmp_path / "s1"
        empty.mkdir()
        report = audit_state_dirs([d0, empty])
        assert report.crashes == 1
        assert report.problems == ["s1: no journal.jsonl"]
        assert not report.effectively_once   # problems fail the bar

    def test_non_terminal_state_on_a_terminal_record_is_a_problem(
            self, tmp_path):
        d0 = _forge(tmp_path, "s0", [
            ("submit", {"id": "a"}),
            ("done", {"id": "a", "state": "running"})])
        report = audit_state_dirs([d0])
        assert report.problems and "non-terminal" in report.problems[0]


# --------------------------------------------------------------------------- #
# a real three-daemon fleet over unix sockets
# --------------------------------------------------------------------------- #

class TestDrainEndsGossip:
    def test_serve_returns_when_a_round_absorbs_its_cancel(self, tmp_path):
        members = [str(tmp_path / "a.sock"), str(tmp_path / "b.sock")]
        daemon = SchedulerDaemon(
            state_dir=tmp_path / "state", cache_dir=tmp_path / "cache",
            workers=1, drain_grace=1.0, log=io.StringIO(),
            cluster_members=members, advertise=members[0],
            gossip_interval=0.05, peer_ttl=1.0)
        absorbed = []

        async def gossip_round():
            # The first round swallows the cancel serve() sends after the
            # drain, as asyncio.wait_for does when the exchange it awaits
            # completes in the step the cancel arrives; later rounds are
            # instant.
            if absorbed:
                return
            in_round.set()
            try:
                await asyncio.sleep(30)
            except asyncio.CancelledError:
                absorbed.append(True)

        daemon.cluster._gossip_round = gossip_round

        async def scenario():
            serving = asyncio.ensure_future(daemon.serve())
            await asyncio.wait_for(in_round.wait(), 10)
            await daemon.drain("test")
            try:
                return await asyncio.wait_for(serving, 10)
            except asyncio.TimeoutError:
                daemon.pool.close()
                raise

        in_round = asyncio.Event()
        assert asyncio.run(scenario()) == EXIT_OK
        assert absorbed == [True]


class TestLiveFleet:
    def test_route_execute_replicate_audit(self, tmp_path):
        members = [str(tmp_path / f"s{i}" / "serve.sock") for i in range(3)]
        daemons, threads, outcomes = [], [], []
        for i in range(3):
            daemon = SchedulerDaemon(
                state_dir=tmp_path / f"s{i}", cache_dir=tmp_path / "cache",
                workers=1, drain_grace=15.0, log=io.StringIO(),
                cluster_members=members, advertise=members[i],
                gossip_interval=0.2, peer_ttl=1.0)
            outcome = {}

            def runner(d=daemon, o=outcome):
                o["exit"] = asyncio.run(d.serve())

            thread = threading.Thread(target=runner, daemon=True,
                                      name=f"fleet-{i}")
            thread.start()
            daemons.append(daemon)
            threads.append(thread)
            outcomes.append(outcome)
        try:
            deadline = time.monotonic() + 15.0
            while not all(d.socket_path.exists() for d in daemons):
                assert time.monotonic() < deadline, "fleet never bound"
                time.sleep(0.02)

            client = ServiceClient(peers=members, timeout=30.0,
                                   jitter_key="fleet-test")
            ids = []
            for seed in (1, 2, 3):
                job = SimJob(names=("kmeans",), scale=0.02, seed=seed,
                             config=GPUConfig.small())
                jid = f"fleet:{seed}"
                response = client.submit(jid, job.to_payload(), tenant="t")
                assert response["ok"], response
                ids.append(jid)

            # Every job reaches a terminal state *as seen from one
            # front door*: locally, via the forward response, or via
            # the gossiped replica of a peer's terminal record.
            states = {}
            deadline = time.monotonic() + 60.0
            while len(states) < len(ids):
                assert time.monotonic() < deadline, \
                    f"fleet never converged: {states}"
                for jid in ids:
                    if jid in states:
                        continue
                    result = client.result(jid)
                    if result.get("ok") and result.get("state") in TERMINAL:
                        states[jid] = result["state"]
                time.sleep(0.2)
            assert set(states.values()) == {DONE}

            # Give gossip a beat, then check the front door's view.
            time.sleep(0.6)
            status = client.status()
            cluster = status["cluster"]
            assert cluster["size"] == 3 and cluster["quorum"]
            assert all(peer["state"] == PEER_UP
                       for peer in cluster["peers"])
            client.close()
        finally:
            for member, thread in zip(members, threads):
                try:
                    with ServiceClient(member, timeout=10.0) as closer:
                        closer.drain()
                except Exception:
                    pass
            for thread in threads:
                thread.join(timeout=30.0)
        assert all(not t.is_alive() for t in threads), "fleet did not drain"
        assert [o.get("exit") for o in outcomes] == [EXIT_OK] * 3

        # The offline story must agree: three journals, every job
        # executed exactly once fleet-wide, replicas on the others.
        report = audit_state_dirs([tmp_path / f"s{i}" for i in range(3)])
        assert report.strict_exactly_once, report.summary_line(strict=True)
        assert len(report.jobs) >= 3
