"""Chaos drills: kill, wedge and partition the durable paths until they
prove themselves.

The durability claims of :mod:`repro.design.campaign` and
:mod:`repro.service` are only worth anything under fire.  One harness
sets each topology on fire:

* **shards** (:func:`run_chaos`) — rounds of concurrent ``repro-exp
  --design FILE --shard`` worker processes, each with a seeded
  ``kill-worker:K`` fault, restarted until the campaign converges, then
  one clean round;
* **daemon** (:func:`run_service_chaos`) — one ``repro-serve`` daemon
  SIGKILLed and restarted under in-worker kills, a wedged poison job and
  a dropped socket frame while two clients submit the design;
* **fleet** (:func:`run_cluster_chaos`) — three peered daemons under a
  seeded partition; the partitioned victim is SIGKILLed with jobs in
  flight and never restarted.

Every drill runs on one skeleton (:class:`_Drill`): the fault-free
reference is each cell's job executed in-process (no store, no cache),
every process starts through one spawn helper, and one verdict compares
each cell's result with the reference bit for bit and, for the daemon
and the fleet, folds every journal through
:func:`repro.service.audit.audit_state_dirs`.  The outcome is one
:class:`DrillReport`; it is ``ok`` only if every check its topology
names in :data:`TOPOLOGIES` held.

Run a drill directly (the Makefile's ``*-chaos-smoke`` targets do)::

    python -m repro.service.chaos examples/shard_demo.toml \\
        --shards 2 --min-kills 5 --seed 7 --root .repro-chaos
    python -m repro.service.chaos examples/lcs_threshold.toml --service
    python -m repro.service.chaos examples/lcs_threshold.toml --cluster

The kill points and fault specs are fixed by ``--seed``; the fleet's
victim is fixed by the design and the socket paths under ``--root``.
Wall time is bounded per worker process and per drill.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..design.campaign import Campaign
from ..design.env import DesignEnv
from ..design.files import load_design
from ..design.store import DONE, job_id
from ..harness.cache import ResultCache
from ..harness.engine import Backoff
from ..harness.faults import KILL_EXIT_CODE, child_env
from ..harness.jobs import SimJob
from .audit import AuditReport, audit_state_dirs
from .client import ServiceClient, ServiceError
from .cluster import rendezvous_owner
from .protocol import QUARANTINED, QUEUED, TERMINAL

#: Lease TTL of the shard drill: short enough that a killed worker's
#: leases expire between rounds (the production default of 30s would
#: stall the whole drill waiting for reclaims).
DEFAULT_CHAOS_TTL = 3.0

#: Hard per-worker-process bound of the shard drill, and the overall
#: bound of a daemon or fleet drill (a wedged process fails the drill
#: instead of hanging it).
WORKER_TIMEOUT = 180.0
DRILL_TIMEOUT = 300.0

#: The poison job: the first cell's job under a seed no real cell uses
#: (so a fingerprint of its own), submitted before any client so it owns
#: dispatch ordinal 0, where ``worker-wedge:0`` fires on every attempt.
POISON_ID = "poison:0"
_POISON_SEED = 99991

#: Fleet tuning: gossip rounds before the injected partition heals,
#: gossip interval and peer TTL (seconds), and how long the victim runs
#: before its SIGKILL.
_PARTITION_ROUNDS = 12
_GOSSIP_INTERVAL = 0.25
_PEER_TTL = 1.0
_KILL_AFTER = 2.0


@dataclass(frozen=True)
class Topology:
    """One drill topology: its defaults and the checks it must pass."""

    root: str                       # state directory unless told otherwise
    scale: float                    # compile scale (a file's pin wins)
    checks: tuple[str, ...]
    #: ``(check, event kinds, outside the home daemon only)``: the check
    #: holds when every kind was journaled (events.jsonl).
    events: tuple[tuple[str, tuple[str, ...], bool], ...] = ()


TOPOLOGIES = {
    "shards": Topology(".repro-chaos", 0.1, ("converged", "identical")),
    "daemon": Topology(
        ".repro-service-chaos", 0.02,
        ("converged", "identical", "exactly-once", "poison-quarantined",
         "drain-clean", "shed", "breaker"),
        (("shed", ("admission.shed",), False),
         ("breaker", ("breaker.open",), False))),
    "fleet": Topology(
        ".repro-cluster-chaos", 0.02,
        ("converged", "identical", "effectively-once", "reclaim",
         "poison-quarantined", "quarantine-propagated", "partition",
         "drain-clean"),
        (("quarantine-propagated", ("breaker.sync",), True),
         ("partition", ("peer.dead", "cluster.degraded"), False))),
}


@dataclass
class DrillReport:
    """What one drill did and which of its named checks held.

    ``checks`` starts with every check of the topology unset (None); a
    check made twice must hold both times, and :attr:`ok` needs every
    one True, so a check the drill never reached fails too.  ``stats``
    counts what the drill did (launches, kills, incarnations...),
    ``counts`` what the store held at the end, ``mismatches`` why a
    check failed.
    """

    topology: str
    checks: dict[str, bool | None] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def failed(self) -> list[str]:
        return [name for name, held in self.checks.items() if held is not True]

    def check(self, name: str, held: object, *problems: str) -> None:
        self.checks[name] = self.checks.get(name) is not False and bool(held)
        if not held:
            self.mismatches.extend(problems)

    def summary_line(self) -> str:
        text = (f"{self.topology} chaos {'OK' if self.ok else 'FAILED'}: "
                + "".join(f"{key}={value}, "
                          for key, value in self.stats.items())
                + f"counts={self.counts}")
        if self.failed:
            text += f"; failed checks: {', '.join(self.failed)}"
        if self.mismatches:
            text += f"; first mismatch: {self.mismatches[0]}"
        return text


def _row(label: str, result: Any) -> str | None:
    """One cell's result as a canonical string (the bitwise unit)."""
    return None if result is None \
        else f"{label},{result.cycles},{result.ipc!r}"


def _client(address: str | Path, **kwargs: Any) -> ServiceClient:
    """A client that rides out a daemon restarting under it."""
    return ServiceClient(address, backoff=Backoff(base=0.2, cap=1.0),
                         **kwargs)


class _Drill:
    """The skeleton every topology runs on.

    Compiles the design under the environment the worker CLIs compute,
    executes the fault-free reference, starts processes through
    :meth:`spawn` (killing whatever still runs on exit) and judges the
    end state in :meth:`verdict`.
    """

    def __init__(self, topology: str, design_path: str | Path, *,
                 seed: int, root: str | Path | None,
                 scale: float | None) -> None:
        self.started = time.monotonic()
        self.deadline = self.started + DRILL_TIMEOUT
        self.topology = TOPOLOGIES[topology]
        self.report = DrillReport(topology,
                                  checks=dict.fromkeys(self.topology.checks))
        self.rng = random.Random(seed)
        self.workdir = Path(root if root is not None else self.topology.root)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.design_file = Path(design_path).resolve()
        self.design, pinned = load_design(self.design_file)
        self.env = DesignEnv.merged(pinned, scale=self.topology.scale
                                    if scale is None else scale)
        self.cells = self.design.compile(self.env)
        self.digest = self.design.digest(self.env)
        # Shares nothing with the drill but the design.
        self.reference = {cell.label: cell.job.execute()
                          for cell in self.cells}
        self.stop = threading.Event()
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "_Drill":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop.set()
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def spawn(self, module: str, *args: str, faults: str = "",
              state: Path | None = None, log: Path | None = None,
              cwd: Path | None = None) -> subprocess.Popen:
        """``python -m module args`` on this checkout's code, under
        exactly the fault plan ``faults`` (markers in ``state``), its
        output appended to ``log`` (discarded without one)."""
        out = open(log, "ab") if log is not None else subprocess.DEVNULL
        try:
            proc = subprocess.Popen([sys.executable, "-m", module, *args],
                                    cwd=cwd, env=child_env(faults, state),
                                    stdout=out, stderr=out)
        finally:
            if log is not None:
                out.close()
        self._procs.append(proc)
        return proc

    def finish(self) -> DrillReport:
        self.report.elapsed = time.monotonic() - self.started
        return self.report

    # ------------------------------------------------------------------ #
    # daemon and fleet steps
    # ------------------------------------------------------------------ #
    def payloads(self) -> dict[str, dict]:
        return {job_id(self.digest, cell.index): cell.job.to_payload()
                for cell in self.cells}

    def submit_poison(self, address: str | Path) -> None:
        """Pin the poison job to ``address``'s daemon before any client
        runs; the ordinal is journaled with the submit, so it survives
        restarts and the wedge keeps firing on every re-dispatch."""
        poison = SimJob.from_payload({**self.cells[0].job.to_payload(),
                                      "seed": _POISON_SEED})
        with _client(address, connect_attempts=25) as client:
            response = client.submit(POISON_ID, poison.to_payload(),
                                     tenant="poison", pin=True)
        if not response.get("ok") \
                or response.get("state") not in (QUEUED, QUARANTINED):
            self.report.mismatches.append(
                f"poison submit answered {response!r}")

    def run_clients(self, loop: Callable[[str], None],
                    storm: Callable[[], None]) -> None:
        """Two tenants run ``loop`` in threads while ``storm`` kills;
        clients still waiting at the drill deadline are given up."""
        threads = [threading.Thread(target=loop, args=(tenant,),
                                    name=f"chaos-client-{tenant}",
                                    daemon=True)
                   for tenant in ("alice", "bob")]
        for thread in threads:
            thread.start()
        storm()
        for thread in threads:
            thread.join(timeout=max(self.deadline - time.monotonic(), 1.0))
        if any(thread.is_alive() for thread in threads):
            self.stop.set()
            self.report.mismatches.append("client thread(s) still waiting "
                                          "at the drill deadline")

    def await_quarantine(self, address: str | Path) -> None:
        """Poll until the poison job is quarantined — it must get there
        without help — or the drill deadline passes."""
        while time.monotonic() < self.deadline:
            try:
                with _client(address, connect_attempts=5) as client:
                    if client.result(POISON_ID).get("state") == QUARANTINED:
                        return
            except (ServiceError, OSError, ValueError):
                pass
            time.sleep(0.5)

    def drain(self, procs: Sequence[subprocess.Popen], *,
              trace: Path | None = None) -> None:
        """SIGTERM ``procs`` together: each must exit 0 within a minute,
        and the ``trace`` lane the drained daemon writes must parse."""
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                code = proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = f"{proc.wait()} after ignoring SIGTERM for 60s"
            self.report.check("drain-clean", code == 0,
                              f"daemon pid {proc.pid} drained with exit "
                              f"{code}")
        if trace is not None and self.report.checks["drain-clean"]:
            try:
                json.loads(trace.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                self.report.check("drain-clean", False,
                                  f"drained daemon's trace is unusable: "
                                  f"{error}")

    # ------------------------------------------------------------------ #
    # the verdict
    # ------------------------------------------------------------------ #
    def verdict(self, done: set[str], results: Mapping[str, Any]) -> None:
        """Converged and identical: every design cell (by label) reached
        ``done``, and its result — anything with ``cycles`` and ``ipc`` —
        equals the reference bit for bit."""
        stuck = [cell.label for cell in self.cells if cell.label not in done]
        self.report.check("converged", not stuck,
                          f"design cells not done: {stuck}")
        wrong = []
        for cell in self.cells:
            want = _row(cell.label, self.reference[cell.label])
            got = _row(cell.label, results.get(cell.label))
            if got != want:
                wrong.append(f"expected {want!r}, got {got!r}")
        self.report.check("identical", not wrong, *wrong)

    def campaign_verdict(self, store: Path) -> None:
        """The shards verdict, from the campaign journal under ``store``
        (duplicate completions from lease races are counted, not
        failed)."""
        campaign = Campaign.open(self.design, self.env, root=store)
        self.report.stats["duplicate_done"] = campaign.store.duplicate_done
        self.report.counts = campaign.counts()
        done = {cell.label: cell for cell in campaign.cells
                if cell.status == DONE}
        self.verdict(set(done), done)

    def audit_verdict(self, state_dirs: Sequence[Path],
                      cache_dir: Path) -> AuditReport:
        """The daemon and fleet verdict, from every journal with every
        daemon stopped: :meth:`verdict` on the ``done`` records and the
        shared cache, the exactly-once (one daemon) or effectively-once
        (fleet) bar, the poison quarantined once, at ordinal 0, on the
        daemon it was pinned to (``state_dirs[0]``), the reclaim the
        fleet's rendezvous hashing demands, and the event checks."""
        report = self.report
        audit = audit_state_dirs(state_dirs)
        home = Path(state_dirs[0]).name
        cache = ResultCache(cache_dir)
        ids = {job_id(self.digest, cell.index): cell for cell in self.cells}
        done = {cell.label for rid, cell in ids.items()
                if DONE in audit.states_of(rid)}
        self.verdict(done, {cell.label: cache.get(cell.job.fingerprint())
                            for cell in self.cells})
        report.counts = {"done": len(done), "cells": len(ids),
                         "accepted": sum(1 for job in audit.jobs.values()
                                         if job.accepted_in),
                         "jobs": len(audit.jobs)}

        problems = list(audit.problems)
        if audit.missing:
            problems.append(f"accepted, never executed: {audit.missing}")
        if audit.conflicting:
            problems.append(f"conflicting terminals: {audit.conflicting}")
        once, held = "effectively-once", audit.effectively_once
        if "exactly-once" in report.checks:
            once, held = "exactly-once", audit.strict_exactly_once
            doubled = sorted(rid for rid, job in audit.jobs.items()
                             if job.duplicates)
            if doubled:
                problems.append(f"multiple terminal records: {doubled}")
        report.check(once, held, *problems)

        poison = audit.jobs.get(POISON_ID)
        report.check("poison-quarantined",
                     poison is not None and poison.states == {QUARANTINED}
                     and [name for name, *_ in poison.executed] == [home]
                     and poison.ordinals[:1] == [0],
                     f"poison job not quarantined once at ordinal 0 on "
                     f"{home}: {poison!r}")

        kinds = audit.event_kinds()
        if "reclaim" in report.checks:
            report.check("reclaim", audit.adopted
                         or "cluster.reclaim" in kinds
                         or not report.stats["expected_reclaim"],
                         "no job was adopted from the dead victim despite "
                         "rendezvous demanding it")
        for name, wanted, elsewhere in self.topology.events:
            seen = set().union(*(found for where, found
                                 in audit.events.items()
                                 if not (elsewhere and where == home)))
            missing = [kind for kind in wanted if kind not in seen]
            report.check(name, not missing,
                         f"never journaled"
                         f"{' outside ' + home if elsewhere else ''}: "
                         f"{missing}")
        return audit


def run_chaos(design_path: str | Path, *, shards: int = 2,
              min_kills: int = 5, max_rounds: int = 12, seed: int = 7,
              root: str | Path | None = None, scale: float | None = None,
              lease_ttl: float = DEFAULT_CHAOS_TTL,
              kill_span: int = 4) -> DrillReport:
    """Kill/restart drill against a durable campaign's shard workers.

    Rounds of ``shards`` concurrent worker processes run until the
    campaign converges and at least ``min_kills`` workers died at
    injected points (at most ``max_rounds`` rounds), then one clean
    round.  Kill points are journal-append ordinals in ``[0, kill_span]``
    from ``random.Random(seed)`` — low, so workers die with cells in
    flight (ordinal 0 is the harshest: killed right after persisting the
    first claim, before any work).  Between rounds the drill waits out
    ``lease_ttl`` so the next round exercises the reclaim path rather
    than bouncing off live-looking claims.
    """
    drill = _Drill("shards", design_path, seed=seed, root=root, scale=scale)
    stats = drill.report.stats
    stats.update(rounds=0, launches=0, kills=0)
    store = drill.workdir / "camps"

    def launch_round(*, kill: bool) -> None:
        procs = []
        for shard in range(shards):
            name = f"r{stats['rounds']}-w{shard}"
            procs.append(drill.spawn(
                "repro.harness.cli", "--design", str(drill.design_file),
                "--shard", "--campaign-dir", store.name,
                "--worker-id", f"chaos-{name}",
                "--lease-ttl", str(lease_ttl), "--scale", str(drill.env.scale),
                faults=(f"kill-worker:{drill.rng.randint(0, kill_span)}"
                        if kill else ""),
                state=(drill.workdir / f"faults-{name}").resolve(),
                cwd=drill.workdir))
            stats["launches"] += 1
        for proc in procs:
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                drill.report.mismatches.append(
                    f"worker subprocess exceeded {WORKER_TIMEOUT:.0f}s")
                continue
            if code == KILL_EXIT_CODE:
                stats["kills"] += 1

    with drill:
        while stats["rounds"] < max_rounds:
            stats["rounds"] += 1
            launch_round(kill=True)
            campaign = Campaign.open(drill.design, drill.env, root=store)
            if all(cell.status == DONE for cell in campaign.cells) \
                    and stats["kills"] >= min_kills:
                break
            time.sleep(lease_ttl)
        # Whatever the last kills dropped, a fault-free worker must be
        # able to finish: that is the resume contract.
        launch_round(kill=False)
    drill.campaign_verdict(store)
    return drill.finish()


def run_service_chaos(design_path: str | Path, *, daemon_kills: int = 2,
                      seed: int = 7, root: str | Path | None = None,
                      scale: float | None = None, workers: int = 2,
                      queue_depth: int = 3, breaker_threshold: int = 2,
                      hb_timeout: float = 1.5,
                      kill_window: tuple[float, float] = (1.5, 3.5),
                      ) -> DrillReport:
    """SIGKILL/restart drill against one live ``repro-serve`` daemon.

    Every incarnation runs one fault plan: the poison job wedging at
    dispatch ordinal 0, in-worker ``kill:K`` faults on seeded ordinals
    and one seeded ``socket-drop``; marker files keep once-semantics
    across restarts.  Admission is tight, a short queue and one token
    per tenant refilled five times a second, so the two concurrent
    clients (same design, different tenants) must get shed: they submit
    the same cells, so one of them is first with at least two.  The daemon
    is SIGKILLed and restarted ``daemon_kills`` times, a seeded
    ``kill_window`` apart, then SIGTERM-drained.
    """
    drill = _Drill("daemon", design_path, seed=seed, root=root, scale=scale)
    stats = drill.report.stats
    stats.update(incarnations=0, daemon_kills=0)
    state_dir = drill.workdir / "state"
    cache_dir = drill.workdir / "cache"
    sock = state_dir / "serve.sock"
    faults_state = drill.workdir / "faults-state"
    faults_state.mkdir(exist_ok=True)
    kill_ordinals = drill.rng.sample(range(1, len(drill.cells) + 1),
                                     k=min(2, len(drill.cells)))
    stats["worker_kill_faults"] = len(kill_ordinals)
    spec = ",".join(["worker-wedge:0"]
                    + [f"kill:{ordinal}" for ordinal in kill_ordinals]
                    + [f"socket-drop:{drill.rng.randint(3, 9)}"])

    def trace() -> Path:
        return drill.workdir / f"trace-{stats['incarnations']}.json"

    def start() -> subprocess.Popen:
        stats["incarnations"] += 1
        return drill.spawn(
            "repro.service.daemon", "--state-dir", str(state_dir),
            "--cache-dir", str(cache_dir), "--socket", str(sock),
            "--workers", str(workers), "--queue-depth", str(queue_depth),
            "--burst", "1", "--rate", "5",
            "--breaker-threshold", str(breaker_threshold),
            "--hb-timeout", str(hb_timeout), "--drain-grace", "30",
            "--trace", str(trace()), faults=spec, state=faults_state,
            log=drill.workdir / "daemon.log")

    def client_loop(tenant: str) -> None:
        """Submit every cell, then watch to terminal, riding out daemon
        kills, sheds and dropped frames; idempotent ids do the rest."""
        pending = drill.payloads()
        while pending and not drill.stop.is_set():
            client = _client(sock, connect_attempts=25)
            try:
                for cid, payload in list(pending.items()):
                    response = client.submit(cid, payload, tenant=tenant,
                                             shed_retries=50)
                    if response.get("state") in TERMINAL:
                        del pending[cid]
                if pending:
                    for cid, frame in client.watch(list(pending)).items():
                        if frame.get("state") in TERMINAL:
                            pending.pop(cid, None)
            except (ServiceError, OSError, ValueError):
                time.sleep(0.3)
            finally:
                client.close()

    daemons = []

    def storm() -> None:
        for _ in range(daemon_kills):
            time.sleep(drill.rng.uniform(*kill_window))
            daemons[-1].kill()                  # SIGKILL: no goodbyes
            daemons[-1].wait()
            stats["daemon_kills"] += 1
            time.sleep(0.3)
            daemons.append(start())

    with drill:
        daemons.append(start())
        drill.submit_poison(sock)
        drill.run_clients(client_loop, storm)
        drill.await_quarantine(sock)
        drill.drain(daemons[-1:], trace=trace())
    drill.audit_verdict([state_dir], cache_dir)
    return drill.finish()


def run_cluster_chaos(design_path: str | Path, *, seed: int = 7,
                      root: str | Path | None = None) -> DrillReport:
    """SIGKILL + partition drill against a three-daemon fleet.

    Three daemons peered over unix sockets share one result cache, each
    with its own state dir and journal.  A seeded ``partition:0-V|M:R``
    fault splits the victim's side from the minority from boot; node 0
    carries the wedged poison job (pinned, dispatch ordinal 0); the
    victim's first jobs are slowed by ``delay`` faults so they are still
    in flight when it is SIGKILLed mid-partition, never to return.  Two
    clients poll-submit the design across the fleet's full address list,
    riding sheds (the quorum-less minority must refuse) and the outage
    between the kill and the heal.

    The victim is chosen so that rendezvous hashing makes node 0 the
    post-mortem owner of at least one of its jobs when the fingerprints
    allow (``stats["expected_reclaim"]``): after the heal, node 0 and
    the minority re-form a majority, declare the victim dead, and node 0
    must adopt and re-execute those jobs from its replicated
    ``cluster-job`` records.
    """
    drill = _Drill("fleet", design_path, seed=seed, root=root, scale=None)
    stats = drill.report.stats
    cache_dir = drill.workdir / "cache"
    state_dirs = [drill.workdir / f"state-{node}" for node in range(3)]
    addrs = [str(state_dir / "serve.sock") for state_dir in state_dirs]
    fingerprints = [cell.job.fingerprint() for cell in drill.cells]

    def reclaimable(victim: int) -> int:
        """Jobs the partition routes to ``victim`` (rendezvous over the
        {0, victim} pair) that re-hash to node 0 over the post-mortem
        survivor pair {0, minority}."""
        minority = 3 - victim
        return sum(
            1 for fp in fingerprints
            if rendezvous_owner(fp, [addrs[0], addrs[victim]])
            == addrs[victim]
            and rendezvous_owner(fp, [addrs[0], addrs[minority]])
            == addrs[0])

    victim = max((1, 2), key=reclaimable)
    minority = 3 - victim
    stats.update(daemons=3, victim=victim,
                 expected_reclaim=reclaimable(victim) > 0, daemon_kills=0)
    partition = f"partition:0-{victim}|{minority}:{_PARTITION_ROUNDS}"
    # The victim's first dispatches sleep long enough to still be in
    # flight at the SIGKILL (its heartbeats continue: slow, not wedged).
    slow = ",".join(f"delay:{ordinal}:6" for ordinal in range(3))
    specs = {0: f"worker-wedge:0,{partition}",
             victim: f"{slow},{partition}",
             minority: partition}

    def start(node: int) -> subprocess.Popen:
        state_dirs[node].mkdir(parents=True, exist_ok=True)
        return drill.spawn(
            "repro.service.daemon", "--state-dir", str(state_dirs[node]),
            "--cache-dir", str(cache_dir), "--socket", addrs[node],
            "--cluster", ",".join(addrs),
            "--gossip-interval", str(_GOSSIP_INTERVAL),
            "--peer-ttl", str(_PEER_TTL), "--workers", "2",
            "--breaker-threshold", "2", "--hb-timeout", "1.0",
            "--drain-grace", "30", faults=specs[node],
            state=drill.workdir / f"faults-state-{node}",
            log=drill.workdir / f"daemon-{node}.log")

    def client_loop(tenant: str) -> None:
        """Poll-submit every cell across the peer list until terminal:
        the submission is the probe and the takeover trigger, since
        re-submitting a dead daemon's job to a survivor is the
        client-side failover the fleet promises to absorb."""
        pending = drill.payloads()
        client = ServiceClient(*addrs, timeout=10.0,
                               connect_attempts=25,
                               jitter_key=f"cluster-chaos-{tenant}")
        try:
            while pending and not drill.stop.is_set():
                progressed = False
                for cid, payload in list(pending.items()):
                    try:
                        response = client.submit(cid, payload,
                                                 tenant=tenant,
                                                 shed_retries=3)
                    except (ServiceError, OSError, ValueError):
                        time.sleep(0.3)
                        continue
                    if response.get("state") in TERMINAL:
                        del pending[cid]
                        progressed = True
                if pending and not progressed:
                    time.sleep(0.5)
        finally:
            client.close()

    def victim_up() -> bool:
        try:
            with _client(addrs[0], connect_attempts=5) as client:
                view = client.status().get("cluster") or {}
        except (ServiceError, OSError, ValueError):
            return False
        return any(peer.get("addr") == addrs[victim]
                   and peer.get("state") == "up"
                   for peer in view.get("peers") or [])

    def storm() -> None:
        time.sleep(_KILL_AFTER + drill.rng.uniform(0.0, 0.5))
        daemons[victim].kill()
        daemons[victim].wait()
        stats["daemon_kills"] += 1

    with drill:
        daemons = [start(node) for node in range(3)]
        drill.submit_poison(addrs[0])
        # Routing spreads only once gossip has met the victim (an unmet
        # peer is not in the rendezvous set), and the drill rests on the
        # victim owning jobs when it dies: hold the clients until node 0
        # reports the victim UP.
        while not victim_up():
            if time.monotonic() > drill.started + 15.0:
                drill.report.mismatches.append(
                    "node 0 never saw the victim UP — gossip is not running")
                break
            time.sleep(0.1)
        drill.run_clients(client_loop, storm)
        drill.await_quarantine(addrs[0])
        # Let gossip sync the quarantine to the minority before draining.
        time.sleep(4 * _GOSSIP_INTERVAL)
        drill.drain([daemons[0], daemons[minority]])
    audit = drill.audit_verdict(state_dirs, cache_dir)
    stats.update(adopted=len(audit.adopted), duplicates=audit.duplicates)
    return drill.finish()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="Chaos drills: shard workers of a durable campaign "
                    "(default), one repro-serve daemon (--service) or a "
                    "three-daemon fleet (--cluster).")
    parser.add_argument("design", help="design file to drill (TOML/JSON)")
    topology = parser.add_mutually_exclusive_group()
    topology.add_argument("--service", action="store_true",
                          help="drill one daemon: SIGKILLs and restarts, "
                               "worker kills, a wedged poison job, socket "
                               "drops, concurrent clients")
    topology.add_argument("--cluster", action="store_true",
                          help="drill a three-daemon fleet: a seeded "
                               "partition, a SIGKILLed (never restarted) "
                               "victim, lease-based job handoff, a pinned "
                               "poison job, an all-journal audit")
    parser.add_argument("--shards", type=int, default=None,
                        help="concurrent shard workers per round "
                             "(default 2; shard drill only)")
    parser.add_argument("--min-kills", type=int, default=None,
                        help="keep drilling until this many shard workers "
                             "died at injected points (default 5; shard "
                             "drill only)")
    parser.add_argument("--seed", type=int, default=7,
                        help="RNG seed for kill points and faults "
                             "(default 7)")
    parser.add_argument("--root", default=None,
                        help="working directory for the drill's state "
                             "(default .repro-chaos/, "
                             ".repro-service-chaos/ or "
                             ".repro-cluster-chaos/)")
    args = parser.parse_args(argv)
    shard_args = {key: value for key, value in (
        ("shards", args.shards), ("min_kills", args.min_kills))
        if value is not None}
    if shard_args and (args.service or args.cluster):
        parser.error("--shards and --min-kills apply to the shard drill "
                     "only")
    name = "fleet" if args.cluster else "daemon" if args.service \
        else "shards"
    root = args.root or TOPOLOGIES[name].root
    run = {"shards": run_chaos, "daemon": run_service_chaos,
           "fleet": run_cluster_chaos}[name]
    report = run(args.design, seed=args.seed, root=root, **shard_args)
    print(report.summary_line())
    print(f"[{name} chaos: {report.elapsed:.1f}s, state under {root}/]",
          file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":   # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
