"""Deterministic fault injection for the batch engine.

Every recovery path in :mod:`repro.harness.engine` — transient retry,
worker respawn, per-job deadlines, cache-corruption misses — is
exercised by *injecting* the corresponding failure at a known point.  A
:class:`FaultPlan` is a small, picklable schedule of faults keyed by the
job's index within its batch, evaluated inside the worker (or the inline
path) just before the job executes.

Spec grammar (one or more comma/semicolon-separated entries)::

    fail:K          job K raises InjectedFault on every attempt
                    (a deterministic simulation bug: never retried)
    flaky:K         job K raises InjectedTransientFault once, then runs
                    (a transient worker error: retried and recovered)
    kill:K          the worker running job K dies with os._exit once
                    (an OOM-kill: that one worker is replaced and the
                    job retried; inline execution degrades to a
                    transient raise)
    kill-at:K:C     the worker running job K dies with os._exit once,
                    *mid-run* at simulated cycle C (a crash with work in
                    flight: resume-from-checkpoint territory; inline
                    execution degrades to a transient raise)
    delay:K:S       job K sleeps S seconds before executing
                    (a runaway job: trips the pool's --timeout backstop)
    corrupt:K       job K's cache entry is overwritten with garbage
                    right after it is written (a torn/corrupted entry:
                    the next read must quarantine + miss, never crash)
    corrupt:K:C     job K's *live simulation state* is corrupted once at
                    simulated cycle C (a bookkeeping bug: --sanitize must
                    catch it at the next window boundary; without the
                    sanitizer the run silently completes wrong)

Campaign-grade faults address the durable-campaign layer
(:mod:`repro.design.campaign`) instead of a job; their index K is the
worker's *journal append ordinal*, not a batch position::

    kill-worker:K       the campaign process dies with os._exit right
                        after its K-th journal append, once (a worker
                        crash mid-batch: leases must expire and another
                        worker — or a restart — must reclaim its cells)
    torn-tail:K         the K-th appended journal record is chopped in
                        half, once (a torn write: replay must drop the
                        tail, never crash)
    corrupt-journal:K   a byte inside the K-th appended record is
                        scribbled, once (bit rot: replay must skip
                        exactly that record)
    stall-heartbeat:0   the worker's heartbeat thread never starts (a
                        wedged worker: its leases expire at TTL and the
                        cells are reclaimed by someone else)
    fail-append:K       every journal append from ordinal K on raises
                        OSError (disk full / read-only store: the
                        campaign must warn once and degrade to
                        snapshot-on-exit durability, not abort)

Service-grade faults address the scheduler daemon (:mod:`repro.service`);
their index K is a protocol or dispatch ordinal, not a batch position::

    slow-client:K[:S]   the client stalls S seconds (default 1.0) halfway
                        through writing its K-th protocol frame, once (a
                        slow/hung client: the asyncio daemon must keep
                        serving every other connection meanwhile)
    socket-drop:K       the daemon drops a client connection right after
                        its K-th received frame, once (a flaky network:
                        the client must reconnect and resubmit — safe,
                        because submissions are idempotent by job id)
    worker-wedge:K      the pool worker running job (or dispatch
                        ordinal) K goes silent (heartbeats stop, the job
                        hangs) on EVERY attempt — a poison job: the
                        pool's heartbeat watchdog must kill + respawn the
                        worker each time, and the daemon's circuit
                        breaker must quarantine the fingerprint instead
                        of letting it stall the queue (in-process slots
                        degrade the wedge to a transient crash,
                        mirroring ``kill``)

Cluster-grade faults address the federation layer
(:mod:`repro.service.cluster`); they are keyed by *node index* (a
daemon's position in its ``--cluster`` member list), not a job::

    partition:A|B:CYCLES    a network partition: nodes in group A cannot
                            exchange gossip or forwarded frames with
                            nodes in group B (checked symmetrically by
                            sender and receiver) until the local daemon
                            has completed CYCLES gossip rounds, then the
                            partition heals.  Groups are dash-separated
                            node indices, e.g. ``partition:0-1|2:8``
                            splits a three-node fleet 2/1 for 8 rounds.
                            Not once-only: the partition is a *window*,
                            active from boot until it heals.

"once" semantics survive process boundaries through marker files in a
shared state directory (``O_CREAT | O_EXCL`` — exactly one process wins),
so a killed-and-retried job really does succeed on its second attempt
(and a killed-and-restarted campaign worker does not die again at the
same append).

Plans come from three places: tests construct them directly, the CLIs
accept ``--faults SPEC``, and :meth:`FaultPlan.from_env` reads the
``REPRO_FAULTS`` environment variable (state directory override:
``REPRO_FAULTS_STATE``) so CI can inject failures without new flags.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

#: Environment variables honoured by :meth:`FaultPlan.from_env`.
ENV_SPEC = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"

#: Exit status used by ``kill`` faults (visible in worker-crash logs).
KILL_EXIT_CODE = 86


def child_env(faults: str | None = None,
              state_dir: str | Path | None = None) -> dict[str, str]:
    """The environment for a ``python -m repro...`` child process.

    This process's environment with this checkout's ``src`` first on
    ``PYTHONPATH``, so the child runs the same code.  ``faults`` replaces
    the inherited fault plan: a spec installs it (``state_dir`` keeps its
    once-markers), ``""`` clears it, None keeps this process's own.
    """
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    if faults is not None:
        env.pop(ENV_SPEC, None)
        env.pop(ENV_STATE, None)
        if faults:
            env[ENV_SPEC] = faults
            env[ENV_STATE] = str(state_dir)
    return env


_ACTIONS = ("fail", "flaky", "kill", "kill-at", "delay", "corrupt",
            "kill-worker", "torn-tail", "corrupt-journal",
            "stall-heartbeat", "fail-append",
            "slow-client", "socket-drop", "worker-wedge",
            "partition")

#: The campaign-journal faults fired after an append completes, in the
#: order they are applied when several target the same ordinal.
_JOURNAL_POST_APPEND = ("torn-tail", "corrupt-journal", "kill-worker")


class FaultSpecError(ValueError):
    """A malformed fault-injection spec string."""


class InjectedFault(RuntimeError):
    """A deterministic injected failure (never retried)."""


class InjectedTransientFault(OSError):
    """A transient injected failure (classified as retryable)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: what to do, to which job, with what argument.

    ``partition`` faults are not job-addressed; they carry their group
    spec (``"0-1|2"``) in :attr:`text` and the heal round in :attr:`arg`
    (:attr:`index` is unused and pinned to 0).
    """

    action: str
    index: int
    arg: float | None = None
    text: str | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise FaultSpecError(f"unknown fault action {self.action!r}; "
                                 f"available: {', '.join(_ACTIONS)}")
        if self.index < 0:
            raise FaultSpecError(f"fault index must be >= 0, got {self.index}")
        if self.action == "delay" and (self.arg is None or self.arg < 0):
            raise FaultSpecError("delay faults need a non-negative duration: "
                                 "delay:K:SECONDS")
        if self.action == "kill-at" and (self.arg is None or self.arg < 0):
            raise FaultSpecError("kill-at faults need a target cycle: "
                                 "kill-at:K:CYCLE")
        if self.action == "corrupt" and self.arg is not None and self.arg < 0:
            raise FaultSpecError("in-flight corrupt faults need a "
                                 "non-negative cycle: corrupt:K:CYCLE")
        if self.action == "partition":
            if self.arg is None or self.arg < 1:
                raise FaultSpecError("partition faults need a heal round "
                                     ">= 1: partition:A|B:CYCLES")
            _parse_partition_groups(self.text or "")

    def partition_groups(self) -> tuple[frozenset, frozenset]:
        """The two node-index groups of a ``partition`` fault."""
        if self.action != "partition":
            raise FaultSpecError(f"{self.action!r} fault has no groups")
        return _parse_partition_groups(self.text or "")


def _parse_partition_groups(spec: str) -> tuple[frozenset, frozenset]:
    """``"0-1|2"`` -> ``(frozenset({0, 1}), frozenset({2}))``; validates."""
    sides = spec.split("|")
    if len(sides) != 2:
        raise FaultSpecError(f"partition groups must be GROUP|GROUP with "
                             f"dash-separated node indices, got {spec!r}")
    groups = []
    for side in sides:
        try:
            members = frozenset(int(n) for n in side.split("-") if n != "")
        except ValueError:
            raise FaultSpecError(
                f"bad node index in partition group {side!r}") from None
        if not members:
            raise FaultSpecError(f"empty partition group in {spec!r}")
        groups.append(members)
    if groups[0] & groups[1]:
        raise FaultSpecError(f"partition groups overlap in {spec!r}: "
                             f"{sorted(groups[0] & groups[1])}")
    return groups[0], groups[1]


def _remove_state_dir(path: str, owner: int) -> None:
    """Remove a plan's temporary state directory, in its maker only."""
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


class FaultPlan:
    """A picklable schedule of injected faults, shared with workers.

    Forked pool workers inherit the plan; the *fired-once* state lives in
    ``state_dir`` marker files so it is shared across processes and
    across worker respawns.  A plan built without a ``state_dir`` makes
    a temporary one, which the process that made it removes when the
    plan is dropped or the process exits; forked workers and unpickled
    copies share it and never remove it, nor is a given one removed.
    """

    def __init__(self, faults: list[Fault] | tuple[Fault, ...],
                 state_dir: str | None = None) -> None:
        self.faults = tuple(faults)
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
            weakref.finalize(self, _remove_state_dir, state_dir,
                             os.getpid())
        self.state_dir = state_dir

    def __repr__(self) -> str:
        parts = ", ".join(f"{f.action}:{f.index}" for f in self.faults)
        return f"FaultPlan([{parts}])"

    # ------------------------------------------------------------------ #
    # construction
    @classmethod
    def parse(cls, spec: str, state_dir: str | None = None) -> "FaultPlan":
        """Build a plan from a spec string (see module docstring)."""
        faults = []
        for entry in spec.replace(";", ",").split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) not in (2, 3):
                raise FaultSpecError(
                    f"bad fault entry {entry!r}; expected ACTION:INDEX or "
                    f"ACTION:INDEX:ARG")
            action = parts[0]
            if action == "partition":
                # partition:GROUPS:CYCLES — GROUPS ("0-1|2") is not an
                # integer index, so it rides the text field instead.
                if len(parts) != 3:
                    raise FaultSpecError(
                        f"bad fault entry {entry!r}; expected "
                        f"partition:A|B:CYCLES")
                try:
                    cycles = float(parts[2])
                except ValueError:
                    raise FaultSpecError(
                        f"bad partition heal round in {entry!r}: "
                        f"{parts[2]!r}") from None
                faults.append(Fault(action=action, index=0, arg=cycles,
                                    text=parts[1]))
                continue
            try:
                index = int(parts[1])
            except ValueError:
                raise FaultSpecError(
                    f"bad fault index in {entry!r}: {parts[1]!r}") from None
            arg = None
            if len(parts) == 3:
                try:
                    arg = float(parts[2])
                except ValueError:
                    raise FaultSpecError(
                        f"bad fault argument in {entry!r}: "
                        f"{parts[2]!r}") from None
            faults.append(Fault(action=action, index=index, arg=arg))
        if not faults:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return cls(faults, state_dir=state_dir)

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultPlan | None":
        """The plan described by ``REPRO_FAULTS``, or None when unset."""
        spec = environ.get(ENV_SPEC, "").strip()
        if not spec:
            return None
        return cls.parse(spec, state_dir=environ.get(ENV_STATE) or None)

    # ------------------------------------------------------------------ #
    # firing
    def _fire_once(self, tag: str) -> bool:
        """True exactly once per tag, across every participating process."""
        os.makedirs(self.state_dir, exist_ok=True)
        marker = os.path.join(self.state_dir, f"fired-{tag}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def before_execute(self, index: int, *, inline: bool = False) -> None:
        """Apply job-K faults; called right before job K executes.

        ``inline=True`` means the job runs in the batch's own process, so a
        ``kill`` fault degrades to a transient raise instead of taking the
        whole batch down with it.
        """
        for fault in self.faults:
            if fault.index != index:
                continue
            if fault.action == "delay":
                time.sleep(fault.arg or 0.0)
            elif fault.action == "fail":
                raise InjectedFault(f"injected deterministic failure "
                                    f"(job {index})")
            elif fault.action == "flaky":
                if self._fire_once(f"flaky-{index}"):
                    raise InjectedTransientFault(
                        f"injected transient failure (job {index})")
            elif fault.action == "kill":
                if self._fire_once(f"kill-{index}"):
                    if inline:
                        raise InjectedTransientFault(
                            f"injected worker crash (job {index}, inline)")
                    os._exit(KILL_EXIT_CODE)

    def corrupt_cache(self, index: int) -> bool:
        """True (once) if job K's cache entry should be corrupted.

        Only the two-argument ``corrupt:K`` form targets the cache; the
        three-argument ``corrupt:K:CYCLE`` form corrupts live simulation
        state instead (see :meth:`run_saboteur`).
        """
        return any(fault.action == "corrupt" and fault.arg is None
                   and fault.index == index
                   and self._fire_once(f"corrupt-{index}")
                   for fault in self.faults)

    def run_saboteur(self, index: int, *,
                     inline: bool = False) -> "RunSaboteur | None":
        """The mid-run saboteur for job K, or None if no fault targets it.

        Covers the cycle-addressed faults (``kill-at:K:CYCLE`` and
        ``corrupt:K:CYCLE``); the returned object plugs into
        ``GPU.run(..., saboteur=)`` via ``simulate()``.  When several
        cycle-addressed faults name the same job, the earliest wins.
        """
        candidates = [fault for fault in self.faults
                      if fault.index == index and fault.arg is not None
                      and fault.action in ("kill-at", "corrupt")]
        if not candidates:
            return None
        fault = min(candidates, key=lambda f: f.arg)
        return RunSaboteur(plan=self, fault=fault, inline=inline)

    # ------------------------------------------------------------------ #
    # campaign-grade faults (journal/lease layer; K = append ordinal)
    def journal_fail_append(self, ordinal: int) -> bool:
        """Should journal append ``ordinal`` raise OSError?

        ``fail-append:K`` is *persistent* — a full disk does not heal
        between appends — so every ordinal at or past K fails.
        """
        return any(fault.action == "fail-append" and ordinal >= fault.index
                   for fault in self.faults)

    def stall_heartbeats(self) -> bool:
        """True when the worker's heartbeat thread must not run."""
        return any(fault.action == "stall-heartbeat"
                   for fault in self.faults)

    def journal_post_append(self, ordinal: int) -> list[str]:
        """Post-append fault actions due at this ordinal, each once.

        "Once" rides the shared marker files, so a restarted worker that
        replays through the same ordinal does not tear, scribble or die
        a second time.
        """
        return [action for action in _JOURNAL_POST_APPEND
                for fault in self.faults
                if fault.action == action and fault.index == ordinal
                and self._fire_once(f"{action}-{ordinal}")]

    # ------------------------------------------------------------------ #
    # service-grade faults (scheduler daemon; K = protocol/dispatch ordinal)
    def service_slow_client(self, ordinal: int) -> float | None:
        """Seconds the client must stall mid-frame ``ordinal``, or None.

        Fires once (shared markers), so a retried submission does not
        stall again.
        """
        for fault in self.faults:
            if fault.action == "slow-client" and fault.index == ordinal \
                    and self._fire_once(f"slow-client-{ordinal}"):
                return fault.arg if fault.arg is not None else 1.0
        return None

    def service_socket_drop(self, ordinal: int) -> bool:
        """Should the daemon drop the connection after frame ``ordinal``?

        Once per ordinal: a reconnected client replaying through the same
        frame count is not dropped again.
        """
        return any(fault.action == "socket-drop" and fault.index == ordinal
                   and self._fire_once(f"socket-drop-{ordinal}")
                   for fault in self.faults)

    def service_worker_wedge(self, ordinal: int) -> bool:
        """Must the worker executing dispatch ordinal ``ordinal`` wedge?

        Deliberately *not* once-only: a poison job wedges its worker on
        every attempt, which is exactly what drives the circuit breaker.
        """
        return any(fault.action == "worker-wedge" and fault.index == ordinal
                   for fault in self.faults)

    # ------------------------------------------------------------------ #
    # cluster-grade faults (federation layer; keyed by node index)
    def partition_spec(self) -> tuple[frozenset, frozenset, int] | None:
        """``(group_a, group_b, heal_round)`` of the partition, or None."""
        for fault in self.faults:
            if fault.action == "partition":
                group_a, group_b = fault.partition_groups()
                return group_a, group_b, int(fault.arg or 0)
        return None

    def partition_blocks(self, node_a: int, node_b: int,
                         rounds: int) -> bool:
        """Is traffic between nodes ``node_a`` and ``node_b`` blocked?

        ``rounds`` is the asking daemon's completed gossip-round count;
        the partition is a window, active until that counter reaches the
        heal round.  Symmetric, and never blocks a node from itself.
        Nodes outside both groups are unaffected.
        """
        spec = self.partition_spec()
        if spec is None or node_a == node_b:
            return False
        group_a, group_b, heal = spec
        if rounds >= heal:
            return False
        return ((node_a in group_a and node_b in group_b)
                or (node_a in group_b and node_b in group_a))


class RunSaboteur:
    """Fires one cycle-addressed fault from inside the simulation loop.

    The loop's service check calls :meth:`fire` at the first boundary at
    or after :attr:`at`; "once" semantics ride the plan's shared marker
    files, so a killed-and-resumed attempt does not die again.
    """

    def __init__(self, plan: FaultPlan, fault: Fault,
                 inline: bool = False) -> None:
        self.plan = plan
        self.fault = fault
        self.inline = inline
        self.at = int(fault.arg or 0)
        self.done = False

    def fire(self, gpu, cycle: int) -> None:
        self.done = True
        fault = self.fault
        tag = f"{fault.action}-{fault.index}-at-{self.at}"
        if not self.plan._fire_once(tag):
            return
        if fault.action == "kill-at":
            if self.inline:
                raise InjectedTransientFault(
                    f"injected mid-run worker crash (job {fault.index}, "
                    f"cycle {cycle}, inline)")
            os._exit(KILL_EXIT_CODE)
        elif fault.action == "corrupt":
            # Desynchronize one occupancy counter from the resident-CTA
            # list: harmless to completion, poisonous to statistics, and
            # exactly what the sanitizer's sm-accounting check watches.
            gpu.sms[0].used_slots += 1
