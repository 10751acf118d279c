"""``repro-submit``: the thin client for the scheduler daemon.

:class:`ServiceClient` is a small synchronous NDJSON peer: connect
(with exponential-backoff retries — the daemon may still be booting or
mid-restart), send one frame per request, read one response.  A dropped
connection (daemon restart, injected ``socket-drop``) is survivable by
construction: job ids are idempotency keys, so the client just
reconnects and resends.  Shed responses are retried politely after the
daemon's ``retry_after`` hint, up to a bounded number of attempts.

The CLI compiles a design file *client-side* — the same
:func:`repro.design.files.load_design` / :class:`DesignEnv` path as
``repro-exp --design`` — and submits one job per cell with the
deterministic id :func:`repro.service.protocol.job_id`, so two
concurrent ``repro-submit`` runs of one design converge on the same
jobs and exactly one execution each.  It then watches for terminal
states, prints the familiar label/cycles/ipc table and exits with the
uniform codes (:mod:`repro.harness.exit_codes`): 0 all done, 1 partial
(failed or still pending), 2 usage, 3 exhausted/quarantined, 4 shed.

``--socket`` names the daemon: a unix socket path or ``host:port``
(:func:`repro.service.protocol.parse_address`).  Against a federated
fleet (``--socket A,B,C``) the client holds the full address list and
rotates through it: a connection failure or drop moves on to the next
address instead of hammering the dead one, and the backoff sleep only
happens after a full fruitless rotation.  Job ids being idempotency
keys makes this failover transparent — whichever daemon answers either
owns the job, forwards it, or reports the known state.
Reconnect backoff carries a deterministic per-client jitter
(:func:`repro.design.store.worker_ttl_jitter` over a host+pid key,
mirroring the campaign lease-TTL jitter) so a fleet of clients stampeding
after a daemon restart decorrelates without losing reproducibility.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from ..design.design import DesignError
from ..design.env import DesignEnv
from ..design.store import worker_ttl_jitter
from ..harness.engine import Backoff
from ..harness.exit_codes import (EXIT_EXHAUSTED, EXIT_OK, EXIT_PARTIAL,
                                  EXIT_SHED)
from ..harness.faults import FaultPlan
from ..harness.jobs import JobError
from ..harness.options import (Positive, at_least, fault_plan, fault_spec,
                               load_design_file)
from .daemon import DEFAULT_STATE_DIR, SOCKET_NAME
from .protocol import (DONE, FAILED, QUARANTINED, SHED, ProtocolError,
                       decode_frame, encode_frame, job_id, parse_address)

#: Connection attempts before giving up on a dead daemon.
DEFAULT_CONNECT_ATTEMPTS = 6

#: Shed-retry attempts per submission before reporting the job shed.
DEFAULT_SHED_RETRIES = 20

#: Maximum fraction added to each backoff delay by per-client jitter
#: (same knob value as the campaign lease-TTL jitter).
BACKOFF_JITTER_FRAC = 0.25


class ServiceError(RuntimeError):
    """The daemon is unreachable or answered with a protocol error."""


def default_jitter_key() -> str:
    """Host + pid: decorrelates concurrent clients deterministically."""
    return f"{socket.gethostname()}-{os.getpid()}"


class ServiceClient:
    """Synchronous NDJSON client over a unix socket or TCP.

    ``addresses`` are daemon addresses (unix socket paths or
    ``host:port``), the default daemon's socket when none is given.
    Several make a fleet client: every connection attempt targets the
    current address, and any failure rotates to the next one before the
    jittered backoff sleep.
    """

    def __init__(self, *addresses: str | Path,
                 timeout: float = 120.0,
                 connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
                 backoff: Backoff | None = None,
                 jitter_key: str | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.addresses = [str(address) for address in addresses] or [
            str(Path(DEFAULT_STATE_DIR) / SOCKET_NAME)]
        self.timeout = timeout
        self.connect_attempts = connect_attempts
        self.backoff = backoff or Backoff(base=0.25, cap=5.0)
        # Deterministic per-client jitter factor in [1, 1 + FRAC): the
        # same client always backs off identically (reproducible runs),
        # different clients spread out instead of stampeding in lockstep.
        self.jitter = 1.0 + BACKOFF_JITTER_FRAC * worker_ttl_jitter(
            jitter_key if jitter_key is not None else default_jitter_key())
        self.faults = faults
        self.frames_sent = 0
        self.reconnects = 0
        self.failovers = 0
        self._peer_index = 0
        self._sock: socket.socket | None = None
        self._file = None

    # -- connection ---------------------------------------------------- #
    def _delay(self, attempt: int) -> float:
        """Backoff delay with the client's deterministic jitter applied."""
        return self.backoff.delay(attempt) * self.jitter

    def _rotate(self) -> None:
        """Next address, if there is more than one to rotate to."""
        if len(self.addresses) > 1:
            self._peer_index = (self._peer_index + 1) % len(self.addresses)
            self.failovers += 1

    def connect(self) -> None:
        if self._sock is not None:
            return
        last: Exception | None = None
        for attempt in range(1, self.connect_attempts + 1):
            for _ in self.addresses:
                kind, where = parse_address(self.addresses[self._peer_index])
                sock = None
                try:
                    if kind == "tcp":
                        sock = socket.create_connection(
                            where, timeout=self.timeout)
                    else:
                        sock = socket.socket(socket.AF_UNIX,
                                             socket.SOCK_STREAM)
                        sock.settimeout(self.timeout)
                        sock.connect(where)
                except OSError as error:
                    if sock is not None:
                        sock.close()
                    last = error
                    self._rotate()
                    continue
                self._sock = sock
                self._file = sock.makefile("rb")
                return
            # Every address refused this round: sleep, then rotate again.
            if attempt < self.connect_attempts:
                time.sleep(self._delay(attempt))
        raise ServiceError(f"cannot reach repro-serve at "
                           f"{','.join(self.addresses)} after "
                           f"{self.connect_attempts} attempt(s): {last}")

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = self._file = None

    def _drop(self) -> None:
        self.close()
        self.reconnects += 1
        # A dropped daemon may be restarting or dead; try its peer next.
        self._rotate()

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing ------------------------------------------------------- #
    def _send(self, frame: dict[str, Any]) -> None:
        data = encode_frame(frame)
        ordinal = self.frames_sent
        self.frames_sent += 1
        stall = (self.faults.service_slow_client(ordinal)
                 if self.faults is not None else None)
        if stall is not None:
            # The injected slow client: half a frame, a nap, the rest.
            # The daemon must keep serving other connections meanwhile.
            half = max(len(data) // 2, 1)
            self._sock.sendall(data[:half])
            time.sleep(stall)
            self._sock.sendall(data[half:])
            return
        self._sock.sendall(data)

    def _read(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return decode_frame(line)

    def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange, reconnecting on a dropped
        socket (safe: every operation is idempotent by job id)."""
        for attempt in range(1, self.connect_attempts + 1):
            self.connect()
            try:
                self._send(frame)
                return self._read()
            except (ConnectionError, OSError, ProtocolError):
                self._drop()
                if attempt >= self.connect_attempts:
                    raise
                time.sleep(self._delay(attempt))
        raise ServiceError("unreachable")   # pragma: no cover

    # -- operations ---------------------------------------------------- #
    def status(self) -> dict[str, Any]:
        return self.request({"op": "status"})

    def drain(self) -> dict[str, Any]:
        return self.request({"op": "drain"})

    def result(self, id: str) -> dict[str, Any]:
        return self.request({"op": "result", "id": id})

    def submit(self, id: str, job_payload: dict[str, Any], *,
               tenant: str = "-", pin: bool = False,
               shed_retries: int = DEFAULT_SHED_RETRIES) -> dict[str, Any]:
        """Submit one job, riding out shed responses with backoff.

        Returns the final submit response; its ``state`` is ``shed``
        only after ``shed_retries`` polite retries all bounced.  With
        several addresses a shed (overloaded or quorum-less daemon) also
        rotates: the retry lands on the next daemon, which may accept.
        ``pin`` asks the contacted daemon to own the job itself instead
        of routing it to its rendezvous owner.
        """
        frame = {"op": "submit", "id": id, "tenant": tenant,
                 "job": job_payload}
        if pin:
            frame["pin"] = True
        response = self.request(frame)
        attempt = 0
        while response.get("state") == SHED and attempt < shed_retries:
            attempt += 1
            if not pin and len(self.addresses) > 1:
                # Not a drop — the daemon is alive but refusing — so
                # rotate without counting a reconnect.
                self.close()
                self._rotate()
            hint = response.get("retry_after")
            time.sleep(min(float(hint) if hint is not None
                           else self._delay(attempt), 5.0))
            response = self.request(frame)
        return response

    def watch(self, ids: Sequence[str],
              on_event: Callable[[dict[str, Any]], None] | None = None,
              ) -> dict[str, dict[str, Any]]:
        """Block until every id is terminal; return id -> terminal frame.

        Reconnects (and re-issues the watch for the remainder) if the
        stream drops mid-flight.
        """
        terminal: dict[str, dict[str, Any]] = {}
        remaining = [i for i in ids if i not in terminal]
        attempt = 0
        while remaining:
            self.connect()
            try:
                self._send({"op": "watch", "ids": remaining})
                while True:
                    frame = self._read()
                    if frame.get("event") == "terminal":
                        terminal[frame["id"]] = frame
                        if on_event is not None:
                            on_event(frame)
                    elif frame.get("done") or not frame.get("ok", True):
                        break
            except (ConnectionError, OSError, ProtocolError):
                self._drop()
                attempt += 1
                if attempt >= self.connect_attempts:
                    raise
                time.sleep(self._delay(attempt))
            remaining = [i for i in ids if i not in terminal]
        return terminal


# --------------------------------------------------------------------------- #
# CLI entry point: repro-submit
# --------------------------------------------------------------------------- #

def _exit_code(states: dict[str, str]) -> int:
    """The uniform verdict over one submission's final states."""
    values = list(states.values())
    if any(state == SHED for state in values):
        return EXIT_SHED
    if any(state == QUARANTINED for state in values):
        return EXIT_EXHAUSTED
    if any(state == FAILED for state in values):
        return EXIT_PARTIAL
    if all(state == DONE for state in values):
        return EXIT_OK
    return EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Submit a design to a running repro-serve daemon "
                    "and wait for results.")
    parser.add_argument("design", nargs="?", default=None,
                        help="design file (TOML/JSON) to compile + submit")
    parser.add_argument("--socket", default=None, metavar="ADDRS",
                        help="daemon address: a unix socket path or "
                             "host:port, or a fleet's comma-separated "
                             "list to fail over across (default "
                             f"{DEFAULT_STATE_DIR}/{SOCKET_NAME})")
    parser.add_argument("--pin", action="store_true",
                        help="pin jobs to the contacted daemon instead "
                             "of rendezvous routing")
    parser.add_argument("--tenant", default=None,
                        help="fair-share tenant name (default: user name)")
    parser.add_argument("--scale", type=float, action=Positive, default=1.0,
                        help="design environment scale (default 1.0)")
    parser.add_argument("--seed", type=int, action=at_least(0), default=None,
                        help="design environment seed override")
    parser.add_argument("--no-wait", action="store_true",
                        help="submit and exit without watching for results")
    parser.add_argument("--status", action="store_true",
                        help="print daemon health and exit")
    parser.add_argument("--drain", action="store_true",
                        help="ask the daemon to drain and exit")
    parser.add_argument("--faults", type=fault_spec, default=None,
                        metavar="SPEC",
                        help="client-side fault injection (tests/CI)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    faults = fault_plan(parser, args.faults)
    addresses = ([a.strip() for a in args.socket.split(",") if a.strip()]
                 if args.socket is not None else [])
    if args.socket is not None and not addresses:
        parser.error("--socket needs at least one address")
    if not (args.status or args.drain):
        if args.design is None:
            parser.error("a design file is required "
                         "(or --status / --drain)")
        design, overrides = load_design_file(parser, args.design)
        env = DesignEnv.merged(overrides, scale=args.scale, seed=args.seed)
        try:
            digest = design.digest(env)
            cells = design.compile(env)
        except (DesignError, JobError) as error:
            parser.error(f"cannot compile design file {args.design}: "
                         f"{error}")
    client = ServiceClient(*addresses, faults=faults)

    try:
        if args.status:
            status = client.status()
            for key in ("healthy", "draining", "uptime", "pid", "workers",
                        "queued", "inflight", "queue_depth", "jobs",
                        "breaker_open", "shed", "respawns", "wedges"):
                print(f"{key}: {status.get(key)}")
            breaker = status.get("breaker") or {}
            if breaker.get("open") or breaker.get("half_open"):
                print(f"breaker_detail: open={breaker.get('open')} "
                      f"half_open={breaker.get('half_open')} "
                      f"cooldown={breaker.get('cooldown')}")
            for worker in status.get("workers_detail") or []:
                print(f"worker[{worker.get('slot')}]: "
                      f"pid={worker.get('pid')} "
                      f"alive={worker.get('alive')} "
                      f"inline={worker.get('inline')} "
                      f"jobs={worker.get('jobs')}")
            cluster = status.get("cluster")
            if cluster:
                print(f"cluster: {cluster.get('advertise')} "
                      f"[{cluster.get('index')}/{cluster.get('size')}] "
                      f"quorum={cluster.get('quorum')} "
                      f"degraded={cluster.get('degraded')} "
                      f"rounds={cluster.get('rounds')} "
                      f"remote_jobs={cluster.get('remote_jobs')}")
                for peer in cluster.get("peers") or []:
                    print(f"peer[{peer.get('index')}]: "
                          f"{peer.get('addr')} state={peer.get('state')} "
                          f"misses={peer.get('misses')}")
            return EXIT_OK
        if args.drain:
            client.drain()
            print("drain requested")
            return EXIT_OK
        tenant = args.tenant or os_user()
        print(f"{design.name}: submitting {len(cells)} cell(s) "
              f"as tenant {tenant!r} (digest {digest[:12]})")

        ids: list[str] = []
        labels: dict[str, str] = {}
        states: dict[str, str] = {}
        details: dict[str, dict[str, Any]] = {}
        for cell in cells:
            cid = job_id(digest, cell.index)
            ids.append(cid)
            labels[cid] = cell.label
            response = client.submit(cid, cell.job.to_payload(),
                                     tenant=tenant, pin=args.pin)
            if not response.get("ok"):
                raise ServiceError(response.get("error", "submit refused"))
            states[cid] = response.get("state", SHED)
            details[cid] = response
            if states[cid] == SHED:
                print(f"  shed: {cell.label} "
                      f"({response.get('reason')})", file=sys.stderr)

        if not args.no_wait:
            watchable = [cid for cid in ids
                         if states[cid] not in (SHED,)
                         and details[cid].get("accepted", True)]
            if watchable:
                for cid, frame in client.watch(watchable).items():
                    states[cid] = frame.get("state", FAILED)
                    details[cid] = frame

            width = max(len(label) for label in labels.values())
            for cid in ids:
                info = details[cid]
                label = labels[cid]
                if states[cid] == DONE:
                    print(f"{label:<{width}}  cycles={info.get('cycles')} "
                          f"ipc={info.get('ipc'):.4f}")
                else:
                    print(f"{label:<{width}}  {states[cid]}: "
                          f"{info.get('error') or info.get('reason') or ''}")

        done = sum(1 for s in states.values() if s == DONE)
        terminal_bad = sum(1 for s in states.values()
                           if s in (FAILED, QUARANTINED))
        shed = sum(1 for s in states.values() if s == SHED)
        pending = len(states) - done - terminal_bad - shed
        footer = [f"{done} done"]
        if terminal_bad:
            footer.append(f"{terminal_bad} failed/quarantined")
        if shed:
            footer.append(f"{shed} shed")
        if pending:
            footer.append(f"{pending} pending")
        print(f"[{', '.join(footer)}]", file=sys.stderr)
        return _exit_code(states)
    except ServiceError as error:
        print(f"repro-submit: {error}", file=sys.stderr)
        return EXIT_PARTIAL
    finally:
        client.close()


def os_user() -> str:
    import getpass
    try:
        return getpass.getuser()
    except (KeyError, OSError):   # pragma: no cover - no passwd entry
        return "-"


if __name__ == "__main__":   # pragma: no cover - subprocess entry
    raise SystemExit(main(sys.argv[1:]))
