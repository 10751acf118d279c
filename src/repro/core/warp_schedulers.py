"""Warp scheduling policies.

Each SM has ``config.issue_width`` independent scheduler instances (Fermi
style); warps are assigned to a scheduler at dispatch and never migrate.
Every cycle each scheduler picks at most one READY warp to issue.

Policies:

* :class:`LRRScheduler` — loose round robin, implemented as
  least-recently-issued-first.  The classic fair baseline.
* :class:`GTOScheduler` — greedy-then-oldest: keep issuing the same warp
  until it stalls, then fall back to the oldest ready warp (by CTA dispatch
  age, then warp index).  The paper's LCS *requires* a greedy scheduler: it
  is what makes per-CTA issue counts informative (younger CTAs only issue
  when every older CTA is stalled).
* :class:`BAWSScheduler` — the paper's block-aware warp scheduler for BCS:
  greedy-then-oldest where "oldest" orders by *block* dispatch age first, so
  the consecutive CTAs of a block stay temporally aligned and their shared
  (halo) data is still L1-resident when the sibling CTA touches it.

Implementation note: ready warps live in a lazy min-heap.  Entries carry the
warp's ``epoch`` at push time; a popped entry is valid only if the warp is
still READY with the same epoch.  All priority keys end in a unique
``(cta.seq, warp.idx)`` pair so heap tuples never compare Warp objects.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..sim.isa import MEMORY_OPS, Op
from ..sim.warp import Warp, WarpState


class WarpScheduler:
    """Base class: lazy ready-heap plus an optional greedy pointer."""

    #: subclasses with a greedy pointer set this
    greedy = False
    name = "base"

    __slots__ = ("_heap", "_greedy_warp", "qfull_idle")

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, int, Warp]] = []
        self._greedy_warp: Warp | None = None
        #: Set by ``SM.tick`` when :meth:`pick` found nothing under a full
        #: LD/ST queue.  While a warp is READY its next opcode is fixed, and
        #: only :meth:`on_ready` and :meth:`on_issue` change what ``pick``
        #: would see, so both clear the mark and a marked scheduler's next
        #: pick under a full queue would find nothing again.
        self.qfull_idle = False

    # -- policy hook ----------------------------------------------------- #
    def priority_key(self, warp: Warp) -> tuple:
        raise NotImplementedError

    #: How many ready candidates the scheduler examines per cycle when the
    #: preferred ones cannot issue (structural hazard at the LD/ST queue).
    #: Real issue logic considers a bounded window of warps per cycle.
    SCAN_LIMIT = 6

    # -- SM-facing API ----------------------------------------------------#
    def on_ready(self, warp: Warp) -> None:
        """Called whenever ``warp`` (re)enters READY."""
        self.qfull_idle = False
        if warp is self._greedy_warp:
            # The greedy pointer guarantees this warp is picked while READY,
            # so a heap entry would only ever be skipped as stale.
            return
        heapq.heappush(self._heap, (self.priority_key(warp), warp.epoch, warp))

    def pick(self, can_issue=None) -> Warp | None:
        """Select the warp to issue this cycle (or None).

        ``can_issue(warp)`` reports structural availability (e.g. LD/ST
        queue space for a memory instruction); warps that are ready but
        cannot issue are skipped, like hardware scoreboard/structural
        checks at the issue stage — this is what lets younger warps run
        while an older warp waits for a memory-pipe slot, and conversely
        what starves younger warps' *memory* instructions when an older
        warp competes for the same slot.
        """
        heap = self._heap
        heappop = heapq.heappop
        ready = WarpState.READY   # enum members are singletons: `is` is ==
        if self.greedy:
            greedy_warp = self._greedy_warp
            if greedy_warp is not None and greedy_warp.state is ready:
                if can_issue is None or can_issue(greedy_warp):
                    return greedy_warp
                # Greedy warp blocked at issue: make it findable again and
                # let the age order decide below.
                heapq.heappush(heap, (self.priority_key(greedy_warp),
                                      greedy_warp.epoch, greedy_warp))
                self._greedy_warp = None
        picked = None
        skipped: list[tuple] = []
        scans = 0
        while heap:
            entry = heappop(heap)
            _, epoch, warp = entry
            if warp.state is not ready or warp.epoch != epoch:
                continue  # stale entry
            if can_issue is None or can_issue(warp):
                picked = warp
                break
            skipped.append(entry)
            scans += 1
            if scans >= self.SCAN_LIMIT:
                break
        for entry in skipped:
            heapq.heappush(heap, entry)
        if self.greedy:
            self._greedy_warp = picked
        return picked

    def on_issue(self, warp: Warp, now: int) -> None:
        """Bookkeeping after ``warp`` issued at cycle ``now``."""
        self.qfull_idle = False
        warp.last_issue = now

    @property
    def pending_entries(self) -> int:
        """Heap size (includes stale entries; for tests/diagnostics)."""
        return len(self._heap)


class LRRScheduler(WarpScheduler):
    """Loose round robin — least recently issued warp first."""

    name = "lrr"
    greedy = False
    __slots__ = ()

    def priority_key(self, warp: Warp) -> tuple:
        return (warp.last_issue, warp.age_key)


class GTOScheduler(WarpScheduler):
    """Greedy-then-oldest (GPGPU-Sim's GTO)."""

    name = "gto"
    greedy = True
    __slots__ = ()

    def priority_key(self, warp: Warp) -> tuple:
        return warp.age_key


class BAWSScheduler(WarpScheduler):
    """Block-aware warp scheduler (the paper's companion to BCS).

    Priority: oldest *block* of CTAs first — but *fair* (least recently
    issued) among the warps inside a block.  Strict age order inside the
    block would reduce to GTO and let the younger sibling CTA fall behind;
    fairness keeps the block's CTAs temporally aligned, so the halo lines
    one sibling fetches are still L1-resident (or MSHR-pending, which
    merges) when the other touches them.
    """

    name = "baws"
    greedy = True
    __slots__ = ()

    def priority_key(self, warp: Warp) -> tuple:
        return (warp.cta.block_seq, warp.last_issue, warp.age_key)


class TwoLevelScheduler(WarpScheduler):
    """Two-level round robin (Narasiman et al., MICRO 2011) — approximate.

    Warps are split into a small *active set* scheduled round-robin and a
    *pending* pool.  When an active warp issues a long-latency memory
    instruction it is demoted and a pending warp promoted, so the active
    set's warps reach their memory instructions at *staggered* times instead
    of all at once (better latency overlap than pure LRR, without GTO's
    aggressive age priority).

    Approximation: membership is updated at issue/pick time rather than by
    a dedicated demotion pipeline; the ready-heap key is
    ``(not active, last_issue, age)``, re-snapshotted whenever a warp
    re-enters READY, so stale membership only ever persists for stale heap
    entries that are skipped anyway.
    """

    name = "two-level"
    greedy = False
    ACTIVE_SET_SIZE = 8

    __slots__ = ("_active",)

    def __init__(self) -> None:
        super().__init__()
        self._active: dict[Warp, None] = {}

    def priority_key(self, warp: Warp) -> tuple:
        return (warp not in self._active, warp.last_issue, warp.age_key)

    def on_issue(self, warp: Warp, now: int) -> None:
        super().on_issue(warp, now)
        if warp.program.ops[warp.pc - 1] in MEMORY_OPS:
            # Long-latency operation: demote from the active set.
            self._active.pop(warp, None)
        elif warp not in self._active:
            self._promote(warp)

    def _promote(self, warp: Warp) -> None:
        if len(self._active) >= self.ACTIVE_SET_SIZE:
            # Evict a memory-blocked member; if none, the oldest entry.
            victim = next((w for w in self._active
                           if w.state == WarpState.WAIT_MEM), None)
            if victim is None:
                victim = next(iter(self._active))
            del self._active[victim]
        self._active[warp] = None

    @property
    def active_set_size(self) -> int:
        return len(self._active)


class SWLScheduler(GTOScheduler):
    """Static warp limiting (SWL, after Rogers et al. MICRO 2012's baseline):
    GTO restricted to at most ``warp_limit`` member warps per scheduler.

    Warp-granularity throttling is the alternative design point to the
    paper's CTA-granularity LCS: it can stop *between* CTA sizes, but holds
    whole CTAs' resources (registers, shared memory, slots) hostage while
    only some of their warps run — which is exactly the paper's argument
    for doing it at CTA granularity.  Membership is sticky: the oldest
    warps join until the limit is reached, and a slot frees only when a
    member exits.  Used by experiment E17.
    """

    name = "swl"

    __slots__ = ("warp_limit", "_members")

    def __init__(self, warp_limit: int = 8) -> None:
        super().__init__()
        if warp_limit < 1:
            raise ValueError("warp_limit must be >= 1")
        self.warp_limit = warp_limit
        self._members: set[Warp] = set()

    def priority_key(self, warp: Warp) -> tuple:
        return (warp not in self._members, warp.age_key)

    def pick(self, can_issue=None) -> Warp | None:
        def member_can_issue(warp: Warp) -> bool:
            if not self._admit(warp):
                return False
            return can_issue is None or can_issue(warp)

        return super().pick(member_can_issue)

    def _admit(self, warp: Warp) -> bool:
        if warp in self._members:
            return True
        if len(self._members) < self.warp_limit:
            self._members.add(warp)
            return True
        return False

    def on_issue(self, warp: Warp, now: int) -> None:
        super().on_issue(warp, now)
        if warp.program.ops[warp.pc - 1] == Op.EXIT:
            self._members.discard(warp)

    @property
    def member_count(self) -> int:
        return len(self._members)


def swl_factory(warp_limit: int) -> Callable[[], "SWLScheduler"]:
    """A zero-arg factory for SWL at a given per-scheduler warp limit."""
    def factory() -> SWLScheduler:
        return SWLScheduler(warp_limit=warp_limit)

    factory.name = f"swl-{warp_limit}"  # type: ignore[attr-defined]
    return factory


_REGISTRY: dict[str, type[WarpScheduler]] = {
    cls.name: cls for cls in (LRRScheduler, GTOScheduler, BAWSScheduler,
                              TwoLevelScheduler, SWLScheduler)
}


def warp_scheduler_factory(name: str) -> Callable[[], WarpScheduler]:
    """Return a zero-arg factory for the named policy ('lrr'/'gto'/'baws')."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown warp scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls


def available_warp_schedulers() -> tuple[str, ...]:
    """Names accepted by :func:`warp_scheduler_factory` and ``simulate``."""
    return tuple(sorted(_REGISTRY))
