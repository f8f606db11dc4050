"""Rank scheduling: OS-thread polling vs cooperative run-queue fibers.

The engine has two ways to run its ranks, selected by the
``MPIX_COOP_SCHED`` gate (off by default):

**Thread scheduler** (the original).  Every rank is an OS thread; a
blocked rank sits in a condition-variable poll/backoff loop
(:class:`ThreadWaitq`), waking every few milliseconds to re-check its
predicate and the stall monitor.  Simple and debuggable, but at
hundreds of ranks the poll storm and the context-switch thrash dominate
wall-clock — a 1k-rank job stops being tractable.

**Cooperative scheduler** (``MPIX_COOP_SCHED=1``).  Ranks become
*fibers*: each still owns a (small-stack) carrier thread, so rank
programs keep ordinary blocking call-stacks and ``threading.local``
state, but only ``workers`` fibers (default 1 — the GIL makes more
pointless for pure-Python work) hold a *run token* at any moment.  A
blocked fiber parks on a :class:`CoopWaitq`: it costs one list entry
and a cleared :class:`threading.Event` — zero CPU, no polling — and the
run token passes through an explicit run queue to the next ready fiber.
``notify_all`` moves parked fibers back onto the run queue.

Parking also buys *exact* deadlock detection: the scheduler knows every
live fiber, so the moment all of them are parked with an empty run
queue no message can ever arrive again — every parked fiber is woken to
raise :class:`~repro.errors.DeadlockError` immediately, instead of
after the wall-clock stall timeout.

Both waitq flavours expose the same two-method surface —
``wait_for(predicate, stall_msg)`` (caller holds the protected lock;
the predicate is re-checked after every wake) and ``notify_all()`` —
so :class:`~repro.sim.mailbox.Mailbox` and
:class:`~repro.sim.engine.CollectiveSlot` are scheduler-agnostic.
Virtual times and payloads are bit-identical between the two
schedulers: scheduling only decides *when wall-clock work happens*,
never what a message costs.

One invariant callers must keep: a fiber may never park while holding
an unrelated lock (another fiber could need it to make progress).  All
sim/mpi locks are held only across short memory copies, never across a
blocking wait.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.errors import DeadlockError

#: steady-state polling interval of a blocked OS thread (wall seconds);
#: only affects how quickly deadlocks are noticed, never virtual time.
POLL_S = 0.02
#: first (and post-notify) wait: short, so receivers woken by a fused
#: burst resume almost immediately.
FIRST_POLL_S = 0.001

#: stall/deadlock observations a *patient* wait tolerates before it
#: gives up.  Patient waits are the ULFM recovery rendezvous (agree /
#: shrink): during elastic recovery the detectors fire while surviving
#: ranks are still converting their own failures one by one, so a
#: recovery waiter treats the first few firings as spurious and keeps
#: waiting; a genuine recovery deadlock still raises after the budget.
PATIENT_STALLS = 8


class ThreadWaitq:
    """Condition-variable wait queue — the thread scheduler's primitive.

    Reproduces the engine's historical adaptive poll/backoff loop: a
    short first wait, exponential backoff toward :data:`POLL_S` while
    idle, and a stall-monitor check that turns a silent run into a
    :class:`DeadlockError`.
    """

    __slots__ = ("_cond", "_monitor")

    def __init__(self, lock, monitor) -> None:
        self._cond = threading.Condition(lock)
        self._monitor = monitor

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False) -> None:
        """Block until ``predicate()`` holds (caller owns the lock).

        ``stall_msg()`` renders the :class:`DeadlockError` text if the
        whole run stalls first.  ``patient`` waits (the ULFM recovery
        rendezvous) absorb up to :data:`PATIENT_STALLS` stall windows —
        refreshing the watermark each time, so a slow multi-window
        recovery is not mistaken for a hang.
        """
        if predicate():
            return
        wait_s = FIRST_POLL_S
        strikes = 0
        while True:
            notified = self._cond.wait(timeout=wait_s)
            wait_s = FIRST_POLL_S if notified \
                else min(wait_s * 2.0, POLL_S)
            if predicate():
                return
            if self._monitor.stalled():
                if patient and strikes < PATIENT_STALLS:
                    strikes += 1
                    self._monitor.note_progress()
                    continue
                raise DeadlockError(
                    f"{stall_msg()}; no rank made progress for "
                    f"{self._monitor.timeout_s}s")

    def notify_all(self) -> None:
        """Wake every waiter (caller owns the lock)."""
        self._cond.notify_all()


# fiber lifecycle states
_READY, _RUNNING, _PARKED, _DONE = range(4)


class _Fiber:
    """One rank's cooperative execution context."""

    __slots__ = ("rank", "target", "event", "state", "wake_pending",
                 "deadlocked")

    def __init__(self, rank: int, target: Callable[[], None]) -> None:
        self.rank = rank
        self.target = target
        #: run-token handoff: set by the scheduler when this fiber may
        #: run, cleared by the fiber as it resumes.
        self.event = threading.Event()
        self.state = _READY
        #: a notify raced our park: skip the deschedule and re-check.
        self.wake_pending = False
        #: woken by exact deadlock detection: raise instead of resuming.
        self.deadlocked = False


class CoopScheduler:
    """Explicit run-queue scheduler for one engine's rank fibers.

    ``workers`` fibers hold run tokens concurrently; everyone else is
    either READY (queued for a token) or PARKED (waiting in some
    :class:`CoopWaitq`).  All transitions happen under one scheduler
    lock, so the ``active == 0 and runq empty and unfinished > 0``
    deadlock condition is exact, not heuristic.
    """

    #: carrier threads never recurse deeply (rank programs are iterative
    #: MPI algorithms); a 1 MiB stack keeps thousands of them cheap.
    STACK_BYTES = 1 << 20

    def __init__(self, monitor, workers: int = 1) -> None:
        self.monitor = monitor
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        self._runq: Deque[_Fiber] = deque()
        self._fibers: List[_Fiber] = []
        self._local = threading.local()
        self._active = 0        # fibers currently holding a run token
        self._unfinished = 0
        #: per-run statistics, added to ``fastpath.STATS`` by the
        #: engine after each run (kept lock-free here: the scheduler
        #: lock already serializes every transition).
        self.parks = 0
        self.switches = 0

    def current(self) -> Optional[_Fiber]:
        """The fiber the calling thread carries (None off-engine)."""
        return getattr(self._local, "fiber", None)

    # -- carrier side ------------------------------------------------------

    def _carrier(self, fiber: _Fiber) -> None:
        self._local.fiber = fiber
        fiber.event.wait()          # first run token
        fiber.event.clear()
        try:
            fiber.target()
        finally:
            with self._lock:
                fiber.state = _DONE
                self._unfinished -= 1
                self._active -= 1
                self._pump_locked()

    def run_ranks(self, targets: Sequence[Tuple[int, Callable[[], None]]]) -> None:
        """Run every ``(rank, target)`` to completion as a fiber."""
        fibers = [_Fiber(rank, target) for rank, target in targets]
        self.parks = 0
        self.switches = 0
        self._fibers = fibers
        self._runq = deque(fibers)
        self._unfinished = len(fibers)
        self._active = 0
        prev_stack = None
        try:
            prev_stack = threading.stack_size(self.STACK_BYTES)
        except (ValueError, RuntimeError):  # pragma: no cover - platform
            prev_stack = None
        try:
            threads = [threading.Thread(target=self._carrier, args=(f,),
                                        name=f"rank{f.rank}", daemon=True)
                       for f in fibers]
            for t in threads:
                t.start()
        finally:
            if prev_stack is not None:
                threading.stack_size(prev_stack)
        with self._lock:
            self._pump_locked()
        for t in threads:
            t.join()

    # -- transitions (all under self._lock) --------------------------------

    def _pump_locked(self) -> None:
        """Hand out free run tokens; detect exact deadlock."""
        while self._active < self.workers and self._runq:
            nxt = self._runq.popleft()
            nxt.state = _RUNNING
            self._active += 1
            self.switches += 1
            nxt.event.set()
        if self._active == 0 and self._unfinished > 0:
            # every live fiber is parked and nothing is queued: no
            # message can ever arrive.  Wake them all to raise.
            self.monitor.deadlocked = True
            for f in self._fibers:
                if f.state == _PARKED:
                    f.deadlocked = True
                    f.state = _READY
                    self._runq.append(f)
            while self._active < self.workers and self._runq:
                nxt = self._runq.popleft()
                nxt.state = _RUNNING
                self._active += 1
                nxt.event.set()

    def park(self, fiber: _Fiber) -> None:
        """Deschedule the calling fiber until a notify (or deadlock
        detection) makes it runnable.  The caller must hold **no**
        locks."""
        with self._lock:
            if fiber.wake_pending:
                # a notify landed between the predicate check and here:
                # keep the run token and let the caller re-check
                fiber.wake_pending = False
                return
            fiber.state = _PARKED
            self._active -= 1
            self.parks += 1
            self._pump_locked()
        fiber.event.wait()
        fiber.event.clear()

    def unpark_all(self, fibers: Sequence[_Fiber]) -> None:
        """Make every fiber in ``fibers`` runnable (a notify_all)."""
        if not fibers:
            return
        with self._lock:
            for f in fibers:
                if f.state == _PARKED:
                    f.state = _READY
                    self._runq.append(f)
                elif f.state != _DONE:
                    # racing with its own park(), or already queued: a
                    # pending wake makes the park a no-op re-check
                    f.wake_pending = True
            self._pump_locked()


class CoopWaitq:
    """Parked-fiber wait queue — the cooperative scheduler's primitive.

    A parked rank costs one list entry here plus its carrier blocked on
    a per-fiber event; there is no polling.  Non-fiber callers (tests
    poking a mailbox from the main thread, helper threads) transparently
    fall back to a :class:`ThreadWaitq` on the same lock.
    """

    __slots__ = ("_lock", "_sched", "_parked", "_fallback")

    def __init__(self, lock, monitor, sched: CoopScheduler) -> None:
        self._lock = lock
        self._sched = sched
        self._parked: List[_Fiber] = []
        self._fallback = ThreadWaitq(lock, monitor)

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False) -> None:
        """Park until ``predicate()`` holds (caller owns the lock)."""
        fiber = self._sched.current()
        if fiber is None:
            return self._fallback.wait_for(predicate, stall_msg, patient)
        strikes = 0
        while True:
            if predicate():
                return
            self._parked.append(fiber)      # registered under the lock
            self._lock.release()
            try:
                self._sched.park(fiber)
            finally:
                self._lock.acquire()
            # a deadlock wake does not deregister; notify_all does.
            # Either way, drop any stale registration before deciding.
            self._discard(fiber)
            if fiber.deadlocked:
                # always clear the flag: a caller that survives the
                # raise (elastic recovery) must be able to park again
                # without spuriously re-raising
                fiber.deadlocked = False
                if patient and strikes < PATIENT_STALLS:
                    # recovery rendezvous: peers may still be converting
                    # their own failures; treat the firing as spurious
                    strikes += 1
                    continue
                raise DeadlockError(
                    f"{stall_msg()}; every live rank is parked "
                    f"(exact deadlock)")

    def _discard(self, fiber: _Fiber) -> None:
        try:
            self._parked.remove(fiber)
        except ValueError:
            pass

    def notify_all(self) -> None:
        """Wake every waiter (caller owns the lock)."""
        if self._parked:
            woken = self._parked
            self._parked = []
            self._sched.unpark_all(woken)
        self._fallback.notify_all()
