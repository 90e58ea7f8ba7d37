"""The strict two-phase locking family: shared machinery, three resolutions.

The paper distinguishes two classes of concurrency control (Section 1):
blocking schemes (two-phase locking), for which Tay et al. (1985) derive the
quadratic blocking behaviour, and non-blocking schemes (timestamp
certification), which the paper's own simulation uses.  The load control
algorithms are claimed to be applicable to both classes, so this module
provides the blocking representatives.

All members of the family share the same lock table, FCFS queue and grant
machinery (:class:`LockingScheme`); they differ *only* in how a conflict is
resolved when a request cannot be granted (the :meth:`LockingScheme._block`
hook):

* :class:`TwoPhaseLocking` — *deadlock detection*: the request waits, a
  waits-for graph is checked for cycles, and a victim on each cycle is
  aborted (``victim_policy``: ``youngest`` / ``oldest`` / ``fewest_locks``);
* :class:`WoundWaitLocking` — *wound-wait* (Rosenkrantz et al. 1978): an
  older requester wounds every younger conflicting transaction (the victim
  aborts with :attr:`~repro.cc.base.AbortReason.WOUND`) and then waits; a
  younger requester simply waits.  Deadlock-free: persistent wait edges run
  young → old only, and a wounded transaction never enters a wait;
* :class:`WaitDieLocking` — *wait-die*: an older requester waits, a younger
  requester aborts itself immediately
  (:attr:`~repro.cc.base.AbortReason.DIE`).  Deadlock-free: wait edges run
  old → young only.

Shared machinery:

* a lock table maps each granule to its holders (with their modes) and an
  FCFS queue of waiting requests;
* shared (S) locks are granted concurrently, exclusive (X) locks require
  sole ownership; lock upgrades (S -> X) are supported and take priority
  over waiting requests from other transactions;
* a waiting request is itself a simulation event, its grant: a blocked
  transaction simply ``yield``s on it (or has
  :class:`~repro.cc.base.TransactionAborted` thrown into it);
* a queue holds live requests only: a request whose transaction aborts,
  or whose grant fails (a deadlock or wound victim), leaves its queue at
  once, so every queue walk — grants, blockers, the waits-for graph — sees
  exactly the transactions that still wait.

The timestamp-priority variants order transactions by their *first* start:
a restarted execution keeps its original priority, so a victim ages into
the oldest transaction and cannot starve.  Wounds are delivered immediately
to blocked victims (their wait event fails) and lazily to running ones (the
victim aborts at its next ``access``); a wounded transaction that reaches
its commit point without another access is allowed to commit — strict 2PL
already guarantees serializability, wounding exists purely to keep the
waits-for graph acyclic, and a committing victim releases its locks just as
fast as an aborting one.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional, Set

from repro.cc.base import AbortReason, ConcurrencyControl, TransactionAborted
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.tp.transaction import Transaction


class LockMode(enum.Enum):
    """Lock modes of the strict 2PL scheme."""

    SHARED = "S"
    EXCLUSIVE = "X"


class _LockRequest(Event):
    """A waiting lock request for one granule, and its own grant event.

    It succeeds with its mode when granted and fails with the
    :class:`~repro.cc.base.TransactionAborted` of a deadlock or wound
    victim, so one object per wait serves both the queue and the waiting
    process.
    """

    __slots__ = ("txn_id", "mode")

    def __init__(self, sim: Simulator, txn_id: int, mode: LockMode):
        super().__init__(sim)
        self.txn_id = txn_id
        self.mode = mode


@dataclass
class _LockState:
    """Holders and waiters of a single granule."""

    holders: Dict[int, LockMode] = field(default_factory=dict)
    waiters: Deque[_LockRequest] = field(default_factory=deque)


class LockingScheme(ConcurrencyControl):
    """Shared lock-table machinery of the strict 2PL family.

    Subclasses implement exactly one decision — :meth:`_block`, called when
    a request is incompatible with the current holders/queue — and inherit
    the grant, upgrade, release and withdrawal mechanics unchanged, so
    the variants differ only in conflict resolution, never in lock
    semantics.

    The scheme keeps decision state only: holders, live waiters and each
    waiting transaction's granule.  How many requests waited, deadlocked
    or died is the run's to count — the abort reason of every failed grant
    reaches ``RunMetrics`` — and the read-only views :meth:`holders_of` and
    :meth:`wait_depth` serve tests and probes.
    """

    name = "locking"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locks: Dict[int, _LockState] = {}
        #: txn_id -> set of granules it currently holds locks on
        self._held: Dict[int, Set[int]] = {}
        #: txn_id -> granule it is currently waiting for (at most one)
        self._waiting_for_item: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # ConcurrencyControl interface
    # ------------------------------------------------------------------
    def begin(self, txn: "Transaction") -> None:
        """Register a fresh execution: an empty held set, which its grants fill."""
        self._held[txn.txn_id] = set()

    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Acquire an S or X lock on ``item``; may return a wait event."""
        mode = LockMode.EXCLUSIVE if is_write else LockMode.SHARED
        txn.record_access(item, is_write)
        state = self._locks.get(item)
        if state is None:
            state = self._locks[item] = _LockState()
        return self._grant_or(txn.txn_id, item, mode, state, self._block)

    def try_commit(self, txn: "Transaction") -> bool:
        """2PL serializes by blocking: a transaction reaching commit always commits."""
        return True

    def finish(self, txn: "Transaction") -> None:
        """Release all locks at commit (strictness)."""
        self._release_all(txn.txn_id)

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Release all locks and withdraw any pending request."""
        self._withdraw(txn.txn_id)
        self._release_all(txn.txn_id)

    def wait_depth(self) -> int:
        """Transactions blocked on a lock (the waits-for structure's size)."""
        return len(self._waiting_for_item)

    # ------------------------------------------------------------------
    # conflict resolution hook
    # ------------------------------------------------------------------
    def _block(self, txn_id: int, item: int, mode: LockMode,
               state: _LockState) -> Optional[Event]:
        """Resolve a conflict: the request cannot be granted right now.

        Implementations may enqueue the request and return its wait event
        (possibly after sacrificing other transactions), or raise
        :class:`~repro.cc.base.TransactionAborted` to abort the requester
        itself.  Returning ``None`` means the conflict disappeared and the
        lock was granted after all (wound-wait after clearing the queue).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lock table mechanics (shared by every variant)
    # ------------------------------------------------------------------
    def holders_of(self, item: int) -> Dict[int, LockMode]:
        """Current holders of ``item`` (copy)."""
        state = self._locks.get(item)
        return dict(state.holders) if state else {}

    def _try_grant(self, txn_id: int, item: int, mode: LockMode,
                   state: _LockState) -> Optional[Event]:
        """Re-run the grant decision or enqueue.

        Used by conflict resolutions that may have *changed* the lock state
        (wound-wait withdrawing queued victims) and must re-check whether
        the request became grantable before committing to a wait.  Falls
        back to a plain enqueue — re-entering the conflict resolution here
        could recurse forever.
        """
        return self._grant_or(txn_id, item, mode, state, self._enqueue)

    def _grant_or(self, txn_id: int, item: int, mode: LockMode,
                  state: _LockState, blocked) -> Optional[Event]:
        """The one grant/upgrade decision; ``blocked`` handles conflicts.

        A single body keeps the family's promise that the variants differ
        only in conflict resolution: the held-mode short-circuit, the
        sole-holder upgrade and the compatibility grant cannot drift apart
        between the first attempt and wound-wait's re-check.
        """
        held_mode = state.holders.get(txn_id)
        if held_mode is not None:
            if held_mode == LockMode.EXCLUSIVE or mode == LockMode.SHARED:
                return None  # already strong enough
            # upgrade S -> X: possible immediately iff we are the only holder
            if len(state.holders) == 1:
                state.holders[txn_id] = LockMode.EXCLUSIVE
                return None
            return blocked(txn_id, item, mode, state)
        if self._compatible(state, mode):
            state.holders[txn_id] = mode
            self._held[txn_id].add(item)
            return None
        return blocked(txn_id, item, mode, state)

    def _compatible(self, state: _LockState, mode: LockMode) -> bool:
        if not state.holders:
            # grant only if no one is already waiting (FCFS, no barging)
            return not state.waiters
        if state.waiters:
            return False
        if mode == LockMode.SHARED:
            return LockMode.EXCLUSIVE not in state.holders.values()
        return False

    def _enqueue(self, txn_id: int, item: int, mode: LockMode,
                 state: _LockState) -> _LockRequest:
        """Append a waiting request and return it: it is the grant event."""
        request = _LockRequest(self.sim, txn_id, mode)
        state.waiters.append(request)
        self._waiting_for_item[txn_id] = item
        return request

    def _release_all(self, txn_id: int) -> None:
        items = self._held.pop(txn_id, ())
        for item in items:
            state = self._locks.get(item)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            self._grant_waiters(item, state)
            if not state.holders and not state.waiters:
                del self._locks[item]

    def _grant_waiters(self, item: int, state: _LockState) -> None:
        holders = state.holders
        while state.waiters:
            head = state.waiters[0]
            if head.mode == LockMode.EXCLUSIVE:
                # another holder blocks it; the head itself may hold S and
                # queue for the upgrade
                if len(holders) > (head.txn_id in holders):
                    return
            elif LockMode.EXCLUSIVE in holders.values():
                return
            state.waiters.popleft()
            holders[head.txn_id] = head.mode
            self._held[head.txn_id].add(item)
            self._waiting_for_item.pop(head.txn_id, None)
            head.succeed(head.mode)

    def _withdraw(self, txn_id: int,
                  error: Optional[TransactionAborted] = None) -> None:
        """Take ``txn_id``'s pending request, if any, out of its queue.

        With ``error`` the request's grant fails with it, so a victim's
        process aborts itself; either way the requests behind it are
        granted if they now can be.  A transaction waits for at most one
        granule, and its request is the only one of its id in that queue.
        """
        item = self._waiting_for_item.pop(txn_id, None)
        if item is None:
            return
        state = self._locks[item]
        waiters = state.waiters
        for index, request in enumerate(waiters):
            if request.txn_id == txn_id:
                del waiters[index]
                if error is not None:
                    request.fail(error)
                break
        self._grant_waiters(item, state)

    def _blockers_of(self, txn_id: int, state: _LockState) -> list:
        """The transactions a fresh request on ``state`` would wait for.

        Holders other than the requester plus every queued waiter: FCFS
        means a new request also waits for everything already in the
        queue.  Deduplicated (order-preserving): a transaction that both
        holds the granule and queues for an upgrade is one blocker, so
        wound-wait sacrifices it exactly once.
        """
        blockers = dict.fromkeys(t for t in state.holders if t != txn_id)
        for request in state.waiters:
            if request.txn_id != txn_id:
                blockers[request.txn_id] = None
        return list(blockers)


class TwoPhaseLocking(LockingScheme):
    """Strict two-phase locking (blocking CC) with deadlock detection.

    Conflict resolution: the request always waits; a cycle check runs
    whenever a transaction blocks, and a victim on the cycle (selected by
    ``victim_policy``) is aborted — its pending request event fails with
    :class:`~repro.cc.base.TransactionAborted`.

    The waits-for graph is never stored: a waiter waits for the other
    holders of its granule and for the waiters queued ahead of it, and the
    search reads those edges off the lock table.  The search is skipped
    when no transaction is queued on a granule the requester holds, and
    that is exact, not a heuristic, because of one invariant: **the graph
    is acyclic whenever** :meth:`_block` **returns**.

    * Only a block creates waits-for edges.  Grants, releases, upgrades
      and withdrawals remove edges, or turn an earlier-waiter edge into a
      holder edge (a granted head has no one ahead of it).
    * So any cycle a block closes passes through its requester R, and
      :meth:`_block` removes every such cycle before it returns.
    * R has just joined the tail of its queue, so no one waits behind it.
      An edge into R can only come from a waiter on a granule R holds —
      also R's own granule when R queues for an S -> X upgrade, where the
      earlier waiters wait for R as a holder.  With no such waiter there is
      no edge into R, no cycle, and nothing for the search to find.

    A new source of edges — a grant rule that lets a request overtake a
    queue, or a variant that reuses :meth:`_block` after creating edges of
    its own — breaks the invariant and must re-examine the skip.
    """

    name = "two-phase-locking"

    def __init__(self, sim: Simulator, victim_policy: str = "youngest"):
        if victim_policy not in ("youngest", "oldest", "fewest_locks"):
            raise ValueError(f"unknown victim policy {victim_policy!r}")
        super().__init__(sim)
        self.victim_policy = victim_policy
        #: txn_id -> start time of the current execution (victim choice)
        self._start_time: Dict[int, float] = {}

    def begin(self, txn: "Transaction") -> None:
        """Register a fresh execution and its start time."""
        super().begin(txn)
        self._start_time[txn.txn_id] = self.sim.now

    def _release_all(self, txn_id: int) -> None:
        super()._release_all(txn_id)
        self._start_time.pop(txn_id, None)

    # ------------------------------------------------------------------
    # conflict resolution: wait, then hunt for cycles
    # ------------------------------------------------------------------
    def _block(self, txn_id: int, item: int, mode: LockMode,
               state: _LockState) -> _LockRequest:
        request = self._enqueue(txn_id, item, mode, state)
        # A single block can close SEVERAL cycles at once: the FCFS edges
        # (waiting for earlier waiters of the same granule) run in parallel
        # to the direct holder edges, so aborting the victim of the first
        # cycle found may leave another cycle through the same granule
        # intact — and no further blocking event would ever re-trigger
        # detection for it.  Re-detect until the requester's reachable
        # graph is cycle-free (each round aborts one waiter, so this
        # terminates); once the requester itself is sacrificed it no longer
        # waits and the loop ends naturally.  Every round first asks
        # whether anyone waits for the requester at all: a cycle through
        # it needs such a waiter, and the class docstring shows that every
        # cycle passes through it, so without one the search would find
        # nothing.
        while self._is_waited_for(txn_id, item):
            victim = self._detect_deadlock(txn_id)
            if victim is None:
                break
            self._withdraw(victim, TransactionAborted(
                AbortReason.DEADLOCK,
                f"victim of deadlock on granule {self._waiting_for_item[victim]}"))
        return request

    # ------------------------------------------------------------------
    # deadlock handling
    # ------------------------------------------------------------------
    def _waits_for(self, txn_id: int) -> Set[int]:
        """Transactions that ``txn_id`` currently waits for."""
        item = self._waiting_for_item.get(txn_id)
        if item is None:
            return set()
        state = self._locks.get(item)
        if state is None:
            return set()
        blockers = {t for t in state.holders if t != txn_id}
        # FCFS: also wait for earlier waiters of the same granule
        for request in state.waiters:
            if request.txn_id == txn_id:
                break
            blockers.add(request.txn_id)
        return blockers

    def _is_waited_for(self, txn_id: int, item: int) -> bool:
        """Whether another transaction is queued on a granule ``txn_id`` holds.

        ``item`` is the granule ``txn_id`` has just queued for: it holds it
        only when it queued for an upgrade, and then its own request is one
        of that queue's waiters.
        """
        locks = self._locks
        for held in self._held[txn_id]:
            if len(locks[held].waiters) > (held == item):
                return True
        return False

    def _detect_deadlock(self, start: int) -> Optional[int]:
        """DFS from ``start`` in the waits-for graph; return a victim or None."""
        cycle = self._find_cycle(start, [], set(), set())
        if cycle is None:
            return None
        return self._select_victim(cycle)

    def _find_cycle(self, node: int, path: list[int], on_path: Set[int],
                    visited: Set[int]) -> Optional[list[int]]:
        """The waits-for cycle the DFS from ``node`` closes first, or None.

        A method rather than a closure: a recursive closure refers to
        itself, so every detection would leave cyclic garbage behind.
        """
        path.append(node)
        on_path.add(node)
        for successor in self._waits_for(node):
            if successor in on_path:
                return path[path.index(successor):]
            if successor not in visited:
                cycle = self._find_cycle(successor, path, on_path, visited)
                if cycle is not None:
                    return cycle
        on_path.discard(node)
        visited.add(node)
        path.pop()
        return None

    def _select_victim(self, cycle: list[int]) -> int:
        if self.victim_policy == "youngest":
            return max(cycle, key=lambda t: self._start_time.get(t, 0.0))
        if self.victim_policy == "oldest":
            return min(cycle, key=lambda t: self._start_time.get(t, 0.0))
        return min(cycle, key=lambda t: len(self._held.get(t, ())))


class _TimestampPriorityLocking(LockingScheme):
    """Common base of the deadlock-*avoiding* timestamp-priority variants.

    Every transaction receives a priority when it first begins — a monotone
    counter, so "older" is well defined even when two executions start at
    the same simulated instant — and *keeps it across restarts*: a victim
    ages until it is the oldest transaction in the system, which is what
    makes wound-wait and wait-die starvation-free.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        #: txn_id -> priority (smaller = older); survives restarts
        self._priority: Dict[int, int] = {}
        self._next_priority = 0

    def begin(self, txn: "Transaction") -> None:
        """Register the execution; first-ever begin assigns the priority."""
        super().begin(txn)
        if txn.txn_id not in self._priority:
            self._priority[txn.txn_id] = self._next_priority
            self._next_priority += 1

    def finish(self, txn: "Transaction") -> None:
        """Release locks and retire the committed transaction's priority."""
        super().finish(txn)
        self._priority.pop(txn.txn_id, None)

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """Release locks; keep the priority so a restarting victim ages.

        Displacement is the exception: the transaction leaves by controller
        decision, not by losing a conflict, and queues at the admission
        gate again before it resubmits, so its priority is retired.  The
        resubmitted transaction simply starts over as the youngest, which
        costs it fairness it was not owed: it was never a wound/die victim.
        A displacement that reaches a transaction while it waits out the
        restart delay after a conflict abort aborts nothing (that execution
        has already ended), so the transaction resubmits with the priority
        its conflict abort left.
        """
        super().abort(txn, reason)
        if reason is AbortReason.DISPLACEMENT:
            self._priority.pop(txn.txn_id, None)

    def priority_of(self, txn_id: int) -> Optional[int]:
        """The transaction's priority (smaller = older), if it has one."""
        return self._priority.get(txn_id)


class WoundWaitLocking(_TimestampPriorityLocking):
    """Wound-wait 2PL: an older requester wounds younger conflicting txns.

    On conflict, every conflicting transaction *younger* than the requester
    is wounded: a blocked victim has its wait event failed immediately, a
    running victim is marked and aborts at its next ``access`` (it never
    enters another wait).  The requester then re-checks the — possibly
    cleared — queue and waits if still necessary; a requester younger than
    all conflicting transactions simply waits.  No waits-for graph is ever
    built: persistent wait edges run young → old only, so cycles cannot
    form.
    """

    name = "wound-wait"

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        #: running transactions with a pending wound (die at next access)
        self._wounded: Set[int] = set()

    def access(self, txn: "Transaction", item: int, is_write: bool) -> Optional[Event]:
        """Deliver a pending wound before the access happens."""
        if txn.txn_id in self._wounded:
            raise TransactionAborted(
                AbortReason.WOUND,
                f"wound delivered before access to granule {item}")
        return super().access(txn, item, is_write)

    def abort(self, txn: "Transaction", reason: AbortReason) -> None:
        """The abort consumes any pending wound (the restart is innocent)."""
        super().abort(txn, reason)
        self._wounded.discard(txn.txn_id)

    def finish(self, txn: "Transaction") -> None:
        """Commit immunity: a wounded txn reaching commit simply finishes."""
        super().finish(txn)
        self._wounded.discard(txn.txn_id)

    def _block(self, txn_id: int, item: int, mode: LockMode,
               state: _LockState) -> Optional[Event]:
        priority = self._priority[txn_id]
        for other in self._blockers_of(txn_id, state):
            other_priority = self._priority.get(other)
            if other_priority is not None and other_priority > priority:
                self._wound(other)
        # wounded waiters left the queue (and grants may have cascaded), so
        # the request may have become grantable — never wait on a clear queue
        return self._try_grant(txn_id, item, mode, state)

    def _wound(self, victim: int) -> None:
        """Abort ``victim`` now if blocked, at its next access otherwise."""
        item = self._waiting_for_item.get(victim)
        if item is not None:
            self._withdraw(victim, TransactionAborted(
                AbortReason.WOUND,
                f"wounded by an older transaction while waiting on granule {item}"))
        else:
            self._wounded.add(victim)


class WaitDieLocking(_TimestampPriorityLocking):
    """Wait-die 2PL: a younger requester dies instead of waiting.

    On conflict the requester waits only if it is *older* than every
    conflicting transaction; otherwise it aborts itself on the spot
    (``access`` raises :class:`~repro.cc.base.TransactionAborted` with
    :attr:`~repro.cc.base.AbortReason.DIE`) and restarts with its original
    priority.  Wait edges run old → young only, so cycles cannot form and
    no victim is ever chosen among *other* transactions.
    """

    name = "wait-die"

    def _block(self, txn_id: int, item: int, mode: LockMode, state: _LockState) -> Event:
        priority = self._priority[txn_id]
        for other in self._blockers_of(txn_id, state):
            other_priority = self._priority.get(other)
            if other_priority is not None and other_priority < priority:
                raise TransactionAborted(
                    AbortReason.DIE,
                    f"wait-die: younger than a conflicting transaction "
                    f"on granule {item}")
        return self._enqueue(txn_id, item, mode, state)
