"""The closed transaction processing system (Section 7, Figure 11).

The physical model is a closed queueing network in which ``N`` statistically
identical transactions circulate:

* a set of ``N`` terminals where transactions are started after an
  exponentially distributed think time;
* an admission gate (the load-control "gate" of Figure 5) in front of the
  processing system;
* a homogeneous multiprocessor (``m`` CPUs) serving one shared FCFS queue;
* a disk subsystem with constant service times and no contention (a pure
  delay);
* the concurrency control scheme, by default optimistic timestamp
  certification.

The execution of a transaction consists of ``k + 2`` phases: an
initialization phase, ``k`` phases with gradually increasing data set size
(one granule accessed per phase, each phase using the CPU and then the
disk), and a final phase for commit processing.  When certification fails
the transaction is aborted and restarted from scratch (its reads and writes
are repeated), which is precisely the mechanism by which data contention is
converted into resource contention and, beyond the optimal concurrency
level, into thrashing.

Processes.  Each terminal is one simulation process, and so is each
session of an open or partly-open source.  A transaction's lifecycle runs
inside the process that submitted it (``yield from``), from admission to
commit, so no process is made per admission.  Displacement interrupts that
source process while its transaction is active.  The displacement rule:
every victim of one displacement aborts before any of them departs, so the
gate admits no waiter until the last victim's execution has ended.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.cc.base import AbortReason, ConcurrencyControl, TransactionAborted
from repro.cc.timestamp_cert import TimestampCertification
from repro.core.admission import AdmissionGate, AdmissionShed
from repro.core.controller import LoadController
from repro.core.displacement import DisplacementPolicy
from repro.core.measurement import MeasurementProcess
from repro.core.outer_loop import MeasurementIntervalTuner
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.resources import Resource
from repro.tp.arrivals import (
    INTERARRIVAL_STREAM,
    SESSION_THINK_STREAM,
    THINNING_STREAM,
    ArrivalProcess,
)
from repro.tp.metrics import RunMetrics
from repro.tp.params import SystemParams
from repro.tp.transaction import Transaction
from repro.tp.workload import ExponentialDraws, UniformDraws, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.obs.catalog import ObserverSet


#: outcome values returned by a transaction lifecycle: ``_submit_and_process``
#: departs a committed transaction at once, and a displaced one after a
#: zero-delay wait, then resubmits it
COMMITTED = "committed"
DISPLACED = "displaced"


class TransactionSystem:
    """The complete closed model: terminals, gate, CPUs, disks, CC scheme."""

    def __init__(self,
                 params: SystemParams,
                 sim: Optional[Simulator] = None,
                 streams: Optional[RandomStreams] = None,
                 workload: Optional[Workload] = None,
                 cc: Optional[ConcurrencyControl] = None,
                 gate: Optional[AdmissionGate] = None,
                 displacement: Optional[DisplacementPolicy] = None,
                 observers: Optional["ObserverSet"] = None,
                 arrivals: Optional[ArrivalProcess] = None):
        self.params = params
        #: how transactions enter the system: None = the paper's N-terminal
        #: closed model, otherwise an open or partly-open source (see
        #: repro.tp.arrivals) replaces the terminal processes
        self.arrivals = arrivals
        self.sim = sim or Simulator()
        self.streams = streams or RandomStreams(params.seed)
        self.workload = workload or Workload(params.workload, self.streams)
        self.cc = cc or TimestampCertification(self.sim)
        self.gate = gate or AdmissionGate(self.sim)
        self.displacement = displacement
        self.metrics = RunMetrics(self.sim)
        self.cpus = Resource(self.sim, params.n_cpus, name="cpu")
        #: txn_id -> (transaction, the terminal or session process running
        #: its lifecycle) from admission until the lifecycle commits or a
        #: displacement interrupts that process
        self._active: Dict[int, Tuple[Transaction, Process]] = {}
        self._terminal_processes: List[Process] = []
        #: the other endless processes start() made: the measurement loop,
        #: the observers' sampler and the arrival source
        self._loops: List[Process] = []
        #: session_id -> process of each open or partly-open session still running
        self._sessions: Dict[int, Process] = {}
        self._started = False
        self.measurement: Optional[MeasurementProcess] = None
        #: the run's observers (see repro.obs.catalog), or None: the one slot
        #: every lifecycle event checks, so unobserved runs pay one None test
        self._observer = observers or None
        if self._observer is not None:
            self._observer.bind(self)
        # the think, CPU, restart and session-think draws are hot-path calls
        # on streams nothing else reads, so they come from numpy in blocks
        self._think_draw = ExponentialDraws(self.streams, "think-time").draw
        self._restart_draw = ExponentialDraws(self.streams, "restart-delay").draw
        self._session_think_draw = ExponentialDraws(self.streams, SESSION_THINK_STREAM).draw
        #: the reader of the phases' CPU demands, which the CPU station
        #: draws from when a visit is made; None serves each phase's mean
        self._cpu_draws = (ExponentialDraws(self.streams, "cpu-demand")
                           if params.stochastic_cpu else None)

    # ------------------------------------------------------------------
    # wiring and execution
    # ------------------------------------------------------------------
    def attach_controller(self,
                          controller: LoadController,
                          interval: float = 5.0,
                          warmup: float = 0.0,
                          interval_tuner: Optional[MeasurementIntervalTuner] = None) -> MeasurementProcess:
        """Close the feedback loop of Figure 5 around this system.

        Returns the measurement process so callers can inspect its control
        trace after the run.  Must be called before :meth:`start`.
        """
        if self._started:
            raise RuntimeError("attach_controller must be called before start()")
        self.measurement = MeasurementProcess(
            sim=self.sim,
            gate=self.gate,
            metrics=self.metrics,
            controller=controller,
            interval=interval,
            warmup=warmup,
            displace=self.displace_to if self.displacement is not None else None,
            interval_tuner=interval_tuner,
            mean_accesses_provider=lambda now: float(
                self.workload.params_at(now).accesses_per_txn
            ),
        )
        return self.measurement

    def start(self) -> None:
        """Create the source processes (and the measurement loop, if any).

        The closed model (``arrivals=None``) runs the paper's ``N``
        terminal processes; open and partly-open arrivals run a single
        source process instead.
        """
        if self._started:
            raise RuntimeError("the system has already been started")
        self._started = True
        if self.measurement is not None:
            self._loops.append(self.measurement.start())
        if self._observer is not None and self._observer.samples:
            # the sampler draws no RNG and mutates no model state, so its
            # extra heap events leave the model trajectory untouched
            self._loops.append(self.sim.process(self._observer.sampler(self.sim),
                                                name="observer-sampler"))
        if self.arrivals is None:
            for terminal_id in range(self.params.n_terminals):
                process = self.sim.process(
                    self._terminal(terminal_id), name=f"terminal-{terminal_id}"
                )
                self._terminal_processes.append(process)
        else:
            self._loops.append(self.sim.process(self._arrival_source(), name="arrival-source"))

    def run(self, until: float) -> float:
        """Start (if necessary) and run the simulation until ``until``."""
        if not self._started:
            self.start()
        return self.sim.run(until=until)

    def close(self) -> None:
        """End the run: close every process the system started, then clear the queue.

        Each running process is detached from the event it waits on and its
        generator closed; closing can schedule events (a generator's
        ``finally`` blocks run), so the pending queue is cleared last.  The
        system then lets go of its observers and its measurement loop, which
        refer back to it.  What is left refers to nothing that refers back,
        so reference counting frees the finished run without the cycle
        collector.  Read results before or after, through the observer set
        and the measurement loop the caller holds; do not run the system
        again.  Closing a terminal or session also closes the lifecycle it
        runs.
        """
        for process in self._loops + self._terminal_processes + list(self._sessions.values()):
            process.close()
        self.sim.clear()
        self._observer = None
        self.measurement = None

    # ------------------------------------------------------------------
    # displacement support (invoked by the measurement process)
    # ------------------------------------------------------------------
    def active_transactions(self) -> List[Transaction]:
        """Transactions currently admitted to the processing system."""
        return [txn for txn, _process in self._active.values()]

    def displace_to(self, new_limit: float) -> int:
        """Abort enough active transactions to honour ``new_limit`` now.

        Takes each victim the displacement policy selects off the active
        transactions, interrupts its terminal or session process and
        returns how many it interrupted; a second call at the same instant
        chooses among the transactions left.  Each interrupt runs in a
        wake-up of its own at this instant: the victim's lifecycle
        withdraws its CPU visit, aborts the execution and returns
        ``DISPLACED``, and its departure waits for one more zero-delay
        event, so all victims abort before the first departs (see
        :meth:`_submit_and_process`).
        """
        if self.displacement is None:
            return 0
        victims = self.displacement.select_victims(self.active_transactions(), new_limit)
        for victim in victims:
            _txn, process = self._active.pop(victim.txn_id)
            process.interrupt(TransactionAborted(AbortReason.DISPLACEMENT, "displaced"))
        return len(victims)

    # ------------------------------------------------------------------
    # model processes
    # ------------------------------------------------------------------
    def _terminal(self, terminal_id: int) -> Generator:
        """One terminal: think, submit, wait for admission, run, repeat."""
        process = self._terminal_processes[terminal_id]
        think_mean = self.params.think_time
        think_draw = self._think_draw
        while True:
            if think_mean > 0:
                think = think_draw(think_mean)
                if think > 0:
                    yield self.sim.timeout(think)
            yield from self._submit_and_process(terminal_id, process)

    def _arrival_source(self) -> Generator:
        """Open/partly-open source: spawn a session at every arrival instant.

        Sessions run as independent processes (an open source never waits
        for earlier work), so a congested system keeps receiving arrivals —
        the load shape that makes shedding, rather than queueing, the only
        defence against sustained overload.
        """
        arrivals = self.arrivals
        streams = self.streams
        gaps = ExponentialDraws(streams, INTERARRIVAL_STREAM)
        thinning = UniformDraws(streams, THINNING_STREAM)
        session_id = 0
        while True:
            gap = arrivals.next_interarrival(gaps, thinning, self.sim.now)
            if gap > 0:
                yield self.sim.timeout(gap)
            size = arrivals.session_size(streams)
            self._sessions[session_id] = self.sim.process(
                self._session(session_id, size), name=f"session-{session_id}"
            )
            session_id += 1

    def _session(self, session_id: int, size: int) -> Generator:
        """One arriving session: submit ``size`` transactions, then leave."""
        process = self._sessions[session_id]
        think_mean = self.arrivals.session_think_time
        for index in range(size):
            if index and think_mean > 0:
                think = self._session_think_draw(think_mean)
                if think > 0:
                    yield self.sim.timeout(think)
            yield from self._submit_and_process(session_id, process)
        del self._sessions[session_id]

    def _submit_and_process(self, source_id: int, source: Process) -> Generator:
        """Submit a new transaction of ``source_id`` and run it until it commits.

        Runs inside ``source``, the terminal or session process of
        ``source_id``.  Each admission runs the lifecycle inline and is
        listed in ``_active`` with ``source`` until it commits or
        :meth:`displace_to` takes it off.  A committed transaction departs
        at once.  A displaced one departs after a zero-delay wait, which is
        numbered after the interrupt wake-ups of the other victims of the
        same displacement, so every victim aborts before any of them
        departs; it then queues again, keeping its submission time, so the
        displacement penalty shows up in its response time.

        A submission shed by a tenant queue quota ends here: the failed
        admission event raises :class:`AdmissionShed` at the ``yield``, the
        shed is booked, and the transaction never enters the system (so no
        ``depart`` either).
        """
        txn = self.workload.next_transaction(self.sim.now, source_id)
        self.metrics.record_submission()
        observer = self._observer
        if observer is not None:
            observer.submit(self.sim.now, txn)
        while True:
            try:
                yield self.gate.submit(txn)
            except AdmissionShed:
                self.metrics.record_shed(txn.tenant)
                if observer is not None:
                    observer.shed(self.sim.now, txn)
                return
            if observer is not None:
                observer.admit(self.sim.now, txn)

            self._active[txn.txn_id] = (txn, source)
            outcome = yield from self._transaction_lifecycle(txn)
            if outcome == COMMITTED:
                del self._active[txn.txn_id]
            else:
                # displace_to took it off _active; depart only after the
                # other victims of this instant have aborted
                yield self.sim.timeout(0.0)
            self.gate.depart(txn)
            if observer is not None:
                observer.depart(self.sim.now, txn, outcome)
            if outcome == COMMITTED:
                return

    def _transaction_lifecycle(self, txn: Transaction) -> Generator:
        """Run one admitted transaction to commit, restarting as needed.

        Runs inside the submitting process (``yield from``) and returns
        ``COMMITTED``, or ``DISPLACED`` when a displacement interrupts it.
        Each phase with CPU work is one visit to the multiprocessor: the
        CPU burst, drawn when the visit is made, then the disk delay.  A
        phase without CPU work is the disk delay alone.
        """
        params = self.params
        sim = self.sim
        cpu_visit = self.cpus.visit
        cpu_draws = self._cpu_draws
        cc_access = self.cc.access
        cpu_init = params.cpu_init
        cpu_access = params.cpu_per_access
        cpu_commit = params.cpu_commit
        disk_access = params.disk_per_access
        disk_commit = params.disk_commit
        restart_delay = params.restart_delay
        observer = self._observer
        restarting = False
        # the latest CPU visit, withdrawn if a displacement interrupts it
        visit = None
        while True:
            try:
                if restarting:
                    # inside the try, so a displacement that arrives while
                    # the aborted execution waits to restart is handled
                    if restart_delay > 0:
                        yield sim.timeout(self._restart_draw(restart_delay))
                    restarting = False
                txn.start_execution(sim.now)
                self.cc.begin(txn)
                # initialization phase
                if cpu_init > 0:
                    visit = cpu_visit(cpu_init, disk_access, cpu_draws)
                    yield visit
                elif disk_access > 0:
                    yield sim.timeout(disk_access)
                # k access phases with gradually increasing data set size
                for item, is_write in zip(txn.items, txn.write_flags):
                    grant = cc_access(txn, item, is_write)
                    if grant is not None:
                        if observer is None:
                            yield grant
                        else:
                            waited_from = sim.now
                            yield grant
                            observer.lock_wait(sim.now, txn, sim.now - waited_from)
                    if cpu_access > 0:
                        visit = cpu_visit(cpu_access, disk_access, cpu_draws)
                        yield visit
                    elif disk_access > 0:
                        yield sim.timeout(disk_access)
                # commit processing phase
                if cpu_commit > 0:
                    visit = cpu_visit(cpu_commit, disk_commit, cpu_draws)
                    yield visit
                elif disk_commit > 0:
                    yield sim.timeout(disk_commit)

                if self.cc.try_commit(txn):
                    self.cc.finish(txn)
                    txn.committed_at = self.sim.now
                    self.metrics.record_commit(
                        txn.committed_at - txn.submitted_at, txn.last_conflicts,
                        tenant=txn.tenant,
                    )
                    if observer is not None:
                        observer.commit(txn.committed_at, txn)
                    return COMMITTED

                # certification failed: abort this execution and restart
                self._abort(txn, AbortReason.CERTIFICATION, txn.last_conflicts)
                restarting = True

            except TransactionAborted as aborted:
                # blocking CC made this transaction a deadlock victim.  This
                # frame's own ``grant`` local holds the failed grant event,
                # whose value is this exception, whose traceback holds this
                # frame: drop the traceback to break that cycle
                aborted.__traceback__ = None
                self._abort(txn, aborted.reason)
                restarting = True

            except Interrupt as interrupt:
                # displacement by the load controller: first leave the CPU
                # (a visit already in its disk delay is left alone); during a
                # restart delay the conflict abort has already ended the
                # execution
                if visit is not None:
                    self.cpus.cancel(visit)
                if not restarting:
                    reason = AbortReason.DISPLACEMENT
                    cause = interrupt.cause
                    if isinstance(cause, TransactionAborted):
                        reason = cause.reason
                    self._abort(txn, reason)
                return DISPLACED

    def _abort(self, txn: Transaction, reason: AbortReason, conflicts: int = 0) -> None:
        """Abandon the current execution of ``txn`` (it may restart afterwards)."""
        self.cc.abort(txn, reason)
        self.metrics.record_abort(reason, conflicts)
        if self._observer is not None:
            self._observer.abort(self.sim.now, txn, reason)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Key run-level quantities for quick inspection and reports."""
        return {
            "time": self.sim.now,
            "commits": float(self.metrics.commits),
            "throughput": self.metrics.throughput(),
            "mean_response_time": self.metrics.mean_response_time(),
            "mean_concurrency": self.gate.mean_load(),
            "restart_ratio": self.metrics.restart_ratio,
            "conflict_ratio": self.metrics.conflict_ratio,
            "cpu_utilisation": self.cpus.utilisation(),
            "current_limit": self.gate.limit,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransactionSystem N={self.params.n_terminals} cpus={self.params.n_cpus} "
            f"cc={self.cc.name} t={self.sim.now:.1f}>"
        )
