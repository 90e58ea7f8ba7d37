"""Cross-scheme invariants: every registered CC scheme obeys the model.

The registry (:mod:`repro.cc.registry`) makes the concurrency control
scheme a sweep dimension, so these tests run over *every* registered kind
— a scheme added to the registry is automatically held to the same
contract:

* **closed-model conservation** — transactions never leak: at any stopping
  point ``admitted == committed + in-flight`` (without displacement every
  departure is a commit; abandoned executions restart inside the system);
* **rise-then-fall** — the load/throughput curve has the paper's Figure 1
  shape.  The loads are not guessed: they are placed around the scheme's
  *analytic oracle* — the OCC fixed-point model
  (:class:`repro.analytic.occ.OccModel`) for the optimistic scheme, Tay's
  locking model (:class:`repro.analytic.tay.TayModel`) for 2PL — so the
  test also checks that the simulated optimum sits where the matching
  first-order theory predicts thrashing territory begins;
* **one end per execution** — every ``finish`` or ``abort`` the system
  sends a scheme closes an execution that ``begin`` opened and that has
  not ended yet, also when the load controller displaces transactions.
"""

import pytest

from repro.analytic.occ import OccModel
from repro.analytic.tay import TayModel
from repro.cc import CCSpec, cc_family, cc_kinds
from repro.cc.base import ConcurrencyControl
from repro.core.displacement import DisplacementPolicy, VictimCriterion
from repro.core.incremental_steps import IncrementalStepsController
from repro.experiments.config import contention_bound_params
from repro.experiments.stationary import run_stationary_point
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.tp.params import SystemParams, WorkloadParams
from repro.tp.system import TransactionSystem
from repro.tp.workload import JumpSchedule, Workload

#: the six built-in schemes; a registration regression must fail loudly,
#: not silently shrink the parametrized coverage below
EXPECTED_KINDS = ("occ_forward", "snapshot_isolation", "timestamp_cert",
                  "two_phase_locking", "wait_die", "wound_wait")


def contended_params(seed: int = 11, think_time: float = 0.0) -> SystemParams:
    """A small, heavily contended configuration: fast runs, real conflicts.

    ``think_time=0`` keeps every terminal's transaction permanently in the
    system, so the multiprogramming level *equals* the offered load and
    the analytic oracles (which reason in MPL) apply directly.
    """
    return SystemParams(
        n_terminals=10, think_time=think_time, n_cpus=2,
        cpu_init=0.002, cpu_per_access=0.002, cpu_commit=0.002,
        disk_per_access=0.004, disk_commit=0.004, restart_delay=0.005,
        seed=seed,
        workload=WorkloadParams(db_size=150, accesses_per_txn=6,
                                query_fraction=0.1, write_fraction=0.8))


def oracle_optimum(kind: str, params: SystemParams) -> float:
    """The analytic model's optimum MPL, chosen by the scheme's *family*.

    Locking-family schemes (detector, wound-wait, wait-die) are placed by
    Tay's blocking model; optimistic ones by the OCC fixed point — the same
    rule the runner uses for its reported model references.
    """
    if cc_family(kind) == "locking":
        model = TayModel(db_size=params.workload.db_size,
                         locks_per_txn=params.workload.accesses_per_txn)
        return model.critical_mpl()
    # optimistic / multiversion / unknown schemes: the OCC fixed-point model
    # (snapshot isolation certifies first-committer-wins over write sets,
    # an optimistic validation, so the OCC fixed point places it too)
    return OccModel(params).optimal_mpl()


class TestEveryRegisteredScheme:
    def test_the_full_scheme_family_is_registered(self):
        """Exactly the six built-ins: a lost registration would silently
        deselect every parametrized test below, so pin the roster itself."""
        assert cc_kinds() == EXPECTED_KINDS
        assert len(cc_kinds()) == 6
        families = {kind: cc_family(kind) for kind in cc_kinds()}
        assert families == {
            "occ_forward": "optimistic",
            "snapshot_isolation": "multiversion",
            "timestamp_cert": "optimistic",
            "two_phase_locking": "locking",
            "wait_die": "locking",
            "wound_wait": "locking",
        }

    @pytest.mark.parametrize("kind", cc_kinds())
    @pytest.mark.parametrize("seed", [5, 23])
    def test_admitted_equals_committed_plus_in_flight(self, kind, seed):
        """Gate-level conservation holds under every scheme."""
        params = contended_params(seed=seed, think_time=0.1).with_changes(
            n_terminals=30)
        sim = Simulator()
        system = TransactionSystem(params, sim=sim, cc=CCSpec.make(kind).build(sim))
        system.run(until=5.0)

        gate = system.gate
        metrics = system.metrics
        in_flight = gate.current_load
        assert gate.total_admitted == gate.total_departed + in_flight
        # no displacement configured: departures are exactly the commits
        assert gate.total_departed == metrics.commits
        assert gate.total_admitted == metrics.commits + in_flight
        # abandoned executions restart in place, they never depart
        assert metrics.restarts == metrics.total_aborts
        assert metrics.commits > 0
        # the contended configuration must exercise the scheme's abort path
        assert metrics.total_aborts > 0, f"{kind} never aborted: test is vacuous"
        # only transactions in flight can be blocked inside the scheme
        assert system.cc.wait_depth() <= in_flight

    @pytest.mark.parametrize("kind", cc_kinds())
    def test_throughput_rises_then_falls_where_the_oracle_predicts(self, kind):
        """The smoke-scale curve has the Figure 1 shape around the oracle."""
        base = contended_params(seed=11)
        optimum = oracle_optimum(kind, base)
        assert optimum > 1.0, "oracle must predict a usable optimum"
        low = max(2, round(0.25 * optimum))
        mid = max(low + 1, round(optimum))
        high = max(4 * mid, round(6 * optimum))

        throughput = {}
        for load in (low, mid, high):
            point = run_stationary_point(
                base.with_changes(n_terminals=load),
                horizon=6.0, warmup=1.0, cc=CCSpec.make(kind))
            throughput[load] = point.throughput

        # rising flank: well below the oracle optimum, more load helps
        assert throughput[mid] > throughput[low], (
            f"{kind}: no rise {throughput} around oracle optimum {optimum:.1f}")
        # falling flank: far beyond it, contention destroys throughput
        assert throughput[high] < 0.85 * throughput[mid], (
            f"{kind}: no thrashing {throughput} beyond oracle optimum {optimum:.1f}")


class _ExecutionChecker(ConcurrencyControl):
    """Delegate every call to ``inner``; log each end of an execution that
    is not running.

    An execution runs from ``begin`` until its ``finish`` or ``abort``.  The
    log is checked after the run, because an assertion raised inside a
    simulation process would end that process rather than the test.
    """

    def __init__(self, inner: ConcurrencyControl):
        self.inner = inner
        self.name = inner.name
        self.running = set()
        self.ended = 0
        self.violations = []

    def begin(self, txn):
        if txn.txn_id in self.running:
            self.violations.append(f"txn {txn.txn_id}: begin while running")
        self.running.add(txn.txn_id)
        self.inner.begin(txn)

    def access(self, txn, item, is_write):
        return self.inner.access(txn, item, is_write)

    def try_commit(self, txn):
        return self.inner.try_commit(txn)

    def finish(self, txn):
        self._end(txn, "finish")
        self.inner.finish(txn)

    def abort(self, txn, reason):
        self._end(txn, f"abort ({reason.value})")
        self.inner.abort(txn, reason)

    def wait_depth(self):
        return self.inner.wait_depth()

    def _end(self, txn, how):
        if txn.txn_id not in self.running:
            self.violations.append(f"txn {txn.txn_id}: {how} of no running execution")
        self.running.discard(txn.txn_id)
        self.ended += 1


class TestOneEndPerExecution:
    @pytest.mark.parametrize("criterion", list(VictimCriterion), ids=lambda c: c.value)
    @pytest.mark.parametrize("kind", cc_kinds())
    def test_displacement_during_a_restart_delay_books_no_second_abort(
            self, kind, criterion):
        """Regression: a displacement that reached a transaction while it
        waited out its restart delay aborted the execution a second time.

        The conflict abort had already ended that execution, so the scheme,
        the run metrics and the observers each booked one abort too many.
        A long restart delay and zero-hysteresis displacement after a jump
        of ``k`` make such hits common under every scheme.
        """
        base = contention_bound_params(seed=31)
        params = base.with_changes(
            n_terminals=40, restart_delay=1.0,
            workload=base.workload.with_changes(db_size=150))
        sim = Simulator()
        streams = RandomStreams(params.seed)
        workload = Workload.with_schedules(
            params.workload, streams, accesses=JumpSchedule(4, 16, jump_time=5.0))
        checker = _ExecutionChecker(CCSpec.make(kind).build(sim))
        system = TransactionSystem(
            params, sim=sim, streams=streams, workload=workload, cc=checker,
            displacement=DisplacementPolicy(criterion, hysteresis=0))
        controller = IncrementalStepsController(
            initial_limit=40, beta=0.5, gamma=8, delta=20, min_step=4.0,
            lower_bound=4, upper_bound=params.n_terminals)
        loop = system.attach_controller(controller, interval=2.0)
        system.run(until=10.0)

        assert loop.total_displaced > 0, "no displacement: test is vacuous"
        assert system.metrics.total_aborts > loop.total_displaced
        assert checker.violations == []
        assert checker.ended == system.metrics.commits + system.metrics.total_aborts
