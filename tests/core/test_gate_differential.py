"""Differential test: the admission gate against the reference gate.

Hypothesis generates scripts of ``submit(tenant)``, ``depart(an admitted
transaction)`` and ``set_limit(n)`` steps over three tenants, and each
script runs on ``AdmissionGate`` and on ``reference_gate.ReferenceGate``.
After every step both must agree on the admitted set, the order of the
waiting queue, the outcome of each submission (admitted, queued or shed),
the load and the queue length.  Four configurations cover the gate's one
admission path with no quotas, where it must stay plain FCFS, and with any
mix of admission and queue quotas.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_gate import ReferenceGate

from repro.core.admission import AdmissionGate, AdmissionShed
from repro.sim.engine import Simulator
from repro.tp.transaction import Transaction, TransactionClass

TENANTS = ("a", "b", "c")

CONFIGURATIONS = {
    "no_quotas": ({}, {}),
    "admission_quota": ({"a": 1, "b": 2}, {}),
    "queue_quota": ({}, {"a": 0, "b": 2}),
    "both": ({"a": 1, "b": 2}, {"a": 1, "c": 2}),
}

STEPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(TENANTS)),
    st.tuples(st.just("depart"), st.integers(0, 20)),
    st.tuples(st.just("set_limit"), st.integers(1, 6)),
)


def _outcome(event):
    if not event.triggered:
        return "queued"
    if event.ok:
        return "admitted"
    assert isinstance(event.exception, AdmissionShed)
    return "shed"


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(initial_limit=st.integers(1, 5), script=st.lists(STEPS, max_size=40))
@settings(max_examples=150, deadline=None)
def test_gate_matches_the_reference_gate(configuration, initial_limit, script):
    quotas, queue_quotas = CONFIGURATIONS[configuration]
    gate = AdmissionGate(Simulator(), initial_limit=initial_limit,
                         tenant_quotas=quotas or None,
                         tenant_queue_quotas=queue_quotas or None)
    reference = ReferenceGate(initial_limit, quotas, queue_quotas)
    transactions = {}
    for kind, argument in script:
        if kind == "submit":
            txn_id = len(transactions)
            txn = transactions[txn_id] = Transaction(
                txn_id=txn_id, terminal_id=0, txn_class=TransactionClass.QUERY,
                items=(txn_id,), write_flags=(False,), tenant=argument)
            assert _outcome(gate.submit(txn)) == reference.submit(txn_id, argument)
        elif kind == "depart":
            if not reference.admitted:
                continue
            txn_id, _tenant = reference.admitted[argument % len(reference.admitted)]
            gate.depart(transactions[txn_id])
            reference.depart(txn_id)
        else:
            gate.set_limit(argument)
            reference.set_limit(argument)
        assert gate._admitted == {txn_id for txn_id, _tenant in reference.admitted}
        assert [txn.txn_id for txn, _event in gate._waiting] == [
            txn_id for txn_id, _tenant in reference.waiting]
        assert gate.current_load == len(reference.admitted)
        assert gate.queue_length == len(reference.waiting)
