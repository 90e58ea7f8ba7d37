"""Framing tests for the coordinator/worker wire protocol."""

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.displacement import VictimCriterion
from repro.dist import protocol
from repro.dist.protocol import (
    HEADER,
    ConnectionClosed,
    ProtocolError,
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.experiments.config import ExperimentScale
from repro.runner.registry import build_sweep


def _roundtrip(messages):
    """Send ``messages`` over a real socket pair, return what arrives."""
    left, right = socket.socketpair()
    received = []
    try:
        def reader():
            for _ in messages:
                received.append(recv_message(right))

        thread = threading.Thread(target=reader)
        thread.start()
        for message in messages:
            send_message(left, message)
        thread.join(timeout=30)
        assert not thread.is_alive(), "reader did not drain all frames"
    finally:
        left.close()
        right.close()
    return received


#: nested JSON-ish payloads exercising arbitrary pickle structures
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=64),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestFramingRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_payloads, min_size=1, max_size=6))
    def test_arbitrary_payloads_roundtrip(self, messages):
        assert _roundtrip(messages) == messages

    def test_frame_boundaries_survive_interleaving(self):
        # many small frames in one stream: each recv_message must stop at
        # exactly its own frame boundary
        messages = [("msg", index, "x" * index) for index in range(64)]
        assert _roundtrip(messages) == messages

    def test_large_frame_is_chunked_correctly(self):
        # several MiB: exercises the recv_exact reassembly loop and the
        # sendall path well past any single TCP segment
        blob = np.random.default_rng(7).integers(0, 256, size=3 << 20,
                                                 dtype=np.uint8).tobytes()
        [received] = _roundtrip([("blob", blob)])
        assert received == ("blob", blob)

    def test_numpy_and_runspec_payloads(self):
        spec = build_sweep("thrashing", scale=ExperimentScale.smoke())
        array = np.arange(12.0).reshape(3, 4)
        received = _roundtrip([("cells", spec.cells), ("array", array)])
        assert received[0] == ("cells", spec.cells)
        np.testing.assert_array_equal(received[1][1], array)

    def test_displacement_policy_and_cc_spec_runspecs_roundtrip(self):
        """The post-dist sweep dimensions survive the wire protocol intact.

        ``displacement_policies`` cells carry a
        :class:`~repro.core.displacement.DisplacementPolicy` (with its
        :class:`~repro.core.displacement.VictimCriterion`), ``cc_compare``
        cells a :class:`~repro.cc.registry.CCSpec`; a coordinator ships
        exactly these specs to remote workers, so their framing round-trip
        must preserve every configuration field.
        """
        displacement_spec = build_sweep("displacement_policies",
                                        scale=ExperimentScale.smoke())
        cc_spec = build_sweep("cc_compare", scale=ExperimentScale.smoke())
        received = _roundtrip([("displacement", displacement_spec.cells),
                               ("cc", cc_spec.cells)])

        assert received[0] == ("displacement", displacement_spec.cells)
        _tag, arrived = received[0]
        for original, restored in zip(displacement_spec.cells, arrived):
            if original.displacement is None:
                assert restored.displacement is None
                continue
            assert restored.displacement is not original.displacement
            assert restored.displacement.criterion is original.displacement.criterion
            assert restored.displacement.hysteresis == original.displacement.hysteresis
            assert restored.displacement.enabled == original.displacement.enabled

        assert received[1] == ("cc", cc_spec.cells)
        for original, restored in zip(cc_spec.cells, received[1][1]):
            assert restored.cc == original.cc
            assert restored.cc.kind in ("timestamp_cert", "two_phase_locking")

    @pytest.mark.parametrize("criterion", list(VictimCriterion))
    def test_victim_criterion_pickle_identity(self, criterion):
        # enum members must unpickle to the *same* object, or criterion
        # comparisons inside a worker would silently misbehave
        import pickle

        assert pickle.loads(pickle.dumps(criterion)) is criterion


class TestFramingFailureModes:
    def test_eof_between_frames(self):
        left, right = socket.socketpair()
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_message(right)
        right.close()

    def test_eof_inside_a_frame(self):
        left, right = socket.socketpair()
        try:
            # announce 1000 bytes, deliver 10, hang up
            left.sendall(HEADER.pack(1000) + b"x" * 10)
            left.close()
            with pytest.raises(ConnectionClosed, match="990 of 1000"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(HEADER.pack(protocol.MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="beyond"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            garbage = b"\x00definitely not a pickle"
            left.sendall(HEADER.pack(len(garbage)) + garbage)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_header_is_eight_byte_big_endian(self):
        # the prefix layout is the wire contract; pin it explicitly
        assert HEADER.size == 8
        assert HEADER.pack(1) == struct.pack(">Q", 1)


class TestSockets:
    def test_connect_and_accept_send_each_frame_at_once(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = protocol.connect(format_address(*listener.getsockname()),
                                      timeout=10.0)
            server, _ = protocol.accept(listener)
            with client, server:
                for sock in (client, server):
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) != 0
                send_message(client, ("ping",))
                assert recv_message(server) == ("ping",)

    def test_accept_skips_a_connection_it_cannot_configure(self):
        # an accept loop stops on OSError, so one from a dead peer's socket
        # must not escape as if the listener had closed
        class Connection:
            def __init__(self, usable):
                self.usable, self.closed = usable, False

            def setsockopt(self, *option):
                if not self.usable:
                    raise OSError(22, "Invalid argument")

            def close(self):
                self.closed = True

        dead, live = Connection(False), Connection(True)
        pending = [(dead, ("peer", 1)), (live, ("peer", 2))]

        class Listener:
            def accept(self):
                return pending.pop(0)

        assert protocol.accept(Listener()) == (live, ("peer", 2))
        assert dead.closed and not live.closed


class TestAddresses:
    def test_parse_and_format_roundtrip(self):
        assert parse_address("10.0.0.5:7077") == ("10.0.0.5", 7077)
        assert format_address(*parse_address("localhost:80")) == "localhost:80"

    def test_empty_host_means_all_interfaces(self):
        assert parse_address(":9000") == ("0.0.0.0", 9000)

    @pytest.mark.parametrize("bad", ["nocolon", "host:notaport", "host:70000"])
    def test_invalid_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)
