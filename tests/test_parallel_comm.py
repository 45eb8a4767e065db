"""Tests for the simulated communicator and its accounting."""

import numpy as np
import pytest

from repro.exceptions import CommunicationError
from repro.parallel.comm import SimComm, payload_nbytes
from repro.parallel.transport import LoopbackTransport
from repro.parallel.wire import Message


def test_send_recv_roundtrip():
    comm = SimComm(4)
    data = np.arange(10.0)
    comm.send(0, 2, data, tag="x")
    out = comm.recv(0, 2, tag="x")
    np.testing.assert_array_equal(out, data)
    assert comm.pending() == 0


def test_fifo_ordering():
    comm = SimComm(2)
    comm.send(0, 1, np.array([1.0]))
    comm.send(0, 1, np.array([2.0]))
    assert comm.recv(0, 1)[0] == 1.0
    assert comm.recv(0, 1)[0] == 2.0


def test_recv_missing_raises():
    comm = SimComm(2)
    with pytest.raises(CommunicationError):
        comm.recv(0, 1)


def test_rank_validation():
    comm = SimComm(2)
    with pytest.raises(CommunicationError):
        comm.send(0, 5, np.zeros(1))
    with pytest.raises(CommunicationError):
        SimComm(0)


def test_byte_accounting():
    comm = SimComm(3)
    comm.send(1, 2, np.zeros(100))  # 800 bytes
    assert comm.bytes_sent[1] == 800
    assert comm.messages_sent[1] == 1
    assert comm.pair_bytes[(1, 2)] == 800
    assert comm.total_bytes() == 800
    comm.recv(1, 2)
    comm.reset_counters()
    assert comm.total_bytes() == 0


def test_allreduce_accounting():
    comm = SimComm(8)
    out = comm.allreduce_sum(np.ones(4))
    np.testing.assert_array_equal(out, 1.0)
    assert comm.collective_calls == 1
    # log2(8) = 3 rounds of 32 bytes on every rank
    assert np.all(comm.bytes_sent == 3 * 32)


def test_payload_nbytes():
    """The accounting rule: 8 B per header number, UTF-8 length per
    header string, nbytes per buffer.  (Nested tuples, dicts and scalars
    are no longer payloads: tests/test_parallel_wire.py checks that
    ``send`` refuses them.)"""
    assert payload_nbytes(np.zeros(5)) == 40
    assert payload_nbytes(Message((), (np.zeros(2), np.zeros(3)))) == 40
    assert payload_nbytes(Message([(7, "Jx", 0, 12)], [np.zeros(1)])) == 34
    assert payload_nbytes(Message([("é",)])) == 2


# -- SimComm.exchange: the one post -> receive -> apply routine ---------------


def _kinds(comm):
    return [(e.kind, e.src, e.dst, e.detail) for e in comm.log]


def test_exchange_posts_every_send_before_the_first_receive():
    """Declared = posted, sorted pair order, the body runs inside the
    open phase, and a bare-array payload still arrives as a Message."""
    comm = SimComm(3)
    pairs = {(2, 0), (0, 1), (1, 0)}
    outgoing = {p: np.full(2, float(p[0])) for p in pairs}
    with comm.exchange("t", pairs, outgoing) as received:
        comm.record_apply("t", 7)
    assert _kinds(comm) == [
        ("phase_begin", -1, -1, 3),
        ("send", 0, 1, 0), ("send", 1, 0, 0), ("send", 2, 0, 0),
        ("recv", 0, 1, 0), ("recv", 1, 0, 0), ("recv", 2, 0, 0),
        ("apply", -1, -1, 7),
        ("phase_end", -1, -1, 0),
    ]
    assert all(isinstance(msg, Message) for msg in received)
    assert [msg.buffers[0][0] for msg in received] == [0.0, 1.0, 2.0]
    assert comm.pending() == 0


class _RankZeroEndpoint(LoopbackTransport):
    """Loopback mechanics that claim to be the SPMD endpoint of rank 0."""

    blocking = True
    local_rank = 0


def test_exchange_speaks_only_for_the_local_rank():
    """An SPMD endpoint sends on the pairs it sources, declares exactly
    those, and receives on the pairs it sinks — the pair filter the
    exchanges used to spell per call site."""
    comm = SimComm(3, transport=_RankZeroEndpoint())
    inbound = Message([(4,)], [np.ones(3)])
    comm.send(1, 0, inbound, tag="t")  # what rank 1's process would post
    comm.clear_log()
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    with comm.exchange("t", pairs, {(0, 1): np.zeros(2)}) as received:
        pass
    assert _kinds(comm) == [
        ("phase_begin", -1, -1, 1),
        ("send", 0, 1, 0),
        ("recv", 1, 0, 0),
        ("phase_end", -1, -1, 0),
    ]
    assert received == [inbound]


def test_exchange_needs_a_payload_for_every_pair_it_sources():
    comm = SimComm(2)
    with pytest.raises(KeyError):
        with comm.exchange("t", [(0, 1), (1, 0)], {(0, 1): np.zeros(1)}):
            pass


def test_exchange_body_that_raises_leaves_the_phase_open():
    """Like the failed receive it usually is: the log shows where the
    run stopped instead of a phase that looks complete."""
    comm = SimComm(2)
    with pytest.raises(RuntimeError):
        with comm.exchange("t", [(0, 1)], {(0, 1): np.zeros(1)}):
            raise RuntimeError("apply failed")
    assert [e.kind for e in comm.log] == ["phase_begin", "send", "recv"]
