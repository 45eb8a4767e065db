"""Tests for the simulated communicator and its accounting."""

import numpy as np
import pytest

from repro.exceptions import CommunicationError
from repro.parallel.comm import SimComm, payload_nbytes
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


def test_pinned_memory_spill_accounting():
    """Sec. V.A.2: buffer spikes spill to pinned memory instead of failing."""
    comm = SimComm(2, device_buffer_bytes=100)
    comm.send(0, 1, np.zeros(10))  # 80 bytes: fits
    assert comm.spilled_messages == 0
    comm.send(0, 1, np.zeros(10))  # would exceed the 100-byte buffer
    assert comm.spilled_messages == 1
    assert comm.spilled_bytes == 80
    # delivery still works for spilled messages
    np.testing.assert_array_equal(comm.recv(0, 1), np.zeros(10))
    np.testing.assert_array_equal(comm.recv(0, 1), np.zeros(10))
    # buffer space was released by the first recv
    comm.send(0, 1, np.zeros(10))
    assert comm.spilled_messages == 1


def test_unlimited_buffer_never_spills():
    comm = SimComm(2)
    for _ in range(50):
        comm.send(0, 1, np.zeros(1000))
    assert comm.spilled_messages == 0
