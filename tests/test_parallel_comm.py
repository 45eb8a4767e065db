"""Tests for the simulated communicator and its accounting."""

import contextlib

import numpy as np
import pytest

from repro.exceptions import CommunicationError
from repro.parallel.comm import PHASE_TAGS, SimComm, payload_nbytes
from repro.parallel.transport import LoopbackTransport
from repro.parallel.wire import Message, as_message
from repro.resilience import FaultInjector, FaultSchedule, RecoveryPolicy
from tests.conftest import load_comm_fixture


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
    return [(e.kind, e.src, e.dst) for e in comm.log]


def test_exchange_posts_every_send_before_the_first_receive():
    """Sorted pair order, every message received before the body runs,
    and a bare-array payload still arrives as a Message."""
    comm = SimComm(3)
    pairs = {(2, 0), (0, 1), (1, 0)}
    outgoing = {p: np.full(2, float(p[0])) for p in pairs}
    with comm.exchange("particles", pairs, outgoing) as received:
        assert comm.pending() == 0
    assert _kinds(comm) == [
        ("send", 0, 1), ("send", 1, 0), ("send", 2, 0),
        ("recv", 0, 1), ("recv", 1, 0), ("recv", 2, 0),
    ]
    assert all(isinstance(msg, Message) for msg in received)
    assert [msg.buffers[0][0] for msg in received] == [0.0, 1.0, 2.0]
    assert comm.pending() == 0


class _RankZeroEndpoint(LoopbackTransport):
    """Loopback mechanics that claim to be the SPMD endpoint of rank 0."""

    blocking = True
    local_rank = 0


def test_exchange_speaks_only_for_the_local_rank():
    """An SPMD endpoint sends on the pairs it sources and receives on the
    pairs it sinks — the pair filter the exchanges used to spell per call
    site."""
    comm = SimComm(3, transport=_RankZeroEndpoint())
    inbound = Message([(4,)], [np.ones(3)])
    comm.send(1, 0, inbound, tag="particles")  # what rank 1's process would post
    comm.clear_log()
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
    with comm.exchange("particles", pairs, {(0, 1): np.zeros(2)}) as received:
        pass
    assert _kinds(comm) == [("send", 0, 1), ("recv", 1, 0)]
    assert received == [inbound]


def test_exchange_needs_a_payload_for_every_pair_it_sources():
    """Refused with the tag and the pair before anything is sent (a bare
    ``KeyError`` used to surface after the earlier sends were queued)."""
    comm = SimComm(2)
    no_payload = r"src=1 dst=0 tag='particles'.* no payload"
    with pytest.raises(CommunicationError, match=no_payload):
        with comm.exchange("particles", [(0, 1), (1, 0)], {(0, 1): np.zeros(1)}):
            pass
    assert comm.log == [] and comm.pending() == 0


def test_exchange_refuses_a_payload_for_a_pair_outside_the_phase():
    """A key that is not one of ``pairs`` would never be sent."""
    comm = SimComm(3)
    outgoing = {(0, 1): np.zeros(1), (0, 2): np.zeros(1)}
    outside = r"src=0 dst=2 tag='particles'.* outside"
    with pytest.raises(CommunicationError, match=outside):
        with comm.exchange("particles", [(0, 1)], outgoing):
            pass
    assert comm.log == [] and comm.pending() == 0


def test_spmd_exchange_accepts_keys_for_every_pair_of_the_phase():
    """``redistribute_particles`` under SPMD hands over a payload for each
    pair of the phase; only the local rank's go out."""
    comm = SimComm(3, transport=_RankZeroEndpoint())
    comm.send(1, 0, np.ones(2), tag="particles")  # what rank 1's process would post
    comm.clear_log()
    pairs = [(0, 1), (1, 0), (1, 2)]
    with comm.exchange("particles", pairs, {p: np.zeros(2) for p in pairs}):
        pass
    assert [e.kind for e in comm.log] == ["send", "recv"]


def test_exchange_body_that_raises_frees_the_tag():
    """The tag of a phase whose body raised is free again for the next
    phase, which runs on it as usual."""
    comm = SimComm(2)
    with pytest.raises(RuntimeError):
        with comm.exchange("particles", [(0, 1)], {(0, 1): np.zeros(1)}):
            raise RuntimeError("apply failed")
    assert [e.kind for e in comm.log] == ["send", "recv"]
    with comm.exchange("particles", [(0, 1)], {(0, 1): np.zeros(1)}) as got:
        assert len(got) == 1
    assert [e.kind for e in comm.log] == ["send", "recv"] * 2


@pytest.mark.parametrize("tag", ["t", "halo", "halo:fold "])
def test_exchange_refuses_an_undeclared_tag(tag):
    comm = SimComm(2)
    with pytest.raises(CommunicationError, match="no declared phase"):
        with comm.exchange(tag, [(0, 1)], {(0, 1): np.zeros(1)}):
            pass
    assert comm.log == [] and comm.pending() == 0


def test_exchange_refuses_a_tag_whose_phase_is_open():
    """A second phase on an open tag would share its channels; phases of
    other tags may nest, and the same tag runs again once closed."""
    comm = SimComm(2)
    out = {(0, 1): np.zeros(1)}
    with comm.exchange(PHASE_TAGS["fold"], [(0, 1)], out):
        with comm.exchange(PHASE_TAGS["fields"], [(0, 1)], out):
            pass
        n_events = len(comm.log)
        with pytest.raises(CommunicationError, match=r"tag='halo:fold'.*already open"):
            with comm.exchange(PHASE_TAGS["fold"], [(0, 1)], out):
                pass
        assert len(comm.log) == n_events
    with comm.exchange(PHASE_TAGS["fold"], [(0, 1)], out):
        pass
    assert comm.pending() == 0


def test_a_channel_delivers_in_send_order_whatever_the_wire_does():
    """Messages of one channel land reversed, one twice: the resilient
    receive still hands them over in send order, and the stray copy is a
    duplicate."""
    comm = SimComm(2)
    comm.attach_resilience(FaultInjector(FaultSchedule()), RecoveryPolicy())
    for k in range(3):
        comm.send(0, 1, np.full(2, float(k)), tag="particles")
    queue = comm._queues[(0, 1, "particles")]
    queue.reverse()
    queue.append(queue[0])
    assert [comm.recv(0, 1, tag="particles")[0] for _ in range(3)] == [0.0, 1.0, 2.0]
    comm.finish_step()
    assert comm.pending() == 0
    assert [e.kind for e in comm.log].count("recover_dedup") == 1


# -- buffers are read-only while their phase is open --------------------------


def test_writing_an_outgoing_buffer_inside_the_phase_raises_on_loopback():
    """The seeded plant: loopback used to apply the scribbled 1.0 where a
    process transport applies the 0.0 that was sent."""
    grid = np.zeros(16)
    with pytest.raises(ValueError, match="read-only"):
        load_comm_fixture("exchange_buffer_race.py").leaky_fill(SimComm(2), grid)
    assert grid[0] == 0.0


def _write_a_received_alias(received):
    alias = received[0].buffers[1]
    alias[0] = 1.0


def _raise_in_the_body(received):
    raise RuntimeError("apply failed")


@pytest.mark.parametrize(
    "body", [None, _write_a_received_alias, _raise_in_the_body],
    ids=["clean", "write", "raise"],
)
def test_received_buffers_are_read_only_and_every_flag_is_restored(body):
    """Received buffers are frozen too (on loopback they *are* the sent
    arrays), through any alias; afterwards every buffer that was writable
    is writable again, whether or not the body raised — a view listed
    before its base included.  One that was read-only before stays so."""
    comm = SimComm(3)
    base = np.zeros(6)
    sealed = np.zeros(2)
    sealed.flags.writeable = False
    outgoing = {
        (0, 1): Message([(0,)], [np.zeros(3), base[2:], base]),
        (1, 2): np.ones(4),
        (2, 0): sealed,
    }
    buffers = [b for p in outgoing.values() for b in as_message(p).buffers]
    expected = {None: None, _write_a_received_alias: ValueError,
                _raise_in_the_body: RuntimeError}[body]
    with pytest.raises(expected) if expected else contextlib.nullcontext():
        with comm.exchange("particles", list(outgoing), outgoing) as received:
            assert not any(b.flags.writeable for m in received for b in m.buffers)
            if body is not None:
                body(received)
    assert [b.flags.writeable for b in buffers] == [True] * 4 + [False]
    assert not base.any()
