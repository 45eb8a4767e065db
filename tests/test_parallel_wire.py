"""The wire format: one flat header, one flat list of buffers.

Round-trips :class:`~repro.parallel.wire.Message` through both transports
(in-process loopback, and a real 2-process ``run_spmd`` where every
message is packed into one block and crosses a pipe or one shared-memory
segment), pins the byte-accounting rule on the benchmark ladder's deck,
and checks that no shared-memory segment outlives the run that made it —
whichever side failed to consume it.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constants import c, m_e, plasma_wavelength, q_e
from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    ResilienceError,
)
from repro.grid.yee import FIELD_COMPONENTS, YeeGrid
from repro.parallel import wire
from repro.parallel.box import Box, chop_domain
from repro.parallel.comm import CommEvent, SimComm
from repro.parallel.distributed import DistributedSimulation
from repro.parallel.halo import exchange_halos, neighbor_overlaps
from repro.parallel.mp_transport import MultiprocessingTransport, run_spmd
from repro.parallel.wire import Message, payload_checksum, payload_nbytes
from repro.particles.injection import UniformProfile
from repro.particles.species import Species
from repro.resilience import corrupt_payload
from tests.conftest import load_comm_fixture

SHM_DIR = "/dev/shm"
needs_shm_listing = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm listing on this platform"
)

# -- strategies ----------------------------------------------------------------

DTYPES = (np.float32, np.float64, np.int64)
#: element counts per size class; "below"/"above" straddle SHM_THRESHOLD once
#: multiplied by the itemsize (the block is one buffer, so its size decides)
SIZE_CLASSES = ("zero", "small", "below", "above")


def _array(dtype, size_class, strided, seed):
    itemsize = np.dtype(dtype).itemsize
    n = {
        "zero": 0,
        "small": 5,
        "below": wire.SHM_THRESHOLD // itemsize - 4,
        "above": wire.SHM_THRESHOLD // itemsize + 4,
    }[size_class]
    rng = np.random.default_rng(seed)
    if strided:
        # a non-contiguous view: every other column of a wider array
        base = (rng.standard_normal((max(n, 1), 2)) * 100).astype(dtype)
        return base[:n, ::2] if n else base[:0, ::2]
    return (rng.standard_normal(n) * 100).astype(dtype)


arrays = st.builds(
    _array,
    st.sampled_from(DTYPES),
    st.sampled_from(SIZE_CLASSES),
    st.booleans(),
    st.integers(0, 2**16),
)
header_scalars = st.one_of(
    st.integers(-(2**40), 2**40),
    st.sampled_from(["Jx", "rho", "__shm_ndarray__", "é", ""]),
)
messages = st.builds(
    Message,
    st.lists(st.lists(header_scalars, max_size=5).map(tuple), max_size=4),
    st.lists(arrays, max_size=4),
)
# a message, or the bare-array form
payloads = st.one_of(messages, arrays)


def _describe(payload):
    """What must survive the trip, as plain picklable data."""
    msg = wire.as_message(payload)
    return (
        msg.header,
        [(b.dtype.str, b.shape, b.tobytes()) for b in msg.buffers],
        msg.nbytes,
        msg.crc,
    )


def _is_bare(payload):
    """The one-buffer, empty-header message is the bare-array form."""
    msg = wire.as_message(payload)
    return not msg.header and len(msg.buffers) == 1


# -- the format itself ---------------------------------------------------------

@given(payload=payloads)
@settings(max_examples=60, deadline=None)
def test_loopback_round_trip(payload):
    comm = SimComm(2)
    comm.send(0, 1, payload, tag="t")
    got = comm.recv(0, 1, tag="t")
    assert _describe(got) == _describe(payload)
    assert isinstance(got, np.ndarray) == _is_bare(payload)
    sent, received = [e for e in comm.log if e.kind in ("send", "recv")]
    assert sent.nbytes == received.nbytes == payload_nbytes(payload)
    assert comm.pair_bytes[(0, 1)] == payload_nbytes(payload)


@given(batch=st.lists(payloads, min_size=1, max_size=5))
@settings(max_examples=8, deadline=None)
def test_two_process_round_trip(batch):
    """The same payloads through a real process boundary and back: dtype,
    shape and bytes intact, ``nbytes`` and CRC equal on both ends."""

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        seen = []
        for k, payload in enumerate(batch):
            if rank == 0:
                comm.send(0, 1, payload, tag=f"there:{k}")
                seen.append(_describe(comm.recv(1, 0, tag=f"back:{k}")))
            else:
                got = comm.recv(0, 1, tag=f"there:{k}")
                seen.append(_describe(got))
                comm.send(1, 0, got, tag=f"back:{k}")
                assert isinstance(got, np.ndarray) == _is_bare(payload)
        return seen, [e.nbytes for e in comm.log if e.kind == "recv"]

    want = [_describe(p) for p in batch]
    for seen, recv_nbytes in run_spmd(2, worker, run_timeout=60.0):
        assert seen == want
        assert recv_nbytes == [w[2] for w in want]


def test_buffers_of_an_open_phase_are_read_only_on_the_process_transport():
    """The seeded plant over real worker processes: each rank writes the
    buffer it put in ``outgoing`` inside the phase and raises, as it does
    on loopback (where the receiver used to apply the scribble).  A write
    into a received buffer raises too, and every flag is back after the
    phase."""

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        grid = np.zeros(16)
        plant = load_comm_fixture("exchange_buffer_race.py")
        with pytest.raises(ValueError, match="read-only"):
            plant.leaky_fill(comm, grid)
        sent = np.zeros(4)
        with comm.exchange("halo:fields", [(1, 0)], {(1, 0): sent}) as received:
            if rank == 0:
                (got,) = received[0].buffers
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 1.0
        writable = [sent.flags.writeable] + (
            [got.flags.writeable] if rank == 0 else []
        )
        return float(grid[0]), writable

    assert run_spmd(2, worker, run_timeout=60.0) == [
        (0.0, [True, True]), (0.0, [True]),
    ]


@given(msg=messages, where=st.integers(0, 2**31), bit=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_any_flipped_byte_changes_the_crc(msg, where, bit):
    nonempty = [i for i, b in enumerate(msg.buffers) if b.nbytes]
    assume(nonempty)
    k = nonempty[where % len(nonempty)]
    flipped = np.array(msg.buffers[k], copy=True, order="C")
    raw = flipped.reshape(-1).view(np.uint8)
    raw[where % raw.size] ^= np.uint8(1 << bit)
    mangled = Message(
        msg.header, msg.buffers[:k] + (flipped,) + msg.buffers[k + 1:]
    )
    assert mangled.nbytes == msg.nbytes
    assert mangled.crc != msg.crc


@given(msg=messages, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_corrupt_payload_leaves_the_original_pristine(msg, seed):
    before = _describe(msg)
    rng = np.random.default_rng(seed)
    if not any(b.nbytes for b in msg.buffers):
        with pytest.raises(ConfigurationError, match="no bytes"):
            corrupt_payload(msg, rng)
        return
    mangled = corrupt_payload(msg, rng)
    assert _describe(msg) == before
    assert payload_checksum(mangled) != payload_checksum(msg)
    after = _describe(mangled)
    assert after[0] == before[0] and after[2] == before[2]
    assert [b[:2] for b in after[1]] == [b[:2] for b in before[1]]
    # exactly one byte of one buffer differs
    diff = sum(
        int(np.count_nonzero(
            np.frombuffer(a[2], np.uint8) != np.frombuffer(b[2], np.uint8)
        ))
        for a, b in zip(after[1], before[1])
    )
    assert diff == 1


@pytest.mark.parametrize(
    "payload",
    [
        (np.zeros(2), np.zeros(3)),
        [np.zeros(2)],
        [(0, 1, (np.zeros(2),))],
        {"a": np.zeros(1)},
        3.5,
        7,
        "text",
        None,
    ],
)
def test_send_refuses_anything_but_a_message_or_an_array(payload):
    comm = SimComm(2)
    with pytest.raises(CommunicationError, match="cannot send"):
        comm.send(0, 1, payload, tag="t")
    assert comm.total_messages() == 0 and comm.log == []
    with pytest.raises(CommunicationError):
        payload_nbytes(payload)


@pytest.mark.parametrize(
    "header, buffers",
    [
        ([(0, (1, 2))], []),            # nested below a row
        ([(0, np.zeros(2))], []),       # an array in the header
        ([(0, 1.5)], []),               # not an int / str
        ([(True,)], []),                # a bool is not a number here
        ([0, 1], []),                   # scalars where rows belong
        (["ab"], []),                   # a bare string is not a row
        ([], [[1.0, 2.0]]),             # a list is not a buffer
        ([], [np.array([object()])]),   # no raw bytes to carry
    ],
)
def test_message_validates_at_construction(header, buffers):
    with pytest.raises(CommunicationError):
        Message(header, buffers)


def test_numpy_integers_in_a_header_become_plain_ints():
    msg = Message([(np.int64(3), "Ex", np.int32(-2))])
    assert msg.header == ((3, "Ex", -2),)
    assert [type(x) for x in msg.header[0]] == [int, str, int]
    assert msg.nbytes == 18 and msg.crc == Message([(3, "Ex", -2)]).crc


def test_cross_rank_exchange_with_numpy_int_box_corners():
    """``Box`` validates nothing, so corners may be ``np.int64`` (index
    arithmetic produces them); the plan derived from them must still
    send, and the exchange be unchanged."""
    boxes = chop_domain((16, 16), 8)
    np_boxes = [
        Box(tuple(np.int64(v) for v in b.lo), tuple(np.int64(v) for v in b.hi))
        for b in boxes
    ]
    results = []
    for bxs in (boxes, np_boxes):
        rng = np.random.default_rng(5)
        grids = [
            YeeGrid(b.shape, tuple(map(float, b.lo)), tuple(map(float, b.hi)),
                    guards=3)
            for b in bxs
        ]
        for g in grids:
            for comp in FIELD_COMPONENTS:
                g.fields[comp][...] = rng.uniform(-1, 1, g.fields[comp].shape)
        overlaps = neighbor_overlaps(bxs, (16, 16), 3, (0, 1), kind="fill")
        comm = SimComm(2)
        stats = exchange_halos(comm, grids, bxs, overlaps, [0, 1, 0, 1], 3)
        results.append((stats, comm.total_bytes(), grids))
    (want, want_bytes, want_grids), (got, got_bytes, got_grids) = results
    assert got == want and got.messages == 2 and got_bytes == want_bytes
    for a, b in zip(want_grids, got_grids):
        for comp in FIELD_COMPONENTS:
            np.testing.assert_array_equal(a.fields[comp], b.fields[comp])


def test_bare_array_is_the_one_buffer_empty_header_message():
    a = np.arange(6.0)
    assert payload_nbytes(a) == payload_nbytes(Message((), [a])) == 48
    assert payload_checksum(a) == payload_checksum(Message((), [a]))
    comm = SimComm(2)
    comm.send(0, 1, a)
    assert comm.recv(0, 1) is a  # loopback is zero-copy
    comm.send(0, 1, Message())  # the empty message stays a message
    got = comm.recv(0, 1)
    assert isinstance(got, Message) and got.nbytes == 0


def test_one_block_per_message_in_pipe_or_segment():
    """Layout: every buffer of a message sits in ONE block, inline below
    the threshold and in one named segment at or above it."""
    small = Message([(1, "Ex")], [np.arange(8.0), np.arange(3, dtype=np.int64)])
    header, table, inline, segment = wire.encode(small, "unused")
    assert header == small.header and segment is None
    assert [t[:2] for t in table] == [("<f8", (8,)), ("<i8", (3,))]
    assert len(inline) == table[-1][2] + 32  # 24 B padded to the alignment
    name = f"{wire.segment_prefix(os.getpid())}test-0"
    big = Message([], [np.arange(5000.0), np.arange(5000.0) * 2])
    encoded = wire.encode(big, name)
    assert encoded[2] is None and encoded[3] == name
    if os.path.isdir(SHM_DIR):
        assert name in os.listdir(SHM_DIR)
    got = wire.decode(encoded)  # copies the block out and unlinks it
    assert _describe(got) == _describe(big)
    assert got.buffers[0].flags.writeable
    if os.path.isdir(SHM_DIR):
        assert name not in os.listdir(SHM_DIR)


def test_comm_event_is_a_dict_free_tuple():
    ev = CommEvent(3, "send", 0, 1, "halo:fold", 80)
    assert not hasattr(ev, "__dict__")
    assert ev._fields == ("seq", "kind", "src", "dst", "tag", "nbytes")
    with pytest.raises(AttributeError):
        ev.nbytes = 1


# -- the accounting rule, pinned on the ladder deck ------------------------------

def ladder_deck(max_grid_size=64, psatd=True):
    """The benchmark's decomposed decks, 128 x 128 cells on 2 ranks:
    ``decomp_psatd_loopback`` (four 64 x 64 boxes with 12 guards,
    Galilean PSATD, a streaming beam) by default; ``max_grid_size=16,
    psatd=False`` is the 64-box Yee deck (``decomp_yee``)."""
    length = plasma_wavelength(1.0e24)
    solver = (
        {"maxwell_solver": "psatd", "v_galilean": (-0.866 * c, 0.0, 0.0)}
        if psatd else {}
    )
    sim = DistributedSimulation(
        (128, 128), (0.0, 0.0), (length, length), n_ranks=2,
        max_grid_size=max_grid_size, cfl=0.9, shape_order=2,
        smoothing_passes=0, **solver,
    )
    electrons = Species("electrons", charge=-q_e, mass=m_e, ndim=2)

    def stream(sp):
        sp.momenta[:, 0] = -1.732 if psatd else 0.0

    sim.add_species(
        electrons, profile=UniformProfile(1.0e24), ppc=(1, 1),
        momentum_init=stream, rng_seed=21,
    )
    return sim


def test_ladder_deck_message_sizes_are_pinned():
    """``decomp_psatd_loopback`` of the repo benchmark: the bytes of each
    of its per-step messages, so the rule — 8 B per header number, UTF-8
    length per header string, nbytes per buffer — cannot drift.  A halo
    message is one float64 buffer plus one header int (the plan digest):
    8 messages and 849,120 B a step (939,120 B when every box was its
    own field grid)."""
    sim = ladder_deck()
    sim.step(1)
    sizes = {}
    for ev in sim.comm.log:
        if ev.kind == "send":
            sizes.setdefault(ev.tag, set()).add(ev.nbytes)
    # the ranks split the boxes along y (assignment [0, 1, 0, 1]), so
    # each rank's fields are one 128 x 64 tile spanning the period along
    # x, and each message crosses the split once.
    # Fill: 12 + 13 planes of the tile's 128 + 1 + 24 = 153 guard-padded
    # samples per component (the x guards come from the tile's own
    # periodic image, never the communicator).
    # Fold (per box, as before): 13 + 13 planes of 91 samples along x —
    # 65 valid ones from the neighbour across the split, 13 + 13 from its
    # diagonal one; a component staggered in y loses its top valid plane
    # (Jy: 25 planes), one staggered in x loses it along x (Jx: 64 + 25
    # = 89 samples); two boxes a message
    header = 8
    fold = 2 * (26 * 89 + 25 * 91 + 26 * 91 + 26 * 91) * 8 + header
    sources = 3 * 25 * 153 * 8 + header
    fields = 6 * 25 * 153 * 8 + header
    assert (fold, sources, fields) == (149_144, 91_808, 183_608)
    assert sizes == {
        "halo:fold": {fold},
        "halo:sources": {sources},
        "halo:fields": {fields},
        "particles": {0},
    }
    total = 2 * (fold + sources + fields)
    assert total == 849_120
    assert sim.comm.total_messages() == 8
    assert sim.comm.total_bytes() == total
    assert sim.halo_payload_bytes == total and sim.halo_messages == 6
    # one accumulator; the three names are read-only views of it
    assert sim.halo_samples == sim.halo_stats.samples > 0
    with pytest.raises(AttributeError):
        sim.halo_payload_bytes = 0


@pytest.mark.parametrize(
    "max_grid_size, psatd, messages",
    [(64, True, 8), (16, False, 8)],
    ids=["decomp_psatd_loopback", "decomp_yee"],
)
def test_a_decomposed_step_logs_only_its_traffic(max_grid_size, psatd, messages):
    """One ``send`` and one ``recv`` per message and no other event: the
    order of a phase is enforced by ``SimComm.exchange``, not logged
    (a step of the PSATD deck logged 42 events, the 64-box Yee deck
    224, while the schedule was logged for a replay)."""
    sim = ladder_deck(max_grid_size, psatd)
    sim.step(1)
    before, sent = len(sim.comm.log), sim.comm.total_messages()
    sim.step(1)
    kinds = [ev.kind for ev in sim.comm.log[before:]]
    assert sim.comm.total_messages() - sent == messages
    assert kinds.count("send") == kinds.count("recv") == messages
    assert len(kinds) == 2 * messages


# -- no segment outlives its run -------------------------------------------------

BIG = 20_000  # float64 elements: 160 kB, well above the 64 KiB threshold


def _shm_listing():
    return sorted(os.listdir(SHM_DIR))


@needs_shm_listing
def test_no_segment_left_when_the_receiver_raises_first():
    """Rank 1 raises before draining a > 64 KiB message: the sender gave
    the segment away, the receiver never attached — the run sweeps it."""
    before = _shm_listing()

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        if rank == 1:
            raise RuntimeError("boom before recv")
        comm.send(0, 1, np.ones(BIG), tag="big")

    with pytest.raises(ResilienceError, match="boom before recv"):
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    assert _shm_listing() == before


@needs_shm_listing
def test_no_segment_left_when_the_receiver_dies_mid_flight():
    before = _shm_listing()

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        if rank == 1:
            os._exit(5)
        comm.send(0, 1, np.ones(BIG), tag="big")
        comm.send(0, 1, Message([(1,)], [np.ones(BIG)] * 3), tag="bigger")

    with pytest.raises(ResilienceError, match="exited with code 5"):
        run_spmd(2, worker, recv_timeout=1.0, run_timeout=60.0)
    assert _shm_listing() == before


@needs_shm_listing
def test_no_segment_left_after_a_clean_run():
    before = _shm_listing()

    def worker(rank, transport):
        comm = SimComm(2, transport=transport)
        if rank == 0:
            comm.send(0, 1, np.arange(float(BIG)), tag="big")
            return None
        return float(comm.recv(0, 1, tag="big").sum())

    results = run_spmd(2, worker, run_timeout=60.0)
    assert results[1] == float(np.arange(float(BIG)).sum())
    assert _shm_listing() == before


@needs_shm_listing
def test_close_releases_an_undrained_inbox():
    """An endpoint closed with encoded messages still in its inbox frees
    their carriers itself (no run_spmd sweep involved here)."""
    before = _shm_listing()
    ctx = mp.get_context("fork")
    inboxes = [ctx.Queue(), ctx.Queue()]
    sender = MultiprocessingTransport(0, 2, inboxes)
    receiver = MultiprocessingTransport(1, 2, inboxes)
    SimComm(2, transport=sender).send(0, 1, np.ones(BIG), tag="big")
    deadline = time.monotonic() + 10.0
    while inboxes[1].empty() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(_shm_listing()) == len(before) + 1
    receiver.close()
    sender.close()
    assert _shm_listing() == before


def test_last_barrier_tokens_are_flushed_before_a_rank_exits():
    """Regression: a rank that passed the final barrier used to exit with
    its own token to a slower peer still buffered behind undelivered data
    in a queue feeder thread (which dies with the process); the peer then
    waited for that token until its timeout.  The just-below-threshold
    case of :func:`test_two_process_round_trip` (one pipe-sized message,
    then the token) hit this about one run in ten."""

    def worker(rank, transport):
        comm = SimComm(3, transport=transport)
        if rank == 0:
            # ~6 MB of in-pipe (below-threshold) messages queue up for 2
            for _ in range(100):
                comm.send(0, 2, np.zeros(7000), tag="backlog")
        elif rank == 2:
            time.sleep(1.0)  # reads nothing while rank 0's feeder fills
        return rank

    assert run_spmd(3, worker, recv_timeout=5.0, run_timeout=60.0) == [0, 1, 2]
