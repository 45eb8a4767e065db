"""Seeded bug: a send whose tag no receive site ever matches (PIC008).

The send goes out under ``"orphan"`` but the function only ever
receives ``"replies"`` — the orphan message can never be delivered, and
under a blocking transport the sender's buffer is pinned forever.  Only
hand-written raw ``send`` / ``recv`` can say this, and PIC008 rejects
every raw primitive on a communicator.
"""


def broadcast_state(comm, n_ranks, payload):
    comm.begin_phase("orphan", n_messages=n_ranks - 1)
    for dst in range(1, n_ranks):
        comm.send(0, dst, payload, tag="orphan")
    for dst in range(1, n_ranks):
        comm.recv(dst, 0, tag="replies")
    comm.end_phase("orphan")
