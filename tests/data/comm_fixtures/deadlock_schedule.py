"""Seeded bug: a ring exchange that posts its recv first (PIC008).

Every rank blocks receiving from its left neighbour before anyone has
sent anything — the canonical cyclic wait-for chain.  The in-process
SimComm happens to survive it (queues never block), but the blocking
multiprocessing transport deadlocks on step one.  ``comm.exchange``
posts every send first, so only raw primitives can write this, and
PIC008 rejects them.
"""


def ring_shift(comm, n_ranks, payloads):
    for rank in range(n_ranks):
        left = (rank - 1) % n_ranks
        received = comm.recv(left, rank, tag="ring")
        comm.send(rank, (rank + 1) % n_ranks, payloads[rank], tag="ring")
        payloads[rank] = received
