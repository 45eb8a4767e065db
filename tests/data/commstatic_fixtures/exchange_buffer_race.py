"""Seeded bug: an outgoing buffer written inside the open phase (COMM010).

Loopback hands the receiver the sender's very arrays, the process
transport a copy made at ``send``: scribbling on a buffer of ``outgoing``
before the ``with`` body ends changes what loopback applies and not what
the process transport applies — the two transports diverge.
"""

import numpy as np

from repro.parallel.wire import Message


def leaky_fill(comm, grid):
    halo = np.zeros(16, dtype=np.float64)
    staging = halo
    outgoing = {(0, 1): Message([(0,)], [halo])}
    with comm.exchange("ex:leak", [(0, 1)], outgoing) as received:
        staging[0] = 1.0
        for msg in received:
            grid[:16] = msg.buffers[0]
    staging[1] = 2.0  # safe: the phase has closed
