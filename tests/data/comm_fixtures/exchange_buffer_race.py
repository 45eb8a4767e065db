"""Seeded bug, caught at run time: an outgoing buffer written inside the
open phase.

Loopback hands the receiver the sender's very arrays, the process
transport a copy made at ``send``: scribbling on a buffer of ``outgoing``
before the ``with`` body ends would change what loopback applies and not
what the process transport applies.  ``SimComm.exchange`` makes every
buffer of the phase read-only for its ``with`` body, so ``staging[0] =
1.0`` raises ``ValueError`` on both transports (``tests/test_parallel_comm.py``,
``tests/test_parallel_wire.py``).  The tag is a declared one, so the
buffer is what fails.
"""

import numpy as np

from repro.parallel.comm import PHASE_TAGS
from repro.parallel.wire import Message


def leaky_fill(comm, grid):
    halo = np.zeros(16, dtype=np.float64)
    staging = halo
    outgoing = {(0, 1): Message([(0,)], [halo])}
    with comm.exchange(PHASE_TAGS["fields"], [(0, 1)], outgoing) as received:
        staging[0] = 1.0
        for msg in received:
            grid[:16] = msg.buffers[0]
    staging[1] = 2.0  # safe: the phase has closed
