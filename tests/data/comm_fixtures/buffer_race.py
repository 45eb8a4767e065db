"""Seeded bug: the send buffer is mutated while in flight (PIC008).

The payload array is handed to ``send`` and then scribbled on through
an alias before the matching receive — with the zero-copy in-process
transport (and with real MPI nonblocking sends) the receiver sees the
corrupted bytes, not the ones that were "sent".  The raw primitives
are PIC008; the ``comm.exchange`` form of this race raises at run time
(``exchange_buffer_race.py``)."""

import numpy as np


def leaky_exchange(comm, halo_width):
    buf = np.zeros(4 * halo_width, dtype=np.float64)
    scratch = buf
    comm.send(0, 1, buf, tag="leak")
    scratch[0] = 1.0
    received = comm.recv(0, 1, tag="leak")
    return received
