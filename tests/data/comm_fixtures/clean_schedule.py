"""A correct schedule that must run clean on every transport.

Mirrors the shipped ``exchange_halos`` idiom — the tag read from the
declared table through a parameter default into one ``comm.exchange``,
payloads never touched while in flight.
"""

import numpy as np

from repro.parallel.comm import PHASE_TAGS


def exchange(comm, pairs, payloads, tag=PHASE_TAGS["fields"]):
    with comm.exchange(tag, pairs, payloads) as received:
        return [msg.buffers[0] for msg in received]


def exchange_default_pairs(comm):
    staging = np.zeros(8, dtype=np.float64)
    result = exchange(comm, [(0, 1)], {(0, 1): staging})
    staging[0] = 1.0  # safe: mutated only after the phase completed
    return result, staging
