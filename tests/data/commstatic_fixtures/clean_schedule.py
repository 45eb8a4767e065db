"""A correct schedule the verifier must pass with zero findings.

Mirrors the shipped ``_run_exchange`` idiom — tag built from a module
constant, threaded through a parameter default into one
``comm.exchange``, payloads never touched while in flight — and
exercises the same constant resolution the real tree needs.
"""

import numpy as np

TAG_PREFIX = "fx"


def exchange(comm, pairs, payloads, tag=TAG_PREFIX + ":halo"):
    with comm.exchange(tag, pairs, payloads) as received:
        return [msg.buffers[0] for msg in received]


def exchange_default_pairs(comm):
    staging = np.zeros(8, dtype=np.float64)
    result = exchange(comm, [(0, 1)], {(0, 1): staging})
    staging[0] = 1.0  # safe: mutated only after the phase completed
    return result, staging
