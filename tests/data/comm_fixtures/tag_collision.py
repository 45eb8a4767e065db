"""Seeded bug: a migration reusing the fold's tag inside the fold's phase.

The migration reaches the fold's tag through a parameter default.  Run
from the fold's apply (``apply``), both phases would be open on one
channel at once and their messages indistinguishable:
``SimComm.exchange`` refuses a tag whose phase is already open on the
endpoint, on every transport.  Run after the fold has closed, the reuse
is harmless: each channel delivers in send order, so a dropped or late
fold message is never handed to the migration (``tests/test_comm_plants.py``).
"""

SHARED_TAG = "halo:fold"


def fold_guards(comm, pairs, payloads, apply=None):
    with comm.exchange(SHARED_TAG, pairs, payloads) as received:
        if apply is not None:
            apply()
        return [msg.buffers[0] for msg in received]


def migrate_state(comm, moves, state, tag=SHARED_TAG):
    with comm.exchange(tag, moves, state) as received:
        return [msg.buffers[0] for msg in received]
