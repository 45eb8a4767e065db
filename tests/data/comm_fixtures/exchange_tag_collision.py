"""Seeded bug: two ``exchange`` sites on a tag no phase declares.

``ex:fold`` is in no row of ``repro.parallel.comm.PHASE_TAGS``: a tag
made up at a call site is how a migration ends up sharing the fold's
channel by accident.  ``SimComm.exchange`` refuses it before its first
send, on every transport (``tests/test_comm_plants.py``).
"""

SHARED_TAG = "ex:fold"


def fold_guards(comm, pairs, outgoing):
    with comm.exchange(SHARED_TAG, pairs, outgoing) as received:
        return [msg.nbytes for msg in received]


def migrate_state(comm, moves, outgoing):
    with comm.exchange(SHARED_TAG, moves, outgoing) as received:
        return [msg.nbytes for msg in received]
