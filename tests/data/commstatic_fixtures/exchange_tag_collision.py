"""Seeded bug: two ``exchange`` sites claiming one tag (COMM007).

``comm.exchange`` declares its phase itself, so the collision the
verifier rules out for ``begin_phase`` sites exists here too: the
migration reuses the fold's tag, and a migration payload still in
flight can satisfy a fold receive.
"""

SHARED_TAG = "ex:fold"


def fold_guards(comm, pairs, outgoing):
    with comm.exchange(SHARED_TAG, pairs, outgoing) as received:
        return [msg.nbytes for msg in received]


def migrate_state(comm, moves, outgoing):
    with comm.exchange(SHARED_TAG, moves, outgoing) as received:
        return [msg.nbytes for msg in received]
