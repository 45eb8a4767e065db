"""Seeded bug: two exchange phases claiming one tag (COMM007).

The migration phase reuses the halo tag — exactly the cross-phase
namespace collision the verifier exists to rule out.  With both phases
in flight their messages are indistinguishable: a migration payload can
satisfy a halo receive.  The migration reaches the tag through a
parameter default, so the collision is only visible once that resolves.
"""

SHARED_TAG = "halo:fold"


def fold_guards(comm, pairs, payloads):
    with comm.exchange(SHARED_TAG, pairs, payloads) as received:
        return [msg.buffers[0] for msg in received]


def migrate_state(comm, moves, state, tag=SHARED_TAG):
    with comm.exchange(tag, moves, state) as received:
        return [msg.buffers[0] for msg in received]
