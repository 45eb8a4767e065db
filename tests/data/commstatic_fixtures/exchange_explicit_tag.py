"""A clean schedule whose second phase exists only at a call site.

The shipped ``halo:sources`` shape: the wrapper's tag parameter has a
default, and one caller passes another tag explicitly over it.  The
verifier must extract both phases — resolving the parameter to its
default alone would never see the second — and find nothing wrong.
"""

TAG_PREFIX = "fx"


def _run(comm, pairs, outgoing, tag):
    with comm.exchange(tag, pairs, outgoing) as received:
        return list(received)


def fill(comm, pairs, outgoing, tag=TAG_PREFIX + ":fields"):
    return _run(comm, pairs, outgoing, tag)


def step(comm, pairs, sources, fields):
    fill(comm, pairs, sources, tag=TAG_PREFIX + ":sources")
    fill(comm, pairs, fields)
