"""A clean schedule whose second phase exists only at a call site.

The shipped ``halo:sources`` shape: the wrapper's tag parameter has a
declared default, and one caller passes another declared tag over it.
Both phases run, one after the other, clean on every transport.
"""

from repro.parallel.comm import PHASE_TAGS


def _run(comm, pairs, outgoing, tag):
    with comm.exchange(tag, pairs, outgoing) as received:
        return list(received)


def fill(comm, pairs, outgoing, tag=PHASE_TAGS["fields"]):
    return _run(comm, pairs, outgoing, tag)


def step(comm, pairs, sources, fields):
    return (
        fill(comm, pairs, sources, tag=PHASE_TAGS["sources"]),
        fill(comm, pairs, fields),
    )
