"""Particle redistribution and box migration between ranks.

Particles that left their box are routed to the box that now contains
them (after periodic wrapping), and boxes reassigned by the dynamic load
balancer ship their full field + particle state to the new owner.
Cross-rank traffic is one :meth:`SimComm.exchange
<repro.parallel.comm.SimComm.exchange>` phase each, so both kinds show
up in the accounting like everything else; this module decides which
rank pairs exchange, what a row means and how it is applied.  A particle
:class:`~repro.parallel.wire.Message` holds a header row ``(src_box,
dst_box)`` and four buffers (positions, momenta, weights, ids) per
batch; a migration message a row ``(box,)`` per box, then its field
arrays in sorted component order and four particle buffers per species
in sorted name order — both ends share the names, so none travels.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DecompositionError
from repro.parallel.box import Box
from repro.parallel.comm import PHASE_TAGS, SimComm
from repro.parallel.wire import Message
from repro.particles.pusher import wrap_positions_periodic  # noqa: F401  (public here)
from repro.particles.species import Species


def _owner_of_positions(
    positions: np.ndarray,
    domain_lo: Sequence[float],
    dx: Sequence[float],
    box_lookup: np.ndarray,
) -> np.ndarray:
    """Owning box index per particle via the cell-to-box lookup table."""
    flat = np.zeros(positions.shape[0], dtype=np.intp)
    strides = np.cumprod([1] + [box_lookup.shape[d] for d in range(box_lookup.ndim - 1, 0, -1)])[::-1]
    for d in range(positions.shape[1]):
        cell = np.floor((positions[:, d] - domain_lo[d]) / dx[d]).astype(np.intp)
        np.clip(cell, 0, box_lookup.shape[d] - 1, out=cell)
        flat += cell * strides[d]
    return box_lookup.ravel()[flat]


def build_box_lookup(boxes: Sequence[Box], domain_cells: Sequence[int]) -> np.ndarray:
    """Cell-index -> box-index table for the whole domain."""
    lookup = np.full(tuple(domain_cells), -1, dtype=np.intp)
    for i, b in enumerate(boxes):
        sl = tuple(slice(l, h) for l, h in zip(b.lo, b.hi))
        lookup[sl] = i
    if np.any(lookup < 0):
        raise DecompositionError("boxes do not tile the domain")
    return lookup


def _particle_buffers(sp: Species) -> Tuple[np.ndarray, ...]:
    """The four arrays a particle container travels as."""
    return (sp.positions, sp.momenta, sp.weights, sp.ids)


def _adopt_buffers(sp: Species, buffers: Iterable[np.ndarray]) -> Species:
    """Make four received buffers the contents of ``sp``."""
    pos, mom, wgt, ids = buffers
    sp.positions = np.asarray(pos, dtype=sp.dtype)
    sp.momenta = np.asarray(mom, dtype=sp.dtype)
    sp.weights = np.asarray(wgt, dtype=sp.dtype)
    sp.ids = np.asarray(ids, dtype=np.int64)
    return sp


def redistribute_particles(
    species_per_box: Sequence[Species],
    boxes: Sequence[Box],
    box_lookup: np.ndarray,
    domain_lo: Sequence[float],
    dx: Sequence[float],
    comm: Optional[SimComm] = None,
    rank_of_box: Optional[Sequence[int]] = None,
    local_rank: Optional[int] = None,
) -> int:
    """Move particles to their owning boxes; returns how many moved.

    ``species_per_box`` holds one container per box (same species).  When
    ``comm``/``rank_of_box`` are given, cross-rank moves travel as
    messages: a ``(src_box, dst_box)`` header row and the batch's
    position, momentum, weight and id buffers per move.

    The wire protocol is deterministic: exactly one message per ordered
    pair of distinct active ranks (derived from ``rank_of_box`` alone),
    carrying every batch moving between that pair — possibly none, a
    zero-byte message.  A receiver therefore never has to predict
    data-dependent message counts, which is what lets one worker process
    per rank (``local_rank`` set) run the same protocol as the loopback
    transport.  Batches apply in canonical ``(src_box, dst_box)`` order
    on every transport, so destination containers are filled in the
    exact order a loopback run produces — bit-identical physics.
    """
    n_moved = 0
    batches: List[Tuple[int, int, Species]] = []  # (src_box, dst_box, batch)
    for i, sp in enumerate(species_per_box):
        if (
            local_rank is not None
            and rank_of_box is not None
            and int(rank_of_box[i]) != local_rank
        ):
            continue
        if sp.n == 0:
            continue
        owner = _owner_of_positions(sp.positions, domain_lo, dx, box_lookup)
        leaving = owner != i
        if not np.any(leaving):
            continue
        movers = sp.remove(leaving)
        owners = owner[leaving]
        for j in np.unique(owners):
            batch = movers.select(owners == j)
            n_moved += batch.n
            batches.append((i, int(j), batch))
    if comm is None or rank_of_box is None:
        for _i, j, batch in sorted(batches, key=lambda b: (b[0], b[1])):
            species_per_box[j].extend(batch)
        return n_moved
    active = sorted({int(r) for r in rank_of_box})
    pairs = [(a, b) for a in active for b in active if a != b]
    per_pair: Dict[Tuple[int, int], List] = {p: [] for p in pairs}
    pending: List[Tuple[int, int, Species]] = []
    for i, j, batch in batches:
        src, dst = int(rank_of_box[i]), int(rank_of_box[j])
        bound_for = pending if src == dst else per_pair[(src, dst)]
        bound_for.append((i, j, batch))
    outgoing = {
        p: Message(
            [(i, j) for i, j, _batch in moves],
            [b for _i, _j, batch in moves for b in _particle_buffers(batch)],
        )
        for p, moves in per_pair.items()
    }
    with comm.exchange(PHASE_TAGS["particles"], pairs, outgoing) as received:
        for msg in received:
            # the received buffers ARE the batch: the comm path is
            # load-bearing, so injected message faults would alter the
            # physics unless the resilient transport recovers
            buffers = iter(msg.buffers)
            for i, j in msg.header:
                proto = species_per_box[j]
                batch = Species(
                    proto.name, proto.charge, proto.mass, proto.ndim,
                    proto.dtype,
                )
                pending.append(
                    (i, j, _adopt_buffers(batch, islice(buffers, 4)))
                )
        for _i, j, batch in sorted(pending, key=lambda b: (b[0], b[1])):
            species_per_box[j].extend(batch)
    return n_moved


def migrate_boxes(
    comm: SimComm,
    box_grids: Sequence,
    species: Mapping[str, object],
    old_assignment: Sequence[int],
    new_assignment: Sequence[int],
    local_rank: Optional[int] = None,
) -> Tuple[int, int]:
    """Ship the state of every box that changed rank to its new owner.

    A dynamic-LB move costs the box's full field arrays plus every
    species' particle arrays — the traffic the paper's pinned-memory
    fall-back absorbs during large LB steps.  All boxes moving between
    the same (old_rank, new_rank) pair travel in one aggregated message,
    and the comm path is load-bearing: the receiving side writes the
    *received* buffers back into the box state, so an unrecovered message
    fault would alter the physics.  ``species`` maps name -> holder with
    a ``per_box`` list of particle containers (duck-typed to avoid a
    dependency on the distributed driver).  Returns ``(n_messages,
    payload_bytes)``.

    With ``local_rank`` set (SPMD), the move list — derived from the two
    assignment arrays every rank holds identically — is enumerated in
    full, but state is packed and sent only for boxes this rank is
    giving up, and received/applied only for boxes it is taking over.
    ``payload_bytes`` is counted at the receiver, so per-rank totals sum
    to the loopback value.
    """
    comps = sorted(box_grids[0].fields)
    names = sorted(species)
    moving: Dict[Tuple[int, int], List[int]] = {}
    move_pairs: set = set()
    for i, (old, new) in enumerate(zip(old_assignment, new_assignment)):
        old, new = int(old), int(new)
        if old == new:
            continue
        move_pairs.add((old, new))
        if local_rank is None or old == local_rank:
            moving.setdefault((old, new), []).append(i)
    outgoing = {}
    for pair, box_ids in moving.items():
        buffers = []
        for i in box_ids:
            buffers += [box_grids[i].fields[comp] for comp in comps]
            for name in names:
                buffers += _particle_buffers(species[name].per_box[i])
        outgoing[pair] = Message(
            [(i,) for i in box_ids], [b.copy() for b in buffers]
        )
    moved_bytes = 0
    with comm.exchange(PHASE_TAGS["migrate"], move_pairs, outgoing) as received:
        for msg in received:
            moved_bytes += msg.nbytes
            buffers = iter(msg.buffers)
            for (i,) in msg.header:
                for comp in comps:
                    box_grids[i].fields[comp][...] = next(buffers)
                for name in names:
                    _adopt_buffers(
                        species[name].per_box[i], islice(buffers, 4)
                    )
    return len(outgoing), moved_bytes
