"""Guard-cell (halo) exchange between the boxes of one refinement level.

Exchange is genuinely pairwise: :func:`neighbor_overlaps` enumerates the
exact index regions where one box's data is needed by another (periodic
images included), and :func:`exchange_halos` / :func:`fold_sources_pairwise`
slice those regions out of the source box and route them through
:meth:`SimComm.exchange` as real payloads.  All regions travelling
between the same pair of ranks are coalesced into a single
:class:`~repro.parallel.wire.Message` per exchange phase — the paper's
message-aggregation optimization: one header row ``(order, dst_box,
comp, *dst_lo)`` and one buffer per region — and overlaps between boxes
on the same rank short-circuit to local copies, which is why a
locality-aware distribution (SFC) sends fewer bytes for the same physics.

Two overlap kinds cover the PIC cycle:

* ``"fold"`` — after deposition, guard-cell J/rho contributions are *added*
  into the valid region of the box that owns the samples (every deposit is
  summed exactly once per destination copy);
* ``"fill"`` — after the field push, every guard sample (and duplicated
  nodal plane) is *overwritten* with the value computed by the sample's
  unique owner box.

The global-assembly helpers (:func:`assemble_global`,
:func:`fold_sources_global`, :func:`scatter_local`) remain as
diagnostics/reference paths only — the step loop never touches the global
grid.

Index convention: a box with cell range ``[lo, hi)`` and ``g`` guards maps
its local array index ``k`` (along an axis) to the *sample* index
``lo + k - g``; every component array spans samples ``[lo - g, hi + g + 1)``
regardless of staggering.  Overlap regions are expressed in sample space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DecompositionError
from repro.grid.boundary import (
    accumulate_periodic_sources,
    apply_periodic,
    periodic_image_shifts,
)
from repro.grid.yee import FIELD_COMPONENTS, SOURCE_COMPONENTS, STAGGER, YeeGrid
from repro.parallel.box import Box
from repro.parallel.comm import SimComm
from repro.parallel.wire import Message

#: tags of the two halo phases; commcheck and the byte-reconciliation
#: tests filter the event log on this prefix
HALO_TAG_PREFIX = "halo"


def _local_to_global_slices(box: Box, local_shape: Sequence[int]) -> Tuple[slice, ...]:
    """Global-array slices covered by a box's *full* local array."""
    return tuple(
        slice(l, l + s) for l, s in zip(box.lo, local_shape)
    )


def fold_sources_global(
    global_grid: YeeGrid,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    periodic_axes: Sequence[int] = (),
    components: Sequence[str] = SOURCE_COMPONENTS,
) -> None:
    """Sum all per-box deposits into the global grid (reference path).

    Because every macroparticle deposits on exactly one box and local
    array indices map affinely to global indices, the summed global array
    is bit-identical to a monolithic deposition.  Used by diagnostics and
    as the cross-check oracle for :func:`fold_sources_pairwise`.
    """
    for comp in components:
        g_arr = global_grid.fields[comp]
        g_arr.fill(0.0)
        for box, bg in zip(boxes, box_grids):
            sl = _local_to_global_slices(box, bg.fields[comp].shape)
            g_arr[sl] += bg.fields[comp]
    for axis in periodic_axes:
        accumulate_periodic_sources(global_grid, axis)


def assemble_global(
    global_grid: YeeGrid,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    components: Sequence[str],
    periodic_axes: Sequence[int] = (),
) -> None:
    """Write each box's valid field data into the global grid (diagnostics).

    Samples on shared box faces are written by several boxes with
    identical values (their stencils saw identical guard data), so
    overwrite order does not matter.
    """
    for comp in components:
        g_arr = global_grid.fields[comp]
        for box, bg in zip(boxes, box_grids):
            v_sl = bg.valid_slices(comp)
            g_sl = tuple(
                slice(box.lo[d] + s.start, box.lo[d] + s.stop)
                for d, s in enumerate(v_sl)
            )
            g_arr[g_sl] = bg.fields[comp][v_sl]
    for axis in periodic_axes:
        apply_periodic(global_grid, axis, components=components)


def scatter_local(
    global_grid: YeeGrid,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    components: Sequence[str],
) -> None:
    """Copy each box's full local range (valid + guards) from the global grid."""
    for comp in components:
        g_arr = global_grid.fields[comp]
        for box, bg in zip(boxes, box_grids):
            sl = _local_to_global_slices(box, bg.fields[comp].shape)
            bg.fields[comp][...] = g_arr[sl]


@dataclass(frozen=True)
class HaloOverlap:
    """One directed data dependency between two boxes.

    Samples of box ``src`` (displaced by the periodic image ``shift``)
    land in ``region`` of box ``dst``: a source sample with index ``t``
    appears at ``t + shift`` in the destination frame.  ``region`` is a
    half-open :class:`Box` in *sample* space — for ``"fill"`` overlaps it
    lies inside ``dst``'s full (guard-padded) range and reads only owned
    source samples; for ``"fold"`` overlaps it lies inside ``dst``'s
    valid range and reads the source's full range (guards included).
    """

    dst: int
    src: int
    shift: Tuple[int, ...]
    region: Box
    kind: str

    @property
    def n_samples(self) -> int:
        """Samples of one (nodal) component covered by this overlap."""
        return self.region.n_cells


def neighbor_overlaps(
    boxes: Sequence[Box],
    domain_cells: Sequence[int],
    guards: int,
    periodic_axes: Sequence[int] = (),
    kind: str = "fill",
) -> List[HaloOverlap]:
    """All :class:`HaloOverlap` regions of a box array.

    ``kind="fill"`` produces the field-guard exchange pattern: for every
    destination box, the regions over all (source, shift) pairs tile the
    box's full array *exactly once* each, minus the box's own owned cells
    — every guard sample has a unique canonical owner.  ``kind="fold"``
    produces the source-deposit pattern: the destination's valid region
    intersected with every guard-padded source image, so each deposit is
    summed into every copy of the sample it belongs to.  The identity
    overlap (same box, zero shift) is skipped for both kinds.
    """
    if kind not in ("fill", "fold"):
        raise DecompositionError(f"unknown overlap kind {kind!r}")
    if not boxes:
        return []
    shifts = periodic_image_shifts(domain_cells, periodic_axes)
    overlaps: List[HaloOverlap] = []
    for i, bi in enumerate(boxes):
        if kind == "fill":
            # the full guard-padded sample range of the destination
            target = Box(
                tuple(l - guards for l in bi.lo),
                tuple(h + guards + 1 for h in bi.hi),
            )
        else:
            # the (nodal) valid sample range; staggered components trim
            # the top plane at slice time
            target = Box(bi.lo, tuple(h + 1 for h in bi.hi))
        for j, bj in enumerate(boxes):
            for shift in shifts:
                if i == j and all(s == 0 for s in shift):
                    continue
                if kind == "fill":
                    source = bj.shifted(shift)
                else:
                    source = Box(
                        tuple(l - guards + s for l, s in zip(bj.lo, shift)),
                        tuple(h + guards + 1 + s for h, s in zip(bj.hi, shift)),
                    )
                region = target.intersect(source)
                if region is not None:
                    overlaps.append(HaloOverlap(i, j, shift, region, kind))
    return overlaps


def _overlap_slices(
    ov: HaloOverlap,
    dst_box: Box,
    src_box: Box,
    guards: int,
    stagger: Sequence[int],
) -> Optional[Tuple[Tuple[slice, ...], Tuple[slice, ...]]]:
    """Destination/source array slices of one overlap for one component.

    Fold regions are trimmed at the destination's top valid plane for
    staggered axes (the staggered valid range is one sample shorter);
    returns None when the trim empties the region.
    """
    dst_sl, src_sl = [], []
    for d in range(dst_box.ndim):
        lo = ov.region.lo[d]
        hi = ov.region.hi[d]
        if ov.kind == "fold":
            hi = min(hi, dst_box.hi[d] + 1 - stagger[d])
            if hi <= lo:
                return None
        dst_sl.append(slice(lo - dst_box.lo[d] + guards, hi - dst_box.lo[d] + guards))
        src_sl.append(
            slice(
                lo - ov.shift[d] - src_box.lo[d] + guards,
                hi - ov.shift[d] - src_box.lo[d] + guards,
            )
        )
    return tuple(dst_sl), tuple(src_sl)


@dataclass
class HaloExchangeStats:
    """Honest accounting of one exchange phase.

    ``payload_bytes`` sums the ``nbytes`` of the aggregated cross-rank
    messages — the very number the communicator accounted at ``send`` —
    so it reconciles with ``pair_bytes`` and the event log by
    construction.  ``samples`` counts every applied array sample, local
    copies included (the guard-cell work is the same wherever the
    neighbor lives).
    """

    messages: int = 0
    payload_bytes: int = 0
    samples: int = 0
    local_copies: int = 0

    def merge(self, other: "HaloExchangeStats") -> None:
        self.messages += other.messages
        self.payload_bytes += other.payload_bytes
        self.samples += other.samples
        self.local_copies += other.local_copies


def _apply_entries(
    box_grids: Sequence[YeeGrid],
    entries: Sequence[Tuple[Tuple, np.ndarray]],
    accumulate: bool,
) -> None:
    """Write each ``(row, data)`` entry at ``dst_lo`` of its box component
    (row: ``(order, dst_box, comp, *dst_lo)``)."""
    for (_order, dst_box, comp, *dst_lo), data in entries:
        arr = box_grids[dst_box].fields[comp]
        sl = tuple(slice(lo, lo + s) for lo, s in zip(dst_lo, data.shape))
        if accumulate:
            arr[sl] += data
        else:
            arr[sl] = data


def _run_exchange(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    overlaps: Sequence[HaloOverlap],
    rank_of_box: Sequence[int],
    guards: int,
    components: Sequence[str],
    tag: str,
    accumulate: bool,
    local_rank: Optional[int] = None,
) -> HaloExchangeStats:
    """Pack and apply one exchange phase; :meth:`SimComm.exchange` runs
    the protocol in between (who sends and receives, in which order, what
    the phase declares, when it closes).

    All source regions are sliced (and copied) *before* anything is
    applied, so the exchange has snapshot semantics — a destination
    update can never leak into a source read.  One message carries
    every region travelling between a given (src_rank, dst_rank) pair:
    a header row and a buffer per region; same-rank regions never touch
    the communicator.

    Rows carry their position in the overlap enumeration and are
    applied in that canonical order after all messages arrive, so the
    floating-point summation order of the fold depends only on the box
    array — never on the distribution mapping.  A run whose boxes were
    rebalanced (or evacuated off a dead rank) therefore stays
    bit-identical to the same run under any other assignment, which is
    what the resilience layer's recovered-equals-fault-free contract
    requires.

    With ``local_rank`` set (SPMD: one process per rank on a blocking
    transport) the overlap enumeration still runs in full — every rank
    derives the same canonical order indices and the same cross-rank
    pair set from slice geometry alone — but data is packed only where
    this rank owns the source box, so what arrives (the communicator
    receives only on pairs this rank sinks) lands only in boxes it
    owns.  Per-rank stats sum to the loopback totals: ``samples`` and
    ``local_copies`` are counted by the packer, ``messages`` and
    ``payload_bytes`` by the receiver.
    """
    stats = HaloExchangeStats()
    outgoing: Dict[Tuple[int, int], List] = {}
    cross_pairs: set = set()
    entries: List[Tuple[Tuple, np.ndarray]] = []
    order = 0
    for ov in overlaps:
        src_rank = int(rank_of_box[ov.src])
        dst_rank = int(rank_of_box[ov.dst])
        dst_box = boxes[ov.dst]
        src_box = boxes[ov.src]
        src_fields = box_grids[ov.src].fields
        for comp in components:
            sls = _overlap_slices(ov, dst_box, src_box, guards, STAGGER[comp])
            if sls is None:
                continue
            dst_sl, src_sl = sls
            pack = local_rank is None or src_rank == local_rank
            if src_rank != dst_rank:
                cross_pairs.add((src_rank, dst_rank))
            if pack:
                data = src_fields[comp][src_sl].copy()
                entry = (
                    (order, ov.dst, comp, *(s.start for s in dst_sl)), data,
                )
                stats.samples += data.size
                if src_rank == dst_rank:
                    entries.append(entry)
                    stats.local_copies += 1
                else:
                    outgoing.setdefault((src_rank, dst_rank), []).append(entry)
            order += 1
    # unzip each pair's (row, data) entries into one header + buffer list
    messages = {p: Message(*zip(*batch)) for p, batch in outgoing.items()}
    with comm.exchange(tag, cross_pairs, messages) as received:
        for msg in received:
            stats.messages += 1
            stats.payload_bytes += msg.nbytes
            entries.extend(zip(msg.header, msg.buffers))
        entries.sort(key=lambda e: e[0][0])
        for row, data in entries:
            comm.record_apply(tag, row[0], nbytes=int(data.nbytes))
        _apply_entries(box_grids, entries, accumulate)
    return stats


def fold_sources_pairwise(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    overlaps: Sequence[HaloOverlap],
    rank_of_box: Sequence[int],
    guards: int,
    components: Sequence[str] = SOURCE_COMPONENTS,
    tag: str = HALO_TAG_PREFIX + ":fold",
    local_rank: Optional[int] = None,
) -> HaloExchangeStats:
    """Accumulate guard-cell J/rho deposits into their owning boxes.

    ``overlaps`` must come from ``neighbor_overlaps(..., kind="fold")``.
    After the call every box's component-valid region holds the complete
    (periodic) sum of all deposits for its samples — equal to folding on
    an assembled global grid, up to floating-point summation order.
    Guard cells keep their raw local deposits; nothing in the cycle reads
    them (E and J are colocated, and guard E/B are overwritten by the
    field fill).
    """
    for ov in overlaps:
        if ov.kind != "fold":
            raise DecompositionError(
                "fold_sources_pairwise needs kind='fold' overlaps"
            )
    return _run_exchange(
        comm, box_grids, boxes, overlaps, rank_of_box, guards,
        components, tag, accumulate=True, local_rank=local_rank,
    )


def exchange_halos(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    overlaps: Sequence[HaloOverlap],
    rank_of_box: Sequence[int],
    guards: int,
    components: Sequence[str] = FIELD_COMPONENTS,
    tag: str = HALO_TAG_PREFIX + ":fields",
    local_rank: Optional[int] = None,
) -> HaloExchangeStats:
    """Overwrite every guard sample with its canonical owner's value.

    ``overlaps`` must come from ``neighbor_overlaps(..., kind="fill")``.
    The fill regions partition each box's non-owned samples exactly, so
    after the call the full (guard-padded) array of every box is
    bit-identical to scattering from an assembled, periodic global grid.
    """
    for ov in overlaps:
        if ov.kind != "fill":
            raise DecompositionError(
                "exchange_halos needs kind='fill' overlaps"
            )
    return _run_exchange(
        comm, box_grids, boxes, overlaps, rank_of_box, guards,
        components, tag, accumulate=False, local_rank=local_rank,
    )


def halo_bytes_per_box(
    box: Box, guards: int, n_components: int, itemsize: int = 8
) -> int:
    """Guard-shell size of one box in bytes (all components).

    The surface-to-volume communication estimate used by the perf model.
    """
    outer = np.prod([s + 2 * guards for s in box.shape])
    inner = np.prod(box.shape)
    return int((outer - inner) * n_components * itemsize)
