"""Guard-cell (halo) exchange between the boxes of one refinement level.

Exchange is genuinely pairwise: :func:`neighbor_overlaps` enumerates the
exact index regions where one box's data is needed by another (periodic
images included), and :func:`exchange_halos` / :func:`fold_sources_pairwise`
route those regions through :meth:`SimComm.exchange` as real payloads.
The slicing is derived once per assignment (:class:`ExchangePlan`,
cached on the overlap set); a phase is pack, one exchange, apply.  All
regions travelling between a pair of ranks ride in **one** message — the
paper's message aggregation: ``Message(((plan digest,),), (buffer,))``.
Overlaps between boxes on the same rank never touch the communicator,
which is why a locality-aware distribution (SFC) sends fewer bytes for
the same physics.  The regions can be any rectangles: the distributed
driver folds deposits between its boxes but fills guards between its
per-rank field tiles, where a fill between boxes of one rank vanishes
and a tile spanning a period reads its own periodic image.

Two overlap kinds cover the PIC cycle:

* ``"fold"`` — after deposition, guard-cell J/rho contributions are *added*
  into the valid region of the box that owns the samples (every deposit is
  summed exactly once per destination copy).  The shared nodal planes are
  read and written in the same phase, so a fold has snapshot semantics:
  every region, same-rank ones too, is packed before anything is applied;
* ``"fill"`` — after the field push, every guard sample (and duplicated
  nodal plane) is *overwritten* with the value computed by the sample's
  unique owner box.  A fill reads only owned samples and writes only
  non-owned ones, so its same-rank regions are direct slice copies.

:func:`assemble_global` remains as a diagnostics path only — the step
loop never touches the global grid.

Index convention: a box with cell range ``[lo, hi)`` and ``g`` guards maps
its local array index ``k`` (along an axis) to the *sample* index
``lo + k - g``; every component array spans samples ``[lo - g, hi + g + 1)``
regardless of staggering.  Overlap regions are expressed in sample space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CommunicationError, DecompositionError
from repro.grid.boundary import apply_periodic, periodic_image_shifts
from repro.grid.yee import FIELD_COMPONENTS, SOURCE_COMPONENTS, STAGGER, YeeGrid
from repro.parallel.box import Box
from repro.parallel.comm import PHASE_TAGS, SimComm, _msg_context
from repro.parallel.wire import Message


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


class OverlapSet(tuple):
    """What :func:`neighbor_overlaps` returns: its :class:`HaloOverlap`
    regions (immutable, so no cached plan can go stale) plus ``plans``,
    one :class:`ExchangePlan` per (kind, components, guards, local rank)
    for the last assignment it was asked for (:func:`_plan`)."""

    def __new__(cls, overlaps: Iterable[HaloOverlap] = ()) -> "OverlapSet":
        self = super().__new__(cls, overlaps)
        self.plans: Dict[Tuple, ExchangePlan] = {}
        return self


def neighbor_overlaps(
    boxes: Sequence[Box],
    domain_cells: Sequence[int],
    guards: int,
    periodic_axes: Sequence[int] = (),
    kind: str = "fill",
) -> OverlapSet:
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
    return OverlapSet(overlaps)


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
        lo, hi = ov.region.lo[d], ov.region.hi[d]
        if ov.kind == "fold":
            hi = min(hi, dst_box.hi[d] + 1 - stagger[d])
            if hi <= lo:
                return None
        dst_lo = lo - dst_box.lo[d] + guards
        src_lo = lo - ov.shift[d] - src_box.lo[d] + guards
        dst_sl.append(slice(dst_lo, dst_lo + hi - lo))
        src_sl.append(slice(src_lo, src_lo + hi - lo))
    return tuple(dst_sl), tuple(src_sl)


class ExchangePlan:
    """Everything of one exchange phase that geometry decides.

    ``entries`` — ``(order, src_box, dst_box, comp, src_slice, dst_slice,
    shape, offset)`` per region and component in the canonical order of
    the overlap enumeration — and ``pairs`` (the sorted cross-rank
    pairs), ``counts`` (per buffered pair, the elements of its one
    buffer; a fill's same-rank copies have none) and ``digest`` depend
    on the overlaps, boxes and assignment alone, so every SPMD rank
    derives the same ones.  The fold's summation order therefore depends
    only on the box array: a rebalanced or evacuated run stays
    bit-identical to any other assignment.  ``local_rank`` (None: every
    rank is local) picks what this endpoint packs (``packs``), receives
    (``recvs``) and applies: ``runs``, ``(pair, direct, items)``, each a
    maximal run of consecutive entries — in the canonical order of the
    entries one destination rank applies — drawn from one buffer.  A run
    touches only its destination rank's boxes, so applying the runs in
    list order applies every box canonically, and a rank's runs are the
    same on every transport.
    """

    def __init__(
        self, overlaps, kind, boxes, assignment, guards, components, local_rank,
    ) -> None:
        self.kind = kind
        #: a copy: an assignment mutated in place must not match its plan
        self.assignment = np.array(assignment, dtype=np.int64)
        if len(self.assignment) != len(boxes):
            raise DecompositionError(
                f"{len(self.assignment)} ranks assigned to {len(boxes)} boxes"
            )

        entries, counts, runs = [], {}, []
        self.packs: Dict[Tuple[int, int], List[Tuple]] = {}
        self.samples = self.local_copies = 0
        open_runs: Dict[int, List] = {}
        for ov in overlaps:
            if ov.kind != kind:
                raise DecompositionError(
                    f"a {kind} exchange needs kind={kind!r} overlaps, "
                    f"got {ov.kind!r}"
                )
            pair = (int(self.assignment[ov.src]), int(self.assignment[ov.dst]))
            for comp in components:
                sls = _overlap_slices(
                    ov, boxes[ov.dst], boxes[ov.src], guards, STAGGER[comp]
                )
                if sls is None:
                    continue
                dst_sl, src_sl = sls
                shape = tuple(int(s.stop - s.start) for s in dst_sl)
                size = int(np.prod(shape))
                direct = kind == "fill" and pair[0] == pair[1]
                start = 0 if direct else counts.get(pair, 0)
                if not direct:
                    counts[pair] = start + size
                order = len(entries)
                entries.append(
                    (order, ov.src, ov.dst, comp, src_sl, dst_sl, shape, start)
                )
                if local_rank in (None, pair[0]):
                    self.samples += size
                    self.local_copies += pair[0] == pair[1]
                    if not direct:
                        self.packs.setdefault(pair, []).append(
                            (ov.src, comp, src_sl, start, start + size, shape)
                        )
                if local_rank not in (None, pair[1]):
                    continue
                item = (ov.dst, comp, dst_sl) + (
                    (ov.src, src_sl) if direct else (start, start + size, shape)
                )
                run = open_runs.get(pair[1])
                if run is not None and run[0] == pair:
                    run[2].append(item)
                else:
                    open_runs[pair[1]] = run = (pair, direct, [item])
                    runs.append(run)
        self.entries = tuple(entries)
        self.counts = counts
        self.pairs = sorted(p for p in counts if p[0] != p[1])
        self.recvs = [p for p in self.pairs if local_rank in (None, p[1])]
        # a run is appended at its first entry: already in canonical order
        self.runs = runs
        digest = hashlib.blake2b(
            repr((self.assignment.tolist(), entries)).encode(), digest_size=8
        )
        self.digest = int.from_bytes(digest.digest(), "little", signed=True)

    def check(self, msg: Message, pair: Tuple[int, int], tag: str) -> np.ndarray:
        """The buffer of a received message built from this plan; one built
        from another plan (the ranks disagree on the assignment or the
        geometry) is refused, never applied."""
        sizes = [b.size for b in msg.buffers]
        if msg.header != ((self.digest,),) or sizes != [self.counts[pair]]:
            raise CommunicationError(
                f"exchange plan mismatch ({_msg_context('recv', *pair, tag)}): "
                f"got header {msg.header} and buffer sizes {sizes}, this "
                f"plan's are (({self.digest},),) and [{self.counts[pair]}]"
            )
        return msg.buffers[0]


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


def _run_exchange(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    plan: ExchangePlan,
    tag: str,
) -> HaloExchangeStats:
    """Pack, exchange and apply one phase of ``plan``;
    :meth:`SimComm.exchange` runs the protocol in between.  Buffers are
    allocated per phase, so a delayed or duplicated copy of an earlier
    message can never alias this step's data.  Per-rank stats sum to
    the loopback totals: ``samples`` and ``local_copies`` are counted by
    the packer, ``messages`` and ``payload_bytes`` by the receiver.
    """
    fields = [bg.fields for bg in box_grids]
    buffers: Dict[Tuple[int, int], np.ndarray] = {}
    for pair, items in plan.packs.items():
        src_box, comp = items[0][:2]
        buf = np.empty(plan.counts[pair], dtype=fields[src_box][comp].dtype)
        for src_box, comp, src_sl, start, stop, shape in items:
            buf[start:stop].reshape(shape)[...] = fields[src_box][comp][src_sl]
        buffers[pair] = buf
    header = ((plan.digest,),)
    outgoing = {
        pair: Message(header, (buf,))
        for pair, buf in buffers.items() if pair[0] != pair[1]
    }
    stats = HaloExchangeStats(samples=plan.samples, local_copies=plan.local_copies)
    fold = plan.kind == "fold"
    with comm.exchange(tag, plan.pairs, outgoing) as received:
        for pair, msg in zip(plan.recvs, received):
            buffers[pair] = plan.check(msg, pair, tag)
            stats.messages += 1
            stats.payload_bytes += msg.nbytes
        for pair, direct, items in plan.runs:
            if direct:
                for dst_box, comp, dst_sl, src_box, src_sl in items:
                    fields[dst_box][comp][dst_sl] = fields[src_box][comp][src_sl]
                continue
            buf = buffers[pair]
            for dst_box, comp, dst_sl, start, stop, shape in items:
                if fold:
                    view = fields[dst_box][comp][dst_sl]
                    view += buf[start:stop].reshape(shape)
                else:
                    fields[dst_box][comp][dst_sl] = buf[start:stop].reshape(shape)
    return stats


def _plan(
    overlaps, kind, boxes, rank_of_box, guards, components, local_rank
) -> ExchangePlan:
    """The plan of ``overlaps`` for this assignment: cached on the
    overlap set, or built and cached (a plain sequence gets one for this
    call only)."""
    if not isinstance(overlaps, OverlapSet):
        overlaps = OverlapSet(overlaps)
    assignment = np.asarray(rank_of_box, dtype=np.int64)
    key = (kind, tuple(components), int(guards), local_rank)
    plan = overlaps.plans.get(key)
    if plan is None or not np.array_equal(plan.assignment, assignment):
        plan = overlaps.plans[key] = ExchangePlan(
            overlaps, kind, boxes, assignment, guards, components, local_rank
        )
    return plan


def fold_sources_pairwise(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    overlaps: Sequence[HaloOverlap],
    rank_of_box: Sequence[int],
    guards: int,
    components: Sequence[str] = SOURCE_COMPONENTS,
    local_rank: Optional[int] = None,
) -> HaloExchangeStats:
    """Accumulate guard-cell J/rho deposits into their owning boxes.

    ``overlaps`` must come from ``neighbor_overlaps(..., kind="fold")``.
    After the call every box's component-valid region holds the complete
    (periodic) sum of all deposits for its samples — equal to folding on
    an assembled global grid, up to floating-point summation order.
    Guard cells keep their raw local deposits; nothing in the cycle reads
    them (E and J are colocated, and guard E/B are overwritten by the
    field fill).  With ``local_rank`` set (SPMD) only boxes this rank
    owns are read and written.
    """
    plan = _plan(
        overlaps, "fold", boxes, rank_of_box, guards, components, local_rank
    )
    return _run_exchange(comm, box_grids, plan, PHASE_TAGS["fold"])


def exchange_halos(
    comm: SimComm,
    box_grids: Sequence[YeeGrid],
    boxes: Sequence[Box],
    overlaps: Sequence[HaloOverlap],
    rank_of_box: Sequence[int],
    guards: int,
    components: Sequence[str] = FIELD_COMPONENTS,
    tag: str = PHASE_TAGS["fields"],
    local_rank: Optional[int] = None,
) -> HaloExchangeStats:
    """Overwrite every guard sample with its canonical owner's value.

    ``overlaps`` must come from ``neighbor_overlaps(..., kind="fill")``.
    The fill regions partition each box's non-owned samples exactly, so
    after the call the full (guard-padded) array of every box is
    bit-identical to scattering from an assembled, periodic global grid.
    """
    plan = _plan(
        overlaps, "fill", boxes, rank_of_box, guards, components, local_rank
    )
    return _run_exchange(comm, box_grids, plan, tag)
