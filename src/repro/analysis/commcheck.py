"""Post-hoc protocol checker for the simulated MPI layer.

Replays :attr:`SimComm.log <repro.parallel.comm.SimComm.log>` after a
run (or any phase of one) and reports protocol violations the way a
deadlock/race detector would on a real MPI trace:

======   =================================================================
COMM001  unreceived messages (send without a matching recv by end of run)
COMM002  tag mismatch (a recv found nothing under its tag while messages
         for the same (src, dst) pair were pending under another tag)
COMM003  self-send (src == dst; should be a local copy, and would
         deadlock a blocking-send MPI implementation)
COMM004  collective-count divergence across ranks (some ranks reached an
         allreduce that others never did — a guaranteed deadlock)
COMM005  barrier-count divergence across ranks
RES001   unrecovered message fault (an injected drop/duplicate/corrupt/
         delay event with no matching recovery action later in the log)
RES002   unrecovered rank failure (a ``rank_fail`` event with no
         subsequent checkpoint-restore for that rank)
======   =================================================================

When the log carries schedule-structure events
(``phase_begin``/``phase_end``/``apply``, emitted by the exchange phases
themselves), :func:`check_happens_before` additionally replays the
happens-before relation of the schedule:

======   =================================================================
COMM007  phase overlap: a phase begins (or ends) while messages on its
         tag are still in flight from an earlier phase — e.g. a
         load-balance migration overlapping an unfinished halo exchange
         on a shared tag
COMM009  non-canonical application order: an ordered fold/fill phase
         applied its overlap entries out of the canonical (strictly
         increasing) order, so the floating-point sum depends on the
         rank mapping
COMM010  fold-before-arrival race: an entry was applied while messages
         contributing to the same phase were still in flight
======   =================================================================

(Unmatched send/recv sites and cyclic wait-for chains are ruled out in
the source: every phase is one ``comm.exchange``, and lint rule PIC008
forbids the raw primitives elsewhere.)

Same-rank overlaps are local copies that never touch the communicator:
the happens-before accounting is driven purely by observed send/recv
events, so a single-rank decomposition (zero messages, phases intact)
replays clean by construction.

Use :func:`check_comm` for the point-to-point/collective/resilience
report, :func:`check_all` to also replay the happens-before relation,
or :meth:`ProtocolReport.raise_if_failed` to turn violations into a
:class:`~repro.exceptions.ProtocolError` (how the distributed tests gate
on a clean protocol).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis.findings import Finding, sort_findings
from repro.exceptions import ProtocolError

if TYPE_CHECKING:  # imported lazily to keep repro.analysis layering-free
    from repro.parallel.comm import SimComm

LOG_PATH = "<SimComm log>"


def _msg_context(op: str, src: int, dst: int, tag: str) -> str:
    """Message-context format, identical to SimComm's runtime errors."""
    return f"{op}: src={src} dst={dst} tag={tag!r}"


def _finding(rule: str, seq: int, message: str) -> Finding:
    """A commcheck finding; the event sequence number stands in for a line."""
    return Finding(rule=rule, message=message, path=LOG_PATH, line=seq)


def _check_point_to_point(comm: "SimComm") -> List[Finding]:
    """COMM001/COMM002/COMM003 by replaying send/recv events in order."""
    findings: List[Finding] = []
    outstanding: Dict[Tuple[int, int, str], List[int]] = defaultdict(list)
    for ev in comm.log:
        key = (ev.src, ev.dst, ev.tag)
        if ev.kind == "send":
            outstanding[key].append(ev.seq)
            if ev.src == ev.dst:
                findings.append(
                    _finding(
                        "COMM003",
                        ev.seq,
                        f"self-send on rank {ev.src} "
                        f"({_msg_context('send', ev.src, ev.dst, ev.tag)}); "
                        "use a local copy instead",
                    )
                )
        elif ev.kind == "recv":
            if outstanding[key]:
                outstanding[key].pop(0)
        elif ev.kind == "recv_missing":
            pending_tags = sorted(
                t
                for (s, d, t), seqs in outstanding.items()
                if s == ev.src and d == ev.dst and seqs and t != ev.tag
            )
            if pending_tags:
                findings.append(
                    _finding(
                        "COMM002",
                        ev.seq,
                        f"tag mismatch: {_msg_context('recv', ev.src, ev.dst, ev.tag)} "
                        f"found nothing while tags {pending_tags} were pending "
                        "for the same pair",
                    )
                )
    for (src, dst, tag), seqs in sorted(outstanding.items()):
        if seqs:
            findings.append(
                _finding(
                    "COMM001",
                    seqs[0],
                    f"{len(seqs)} unreceived message(s) "
                    f"({_msg_context('send', src, dst, tag)}); every send "
                    "needs a matching recv by end of run",
                )
            )
    return findings


def _check_divergence(comm: "SimComm", kind: str, rule: str) -> List[Finding]:
    """Collective/barrier participation must be uniform across ranks."""
    counts: Counter = Counter()
    last_seq = 0
    for ev in comm.log:
        if ev.kind == kind:
            counts[ev.src] += 1
            last_seq = ev.seq
    if not counts:
        return []
    per_rank = [counts.get(r, 0) for r in range(comm.n_ranks)]
    if len(set(per_rank)) == 1:
        return []
    label = "allreduce" if kind == "collective" else "barrier"
    return [
        _finding(
            rule,
            last_seq,
            f"{label} count diverges across ranks: per-rank counts "
            f"{per_rank} (min {min(per_rank)}, max {max(per_rank)}) — "
            "a real MPI run would deadlock",
        )
    ]


#: which recovery action repairs which injected fault (RES001 pairing)
_FAULT_RECOVERY = {
    "fault_drop": "recover_retry",
    "fault_corrupt": "recover_retry",
    "fault_duplicate": "recover_dedup",
    "fault_delay": "recover_redeliver",
}


def _check_resilience(comm: "SimComm") -> List[Finding]:
    """RES001/RES002: every fault event must be followed by its recovery.

    Fault and recovery events are matched FIFO per (src, dst, tag) and
    per required recovery kind — a retransmission repairs the *oldest*
    outstanding drop/corruption on that channel, mirroring the FIFO
    queues of the transport itself.  Rank failures pair with
    checkpoint-restore events per rank.
    """
    findings: List[Finding] = []
    outstanding: Dict[Tuple[Tuple[int, int, str], str], List[Tuple[int, str]]] = (
        defaultdict(list)
    )
    failed_ranks: Dict[int, List[int]] = defaultdict(list)
    for ev in comm.log:
        key = (ev.src, ev.dst, ev.tag)
        if ev.kind in _FAULT_RECOVERY:
            outstanding[(key, _FAULT_RECOVERY[ev.kind])].append(
                (ev.seq, ev.kind)
            )
        elif ev.kind in ("recover_retry", "recover_dedup", "recover_redeliver"):
            pending = outstanding.get((key, ev.kind))
            if pending:
                pending.pop(0)
        elif ev.kind == "rank_fail":
            failed_ranks[ev.src].append(ev.seq)
        elif ev.kind == "recover_restore":
            if failed_ranks.get(ev.src):
                failed_ranks[ev.src].pop(0)
    for ((src, dst, tag), needed), events in sorted(outstanding.items()):
        for seq, fault_kind in events:
            findings.append(
                _finding(
                    "RES001",
                    seq,
                    f"injected {fault_kind.removeprefix('fault_')} "
                    f"({_msg_context('send', src, dst, tag)}) was never "
                    f"recovered (no matching {needed!r} event)",
                )
            )
    for rank, seqs in sorted(failed_ranks.items()):
        for seq in seqs:
            findings.append(
                _finding(
                    "RES002",
                    seq,
                    f"rank {rank} failed and was never restored from a "
                    "checkpoint (no recover_restore event)",
                )
            )
    return findings


class _PhaseState:
    """Replay state of one open exchange phase (per tag)."""

    __slots__ = ("begin_seq", "declared", "last_order", "flagged_order",
                 "flagged_race")

    def __init__(self, begin_seq: int, declared: int) -> None:
        self.begin_seq = begin_seq
        self.declared = declared
        self.last_order: int | None = None
        self.flagged_order = False
        self.flagged_race = False


def _check_happens_before(comm: "SimComm") -> List[Finding]:
    """COMM007/COMM009/COMM010 by replaying schedule-structure events.

    ``outstanding`` counts in-flight messages per tag from observed
    send/recv events only — local copies never appear, so phases with no
    cross-rank traffic (single-rank decompositions) are vacuously clean.
    Each race/order violation is reported once per phase (the first
    offending event carries the provenance).
    """
    findings: List[Finding] = []
    outstanding: Counter = Counter()
    phases: Dict[str, _PhaseState] = {}
    for ev in comm.log:
        if ev.kind == "send":
            outstanding[ev.tag] += 1
        elif ev.kind == "recv":
            if outstanding[ev.tag] > 0:
                outstanding[ev.tag] -= 1
        elif ev.kind == "phase_begin":
            in_flight = outstanding[ev.tag]
            if ev.tag in phases:
                findings.append(
                    _finding(
                        "COMM007",
                        ev.seq,
                        f"phase on tag {ev.tag!r} begins while an earlier "
                        f"phase on the same tag (event "
                        f"{phases[ev.tag].begin_seq}) is still open — "
                        "overlapping phases cannot tell their messages apart",
                    )
                )
            elif in_flight > 0:
                findings.append(
                    _finding(
                        "COMM007",
                        ev.seq,
                        f"phase on tag {ev.tag!r} begins while "
                        f"{in_flight} message(s) on the same tag are still "
                        "in flight from outside the phase — e.g. a "
                        "migration overlapping an unfinished halo exchange",
                    )
                )
            phases[ev.tag] = _PhaseState(ev.seq, ev.detail)
        elif ev.kind == "phase_end":
            phases.pop(ev.tag, None)
        elif ev.kind == "apply":
            state = phases.get(ev.tag)
            if state is None:
                continue  # applies outside a phase are not schedule-bound
            if outstanding[ev.tag] > 0 and not state.flagged_race:
                state.flagged_race = True
                findings.append(
                    _finding(
                        "COMM010",
                        ev.seq,
                        f"apply on tag {ev.tag!r} (order {ev.detail}) while "
                        f"{outstanding[ev.tag]} contributing message(s) are "
                        "still in flight — the fold raced its own traffic",
                    )
                )
            if (
                state.last_order is not None
                and ev.detail <= state.last_order
                and not state.flagged_order
            ):
                state.flagged_order = True
                findings.append(
                    _finding(
                        "COMM009",
                        ev.seq,
                        f"apply on tag {ev.tag!r} out of canonical order "
                        f"(order {ev.detail} after {state.last_order}) — "
                        "the floating-point sum now depends on the rank "
                        "mapping",
                    )
                )
            state.last_order = ev.detail
    return findings


@dataclass
class ProtocolReport:
    """Outcome of one protocol check: findings plus a little context."""

    findings: List[Finding] = field(default_factory=list)
    n_events: int = 0
    n_ranks: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        head = (
            f"protocol check over {self.n_events} events on "
            f"{self.n_ranks} rank(s): "
        )
        if self.ok:
            return head + "clean"
        lines = [head + f"{len(self.findings)} violation(s)"]
        lines += [f"  {f.format()}" for f in self.findings]
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.format()

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ProtocolError(self.format())


def check_comm(comm: "SimComm") -> ProtocolReport:
    """Run the point-to-point/collective/resilience detectors."""
    findings: List[Finding] = []
    findings += _check_point_to_point(comm)
    findings += _check_divergence(comm, "collective", "COMM004")
    findings += _check_divergence(comm, "barrier", "COMM005")
    findings += _check_resilience(comm)
    return ProtocolReport(
        findings=sort_findings(findings),
        n_events=len(comm.log),
        n_ranks=comm.n_ranks,
    )


def check_happens_before(comm: "SimComm") -> ProtocolReport:
    """Replay only the happens-before relation (COMM007/009/010).

    Logs without schedule-structure events trivially pass — the checker
    is driven entirely by ``phase_begin``/``phase_end``/``apply``
    markers, so it composes with hand-built event logs and with replays
    loaded from disk (:mod:`repro.observability.commlog`).
    """
    return ProtocolReport(
        findings=sort_findings(_check_happens_before(comm)),
        n_events=len(comm.log),
        n_ranks=comm.n_ranks,
    )


def check_all(comm: "SimComm") -> ProtocolReport:
    """Every replay detector: protocol rules plus happens-before."""
    findings = check_comm(comm).findings + _check_happens_before(comm)
    return ProtocolReport(
        findings=sort_findings(findings),
        n_events=len(comm.log),
        n_ranks=comm.n_ranks,
    )
