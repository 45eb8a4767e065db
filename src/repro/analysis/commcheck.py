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
         delay event with no matching recovery action in the log)
RES002   unrecovered rank failure (a ``rank_fail`` event with no
         checkpoint-restore for that rank)
======   =================================================================

Sends pair with receives, and faults with their recoveries, per
channel by count, not by position in the log: the per-rank logs of a
multi-process run, one after another, replay like the loopback log.

The order of an exchange phase is not in the log; it is checked where
it is enforced:
:meth:`SimComm.exchange <repro.parallel.comm.SimComm.exchange>` refuses
an undeclared tag or a second phase on an open one, delivers each
channel in send order and hands its body the messages only after all of
them arrived; :class:`~repro.parallel.halo.ExchangePlan` builds its runs
in canonical entry order.  Unmatched send/recv sites and cyclic
wait-for chains are ruled out in the source: every phase is one
``comm.exchange``, and lint rule PIC008 forbids the raw primitives
elsewhere.

Use :func:`check_comm` for the report, and
:meth:`ProtocolReport.raise_if_failed` to turn violations into a
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
    """COMM001/COMM002/COMM003 by replaying send/recv events."""
    findings: List[Finding] = []
    sends: Dict[Tuple[int, int, str], List[int]] = defaultdict(list)
    recvs: Counter = Counter()
    for ev in comm.log:
        key = (ev.src, ev.dst, ev.tag)
        if ev.kind == "send":
            sends[key].append(ev.seq)
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
            recvs[key] += 1
        elif ev.kind == "recv_missing":
            pending_tags = sorted(
                t
                for (s, d, t), seqs in sends.items()
                if s == ev.src and d == ev.dst and t != ev.tag
                and len(seqs) > recvs[(s, d, t)]
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
    for (src, dst, tag), seqs in sorted(sends.items()):
        unreceived = seqs[recvs[(src, dst, tag)]:]
        if unreceived:
            findings.append(
                _finding(
                    "COMM001",
                    unreceived[0],
                    f"{len(unreceived)} unreceived message(s) "
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
    """RES001/RES002: every fault event must be paired with its recovery.

    Faults pair with recoveries per (src, dst, tag) and required
    recovery kind by count — a fault and its recovery may sit in
    different ranks' logs (a duplicate is recorded by its sender, the
    dedup by its receiver).  Rank failures pair with checkpoint-restore
    events per rank.  The faults left over are the latest ones.
    """
    faults: Dict[Tuple, List[Tuple[int, str]]] = defaultdict(list)
    recoveries: Counter = Counter()
    for ev in comm.log:
        key = (ev.src, ev.dst, ev.tag)
        if ev.kind in _FAULT_RECOVERY:
            faults[(key, _FAULT_RECOVERY[ev.kind])].append((ev.seq, ev.kind))
        elif ev.kind in ("recover_retry", "recover_dedup", "recover_redeliver"):
            recoveries[(key, ev.kind)] += 1
        elif ev.kind == "rank_fail":
            faults[(ev.src, "recover_restore")].append((ev.seq, ev.kind))
        elif ev.kind == "recover_restore":
            recoveries[(ev.src, ev.kind)] += 1
    findings: List[Finding] = []
    for pairing, events in faults.items():
        for seq, fault_kind in events[recoveries[pairing]:]:
            if fault_kind == "rank_fail":
                rule, message = "RES002", (
                    f"rank {pairing[0]} failed and was never restored from "
                    "a checkpoint (no recover_restore event)"
                )
            else:
                (src, dst, tag), needed = pairing
                rule, message = "RES001", (
                    f"injected {fault_kind.removeprefix('fault_')} "
                    f"({_msg_context('send', src, dst, tag)}) was never "
                    f"recovered (no matching {needed!r} event)"
                )
            findings.append(_finding(rule, seq, message))
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
