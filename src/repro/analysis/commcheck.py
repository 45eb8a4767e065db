"""Post-hoc resilience checker for the simulated MPI layer.

Replays :attr:`SimComm.log <repro.parallel.comm.SimComm.log>` after a
run (or a comm log recorded from one) and reports the faults that no
recovery repaired:

======   =================================================================
RES001   unrecovered message fault (an injected drop/duplicate/corrupt/
         delay event with no matching recovery action in the log)
RES002   unrecovered rank failure (a ``rank_fail`` event with no
         checkpoint-restore for that rank)
======   =================================================================

Faults pair with their recoveries per channel by count, not by position
in the log: the per-rank logs of a multi-process run, one after another,
replay like the loopback log.  Event kinds the checker does not pair
(``send``, ``recv``) are ignored.

Only a whole-run view can pair a fault with its recovery, so these two
rules stay a replay.  Every other protocol bug is refused where it would
happen, on both transports:
:meth:`SimComm.exchange <repro.parallel.comm.SimComm.exchange>` refuses
an undeclared tag, a second phase on an open one, a missing or stray
payload and a self pair ``(r, r)`` before the first send, delivers each
channel in send order and receives every pair it sends before its body
runs; a receive that finds nothing raises naming the pair, the tag and
the tags pending for it; lint rule PIC008 forbids raw ``send`` /
``recv`` outside ``SimComm``; and on the process transport a collective
(``allreduce`` / ``sync``) that a peer never joins times out with a
:class:`~repro.exceptions.ResilienceError`, while loopback collectives
speak for every rank at once.  :class:`~repro.parallel.halo.ExchangePlan`
builds its runs in canonical entry order.

Use :func:`check_comm` for the report, and
:meth:`ProtocolReport.raise_if_failed` to turn violations into a
:class:`~repro.exceptions.ProtocolError` (how the distributed tests gate
on a clean run).
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
    """Pair every fault of ``comm.log`` with its recovery (RES001/RES002)."""
    return ProtocolReport(
        findings=sort_findings(_check_resilience(comm)),
        n_events=len(comm.log),
        n_ranks=comm.n_ranks,
    )
