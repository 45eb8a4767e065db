"""Persist and replay SimComm event logs as JSONL.

One header line identifies the format and rank count; every following
line is one :class:`~repro.parallel.comm.CommEvent` as a flat JSON
object.  The reader hands back a :class:`CommLogReplay`, which quacks
like a communicator as far as the replay checker is concerned
(``.log`` and ``.n_ranks``), so a recorded run can be audited offline::

    from repro.observability.commlog import read_comm_log, write_comm_log
    from repro.analysis.commcheck import check_comm

    write_comm_log(sim.comm, "run.commlog.jsonl")
    ...
    check_comm(read_comm_log("run.commlog.jsonl")).raise_if_failed()

This is also how the CI fixture suite feeds seeded-bug event logs
(``--comm-log`` on ``python -m repro.analysis``) to the protocol
checker without re-running the simulation that produced them.  A log
holds traffic, faults and recoveries only; version 1 also carried the
``phase_begin`` / ``phase_end`` / ``apply`` schedule events and a
``detail`` field, and is refused.
"""

from __future__ import annotations

import json
from typing import List

from repro.exceptions import AnalysisError

#: the on-disk format identifier of the header line
LOG_FORMAT_KIND = "comm_log"

#: current format version (bump on incompatible field changes)
LOG_FORMAT_VERSION = 2

_EVENT_FIELDS = ("seq", "kind", "src", "dst", "tag", "nbytes")


class CommLogReplay:
    """A deserialized event log, replayable by the commcheck detectors."""

    def __init__(self, log: List, n_ranks: int, path: str = "") -> None:
        self.log = log
        self.n_ranks = n_ranks
        self.path = path

    def __len__(self) -> int:
        return len(self.log)


def write_comm_log(comm, path: str) -> int:
    """Serialize ``comm``'s event log to ``path``; returns events written.

    ``comm`` is duck-typed: anything with ``.log`` (CommEvent sequence)
    and ``.n_ranks`` works, including a :class:`CommLogReplay`.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "kind": LOG_FORMAT_KIND,
                    "version": LOG_FORMAT_VERSION,
                    "n_ranks": int(comm.n_ranks),
                }
            )
            + "\n"
        )
        for ev in comm.log:
            handle.write(
                json.dumps(
                    {name: getattr(ev, name) for name in _EVENT_FIELDS}
                )
                + "\n"
            )
    return len(comm.log)


def read_comm_log(path: str) -> CommLogReplay:
    """Load a comm log written by :func:`write_comm_log`."""
    # imported lazily: repro.parallel pulls in the distributed driver,
    # which imports this package back (tracer) — a module-scope import
    # here would create a cycle
    from repro.parallel.comm import CommEvent

    events: List[CommEvent] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read comm log {path!r}: {exc}")
    with handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line) if header_line.strip() else {}
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path}: malformed comm-log header: {exc}")
        if header.get("kind") != LOG_FORMAT_KIND:
            raise AnalysisError(
                f"{path}: not a comm log (header kind "
                f"{header.get('kind')!r}, expected {LOG_FORMAT_KIND!r})"
            )
        if header.get("version") != LOG_FORMAT_VERSION:
            raise AnalysisError(
                f"{path}: unsupported comm-log version "
                f"{header.get('version')!r} (reader speaks "
                f"{LOG_FORMAT_VERSION})"
            )
        n_ranks = int(header.get("n_ranks", 0))
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                events.append(
                    CommEvent(
                        seq=int(record["seq"]),
                        kind=str(record["kind"]),
                        src=int(record["src"]),
                        dst=int(record["dst"]),
                        tag=str(record["tag"]),
                        nbytes=int(record["nbytes"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise AnalysisError(
                    f"{path}:{lineno}: malformed comm-log event: {exc}"
                )
    return CommLogReplay(events, n_ranks, path=path)
