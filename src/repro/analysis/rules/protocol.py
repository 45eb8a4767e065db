"""PIC008: the raw message primitives stay inside ``SimComm``.

Every exchange phase is one ``comm.exchange(tag, pairs, outgoing)``:
it declares what it posts, sends before it receives and closes the
phase after its ``with`` body, and the static schedule verifier
(:mod:`repro.analysis.commstatic`) models exactly those sites.  A raw
``send`` / ``recv`` / ``begin_phase`` / ``end_phase`` on a
communicator-named receiver would be a message the verifier cannot see,
so it is an error anywhere in the scanned tree.  ``SimComm`` itself
calls them on ``self``, which no communicator name matches; the methods
stay public for tests and the benchmark's ping-pong probe.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.linter import LintContext, LintRule, receiver_is_comm, register

#: the primitives ``SimComm.exchange`` is built from
RAW_PRIMITIVES = frozenset({"send", "recv", "begin_phase", "end_phase"})


@register
class RawProtocolRule(LintRule):
    rule_id = "PIC008"
    description = (
        "no raw comm.send/recv/begin_phase/end_phase; every phase is one "
        "comm.exchange(tag, pairs, outgoing)"
    )

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RAW_PRIMITIVES
                and receiver_is_comm(node.func)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"raw {node.func.attr}() on a communicator; run the "
                    "phase through comm.exchange(tag, pairs, outgoing) so "
                    "the schedule verifier sees it",
                )
