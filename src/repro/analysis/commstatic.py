"""Static communication-schedule extraction and verification.

Walks python sources (normally ``src/repro``, in particular
``parallel/``) for calls on a communicator object — any receiver whose
name contains ``comm`` calling ``exchange`` / ``send`` / ``recv`` /
``begin_phase`` / ``end_phase`` / ``record_apply`` / ``allreduce_sum`` /
``barrier`` — and rebuilds the *schedule* those sites imply: per-phase
message flows with statically inferred ``(src, dst, tag)`` components,
resolved by the constant-propagation engine of
:mod:`repro.analysis.dataflow` plus a call-graph propagation for tags
passed down through parameters (how ``_run_exchange``'s bare ``tag``
parameter resolves to ``"halo:fold"`` and ``"halo:fields"`` from its
two wrappers, and to ``"halo:sources"`` from the driver that passes
that tag explicitly over ``exchange_halos``'s default).

A ``comm.exchange(tag, pairs, outgoing)`` call is the whole protocol of
one phase (:meth:`SimComm.exchange <repro.parallel.comm.SimComm.
exchange>`), so it is modelled as a phase declaration plus one send and
one receive site under its tag, attributed to the calling function; its
phase is open for the body of the ``with`` statement it heads.

The extracted schedule is then verified:

======   =================================================================
COMM006  unmatched message sites: a send with no receive site for the
         same tag in the same function (or vice versa) — a message that
         can never be delivered, or a receive that must block forever.
         Downgraded to a warning when the tag cannot be statically
         resolved at a site (the schedule is then unverifiable there).
COMM007  cross-phase tag collision: two distinct exchange phases
         (``begin_phase`` or ``exchange`` sites) declare the same tag
         (e.g. a migration reusing a halo tag) — their in-flight
         messages would be indistinguishable.
COMM008  recv-before-send: a phase posts its (blocking) receive before
         any send of the same tag — the cyclic wait-for pattern that
         deadlocks a blocking multiprocessing transport outright.
COMM010  send-buffer mutation: an array payload — sent bare, as a
         buffer of a ``Message(...)``, or inside the ``{pair: message}``
         dict handed to ``exchange`` — is mutated (directly or through
         an alias) after the send and before the phase's last receive
         (``exchange``: before its ``with`` body ends) — the message is
         corrupted while in flight, and only on loopback, which hands
         the receiver the sender's very arrays.
======   =================================================================

COMM006 and COMM008 hold inside ``exchange`` by construction (one call
is both ends of its tag, sends first); they still see every raw
``send`` / ``recv``.

Approximations (documented, deliberate): matching is function-local
(this codebase pairs every send with its recv in the same function); a
parameter resolves to its default *and* to whatever call sites pass for
it explicitly, unless the function rebinds it; module constants follow
``from module import NAME`` inside the scanned tree; control-flow inside
a function is summarized lexically for the ordering checks.  Each is the
conservative choice for the shipped tree — anything the engine cannot
prove constant is reported as unverifiable (a warning), never guessed.

The replay-side complements — COMM007 phase overlap, COMM009
non-canonical fold order and COMM010 fold-before-arrival, checked
against a *recorded* event log — live in
:mod:`repro.analysis.commcheck`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import (
    ArrayValue,
    MessageValue,
    ModuleAnalysis,
    fold_expr,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.linter import iter_python_files

#: communicator methods that constitute schedule structure
COMM_METHODS = (
    "exchange",
    "send",
    "recv",
    "begin_phase",
    "end_phase",
    "record_apply",
    "allreduce_sum",
    "barrier",
)

#: positional index of the tag argument per method (None: method has none)
_TAG_ARG_INDEX = {
    "exchange": 0,
    "send": 3,
    "recv": 2,
    "begin_phase": 0,
    "end_phase": 0,
    "record_apply": 0,
}

#: positional index of the (src, dst) rank arguments per method
_RANK_ARG_INDEX = {"send": (0, 1), "recv": (0, 1)}

#: keyword and positional index of what a sending call puts in flight
_PAYLOAD_ARG = {"send": ("payload", 2), "exchange": ("outgoing", 2)}

#: in-place array mutators recognized by the buffer-mutation check
_MUTATING_METHODS = frozenset({"fill", "sort", "resize", "put", "partition"})

#: rule id, severity, one-line description (for ``--list-rules``)
STATIC_RULES = (
    ("COMM006", "send/recv site without a matching counterpart for its tag "
                "(unresolvable tags are reported as warnings)"),
    ("COMM007", "two exchange phases declare the same tag (cross-phase "
                "namespace collision)"),
    ("COMM008", "blocking recv posted before any send of the same tag "
                "(deadlock under a blocking transport)"),
    ("COMM010", "send buffer mutated (directly or via an alias) while the "
                "message is in flight"),
)


@dataclass(frozen=True)
class MessageFlow:
    """One send or recv site under one statically resolved tag."""

    kind: str
    path: str
    line: int
    func: str
    tag: str
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass(frozen=True)
class PhaseInfo:
    """One exchange phase: a ``begin_phase`` site under one tag value."""

    tag: str
    path: str
    line: int
    func: str
    n_sends: int = 0
    n_recvs: int = 0


@dataclass
class Schedule:
    """The statically extracted communication schedule of a source tree."""

    phases: List[PhaseInfo] = field(default_factory=list)
    flows: List[MessageFlow] = field(default_factory=list)
    n_files: int = 0
    n_sites: int = 0

    def tags(self) -> List[str]:
        return sorted({p.tag for p in self.phases})


@dataclass
class _Site:
    """One communicator call site, pre-resolution."""

    kind: str
    call: ast.Call
    line: int
    module: "_Module"
    fn: Optional[ast.FunctionDef]
    tags: FrozenSet[str] = frozenset()

    @property
    def func_name(self) -> str:
        return self.fn.name if self.fn is not None else "<module>"

    # an ``exchange`` call plays all three roles of the phase it runs
    @property
    def declares(self) -> bool:
        return self.kind in ("begin_phase", "exchange")

    @property
    def sends(self) -> bool:
        return self.kind in ("send", "exchange")

    @property
    def recvs(self) -> bool:
        return self.kind in ("recv", "exchange")


class _Module:
    """One parsed source file plus its dataflow analysis and call index."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.analysis = ModuleAnalysis(tree)
        #: every Name-call in the module: callee name -> [(call, encl fn)]
        self.calls: Dict[str, List[Tuple[ast.Call, Optional[ast.FunctionDef]]]] = {}
        #: function definitions by bare name (later definitions win)
        self.functions: Dict[str, ast.FunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                self.calls.setdefault(node.func.id, []).append(
                    (node, self.analysis.enclosing_function(node))
                )


def _receiver_is_comm(func: ast.expr) -> bool:
    """``X.meth`` where the terminal name of ``X`` contains "comm"."""
    if not isinstance(func, ast.Attribute):
        return False
    base = func.value
    if isinstance(base, ast.Name):
        return "comm" in base.id.lower()
    if isinstance(base, ast.Attribute):
        return "comm" in base.attr.lower()
    return False


def _positional_params(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    return [a.arg for a in list(getattr(args, "posonlyargs", [])) + list(args.args)]


def _rebinds(fn: ast.FunctionDef, name: str) -> bool:
    """Does the body of ``fn`` assign to ``name`` anywhere?"""
    return any(
        isinstance(node, ast.Name)
        and node.id == name
        and isinstance(node.ctx, ast.Store)
        for node in ast.walk(fn)
    )


def _arg_for_param(
    fn: ast.FunctionDef, call: ast.Call, name: str
) -> Optional[ast.expr]:
    """The expression a plain-Name call passes for parameter ``name``."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    params = _positional_params(fn)
    if name not in params:
        return None
    idx = params.index(name)
    if idx < len(call.args) and not any(
        isinstance(a, ast.Starred) for a in call.args[: idx + 1]
    ):
        return call.args[idx]
    return None


def _call_arg(call: ast.Call, keyword: str, index: int) -> Optional[ast.expr]:
    """Argument ``keyword``/positional ``index`` of a call (None if absent)."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if index < len(call.args) and not any(
        isinstance(a, ast.Starred) for a in call.args[: index + 1]
    ):
        return call.args[index]
    return None


class _Workspace:
    """All modules under the given paths, with cross-module resolution."""

    #: maximum caller-chain depth for parameter propagation
    MAX_DEPTH = 4

    def __init__(self, paths: Sequence[str]) -> None:
        self.modules: List[_Module] = []
        self.sites: List[_Site] = []
        for full, rel in iter_python_files(paths):
            try:
                with open(full, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=rel)
            except (SyntaxError, OSError):
                continue  # the linter reports unparseable files (PIC000)
            # anchor findings at the path as scanned, matching the linter
            self.modules.append(_Module(full, tree))
        self._link_imported_constants()
        for module in self.modules:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in COMM_METHODS
                    and _receiver_is_comm(node.func)
                ):
                    self.sites.append(
                        _Site(
                            kind=node.func.attr,
                            call=node,
                            line=node.lineno,
                            module=module,
                            fn=module.analysis.enclosing_function(node),
                        )
                    )
        for site in self.sites:
            site.tags = frozenset(self._site_tags(site))

    def _link_imported_constants(self) -> None:
        """``from pkg.mod import NAME`` of a scanned module's constant
        binds that constant in the importer (a local binding wins)."""
        constants_at = {
            "/" + m.path.replace(os.sep, "/"): m.analysis.env.constants
            for m in self.modules
        }
        for module in self.modules:
            env = module.analysis.env
            for dotted, name, alias in env.imports_from:
                suffix = "/" + dotted.replace(".", "/") + ".py"
                for path, constants in constants_at.items():
                    if path.endswith(suffix) and name in constants:
                        env.constants.setdefault(alias, constants[name])

    # -- value resolution ----------------------------------------------------
    def resolve_values(
        self,
        module: _Module,
        fn: Optional[ast.FunctionDef],
        expr: ast.expr,
        _depth: Optional[int] = None,
        _stack: FrozenSet[Tuple[str, str, str]] = frozenset(),
    ) -> Set[object]:
        """Possible constant values of ``expr`` at its site.

        Intraprocedural resolution first (a parameter's default
        included); a parameter the function never rebinds then also
        takes every value a plain-Name call site of its function passes
        for it across the workspace (depth-limited, cycle-guarded) — an
        explicit argument overrides a default, so both are possible.
        An empty set means "not statically resolvable".
        """
        depth = self.MAX_DEPTH if _depth is None else _depth
        if fn is None:
            ok, value = fold_expr(expr, module.analysis.env.lookup)
            return {value} if ok else set()
        ok, value = module.analysis.function_analysis(fn).resolve(expr)
        values: Set[object] = {value} if ok else set()
        if depth <= 0 or not isinstance(expr, ast.Name):
            return values
        name = expr.id
        is_param = name in _positional_params(fn) or name in [
            a.arg for a in fn.args.kwonlyargs
        ]
        if not is_param or _rebinds(fn, name):
            return values
        key = (module.path, fn.name, name)
        if key in _stack:
            return values
        stack = _stack | {key}
        for caller_module in self.modules:
            for call, caller_fn in caller_module.calls.get(fn.name, ()):  # noqa: B020
                arg = _arg_for_param(fn, call, name)
                if arg is None:
                    continue
                values |= self.resolve_values(
                    caller_module, caller_fn, arg, depth - 1, stack
                )
        return values

    def _site_tags(self, site: _Site) -> Set[str]:
        index = _TAG_ARG_INDEX.get(site.kind)
        if index is None:
            return set()
        expr = _call_arg(site.call, "tag", index)
        if expr is None:
            return {""}  # the communicator's default tag
        values = self.resolve_values(site.module, site.fn, expr)
        return {v for v in values if isinstance(v, str)}

    def _site_rank(self, site: _Site, which: int) -> Optional[int]:
        indices = _RANK_ARG_INDEX.get(site.kind)
        if indices is None:
            return None
        keyword = ("src", "dst")[which]
        expr = _call_arg(site.call, keyword, indices[which])
        if expr is None:
            return None
        values = self.resolve_values(site.module, site.fn, expr)
        ints = {v for v in values if isinstance(v, int) and not isinstance(v, bool)}
        return ints.pop() if len(ints) == 1 else None


# -- checks ------------------------------------------------------------------

def _group_sites(
    sites: Sequence[_Site],
) -> Dict[Tuple[str, str], List[_Site]]:
    groups: Dict[Tuple[str, str], List[_Site]] = {}
    for site in sites:
        groups.setdefault((site.module.path, site.func_name), []).append(site)
    return groups


def _check_matched_pairs(ws: _Workspace) -> List[Finding]:
    """COMM006: every send needs a recv site for its tag (function-local)."""
    findings: List[Finding] = []
    for (path, func), group in sorted(_group_sites(ws.sites).items()):
        sends = [s for s in group if s.sends]
        recvs = [s for s in group if s.recvs]
        for site in group:
            if (site.sends or site.recvs) and not site.tags:
                findings.append(
                    Finding(
                        rule="COMM006",
                        message=(
                            f"cannot statically resolve the tag of this "
                            f"{site.kind} in {func!r}; the schedule is "
                            "unverifiable at this site"
                        ),
                        path=path,
                        line=site.line,
                        severity=Severity.WARNING,
                    )
                )
        recv_tags = {t for s in recvs for t in s.tags}
        send_tags = {t for s in sends for t in s.tags}
        for site in sends:
            for tag in sorted(site.tags - recv_tags):
                findings.append(
                    Finding(
                        rule="COMM006",
                        message=(
                            f"send on tag {tag!r} in {func!r} has no "
                            "matching recv site — the message can never be "
                            "delivered"
                        ),
                        path=path,
                        line=site.line,
                    )
                )
        for site in recvs:
            for tag in sorted(site.tags - send_tags):
                findings.append(
                    Finding(
                        rule="COMM006",
                        message=(
                            f"recv on tag {tag!r} in {func!r} has no "
                            "matching send site — the receive must block "
                            "forever"
                        ),
                        path=path,
                        line=site.line,
                    )
                )
    return findings


def _check_tag_disjointness(ws: _Workspace) -> List[Finding]:
    """COMM007: no two phase declarations may claim the same tag."""
    findings: List[Finding] = []
    claims: Dict[str, List[_Site]] = {}
    for site in ws.sites:
        if site.declares:
            for tag in site.tags:
                claims.setdefault(tag, []).append(site)
    for tag, sites in sorted(claims.items()):
        distinct = sorted(
            {(s.module.path, s.line) for s in sites}
        )
        if len(distinct) < 2:
            continue
        first = distinct[0]
        for path, line in distinct[1:]:
            findings.append(
                Finding(
                    rule="COMM007",
                    message=(
                        f"tag {tag!r} is declared by more than one exchange "
                        f"phase (also at {first[0]}:{first[1]}) — "
                        "overlapping phases cannot tell their messages apart"
                    ),
                    path=path,
                    line=line,
                )
            )
    return findings


def _check_recv_before_send(ws: _Workspace) -> List[Finding]:
    """COMM008: a blocking recv lexically before any same-tag send."""
    findings: List[Finding] = []
    for (path, func), group in sorted(_group_sites(ws.sites).items()):
        tags = {t for s in group if s.sends or s.recvs for t in s.tags}
        for tag in sorted(tags):
            send_lines = [s.line for s in group if s.sends and tag in s.tags]
            recv_lines = [s.line for s in group if s.recvs and tag in s.tags]
            if not send_lines or not recv_lines:
                continue  # COMM006 already covers the unmatched case
            if min(recv_lines) < min(send_lines):
                findings.append(
                    Finding(
                        rule="COMM008",
                        message=(
                            f"recv on tag {tag!r} in {func!r} is posted "
                            f"before any send of that tag (first send at "
                            f"line {min(send_lines)}) — every rank would "
                            "block in recv with nothing in flight: deadlock "
                            "under a blocking transport"
                        ),
                        path=path,
                        line=min(recv_lines),
                    )
                )
    return findings


def _check_buffer_mutation(ws: _Workspace) -> List[Finding]:
    """COMM010 (static): payload arrays mutated while the message flies."""
    findings: List[Finding] = []
    for (path, func), group in sorted(_group_sites(ws.sites).items()):
        sends = [s for s in group if s.sends and s.fn is not None]
        for site in sends:
            payload = _call_arg(site.call, *_PAYLOAD_ARG[site.kind])
            if payload is None:
                continue
            analysis = site.module.analysis.function_analysis(site.fn)
            label = (
                payload.id if isinstance(payload, ast.Name) else "Message(...)"
            )
            if site.kind == "exchange":
                in_flight_until = _phase_close_line(site)
            else:
                recv_lines = [
                    s.line
                    for s in group
                    if s.kind == "recv"
                    and (s.tags & site.tags or not site.tags)
                ]
                in_flight_until = (
                    max(recv_lines) if recv_lines else float("inf")
                )
            for value in _buffers_in_flight(analysis.value_of(payload)):
                mutation = _find_mutation(
                    site.fn, analysis, value, site.line, in_flight_until
                )
                if mutation is None:
                    continue
                line, name = mutation
                via = (
                    f"via alias {name!r}" if name != label
                    else f"through {name!r}"
                )
                findings.append(
                    Finding(
                        rule="COMM010",
                        message=(
                            f"send buffer {label!r} (sent at line "
                            f"{site.line} in {func!r}) is mutated {via} "
                            "while the message is in flight — the payload "
                            "is corrupted before it is received"
                        ),
                        path=path,
                        line=line,
                    )
                )
    return findings


def _phase_close_line(site: _Site) -> int:
    """First line past the ``with`` body an ``exchange`` call heads: the
    phase (and its outgoing buffers' flight) ends where that body does.
    A call that heads no ``with`` never opens its phase."""
    for node in ast.walk(site.fn):
        if isinstance(node, ast.With) and any(
            item.context_expr is site.call for item in node.items
        ):
            return node.end_lineno + 1
    return site.line


def _buffers_in_flight(value: object) -> Sequence[object]:
    """The abstract arrays a sent value puts on the wire: a bare array is
    itself, a ``Message(...)`` — or the ``{pair: message}`` dict of an
    ``exchange`` — is every buffer it was built from."""
    if isinstance(value, ArrayValue):
        return [value]
    if isinstance(value, MessageValue):
        return list(value.buffers)
    return []


def _find_mutation(
    fn: ast.FunctionDef,
    analysis,
    array_value: object,
    after_line: int,
    before_line: float,
) -> Optional[Tuple[int, str]]:
    """First statement in ``(after_line, before_line)`` mutating the array."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.stmt):
            continue
        line = getattr(node, "lineno", 0)
        if not (after_line < line < before_line):
            continue
        name = _mutated_name(node)
        if name is None:
            continue
        state = analysis.state_before(node)
        if state.get(name) == array_value:
            return line, name
    return None


def _mutated_name(stmt: ast.stmt) -> Optional[str]:
    """The base name an in-place array mutation targets (None otherwise)."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
        if isinstance(stmt, ast.AugAssign) and isinstance(target, ast.Name):
            return target.id
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in _MUTATING_METHODS
        and isinstance(stmt.value.func.value, ast.Name)
    ):
        return stmt.value.func.value.id
    return None


# -- public API --------------------------------------------------------------

def extract_schedule(paths: Sequence[str]) -> Schedule:
    """Rebuild the static communication schedule under ``paths``."""
    ws = _Workspace(paths)
    return _schedule_from(ws)


def _schedule_from(ws: _Workspace) -> Schedule:
    schedule = Schedule(n_files=len(ws.modules), n_sites=len(ws.sites))
    groups = _group_sites(ws.sites)
    for site in ws.sites:
        if not site.declares:
            continue
        group = groups[(site.module.path, site.func_name)]
        for tag in sorted(site.tags):
            schedule.phases.append(
                PhaseInfo(
                    tag=tag,
                    path=site.module.path,
                    line=site.line,
                    func=site.func_name,
                    n_sends=sum(
                        1 for s in group if s.sends and tag in s.tags
                    ),
                    n_recvs=sum(
                        1 for s in group if s.recvs and tag in s.tags
                    ),
                )
            )
    for site in ws.sites:
        for kind, plays in (("send", site.sends), ("recv", site.recvs)):
            if not plays:
                continue
            for tag in sorted(site.tags) or [""]:
                schedule.flows.append(
                    MessageFlow(
                        kind=kind,
                        path=site.module.path,
                        line=site.line,
                        func=site.func_name,
                        tag=tag,
                        src=ws._site_rank(site, 0),
                        dst=ws._site_rank(site, 1),
                    )
                )
    schedule.phases.sort(key=lambda p: (p.path, p.line, p.tag))
    schedule.flows.sort(key=lambda f: (f.path, f.line, f.tag, f.kind))
    return schedule


def check_schedule(paths: Sequence[str]) -> List[Finding]:
    """Extract and verify the schedule; findings sorted deterministically."""
    ws = _Workspace(paths)
    findings: List[Finding] = []
    findings += _check_matched_pairs(ws)
    findings += _check_tag_disjointness(ws)
    findings += _check_recv_before_send(ws)
    findings += _check_buffer_mutation(ws)
    return sort_findings(findings)
