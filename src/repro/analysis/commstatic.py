"""Static verification of the ``comm.exchange`` sites of a source tree.

Every exchange phase of the shipped tree is one
:meth:`SimComm.exchange <repro.parallel.comm.SimComm.exchange>` call —
``with comm.exchange(tag, pairs, outgoing) as received: ...`` — which
declares the phase, posts every send before the first receive and
closes the phase after its ``with`` body.  The raw ``send`` / ``recv`` /
``begin_phase`` / ``end_phase`` calls underneath it are lint rule PIC008
anywhere in the scanned tree, so this module models only ``exchange``
sites: any call of it on a receiver whose name contains ``comm``.

Each site is one phase of the calling function under its tag, resolved
by the constant-propagation engine of :mod:`repro.analysis.dataflow`
plus a call-graph propagation for tags passed down through parameters
(how ``_run_exchange``'s bare ``tag`` parameter resolves to
``"halo:fold"`` and ``"halo:fields"`` from its two wrappers, and to
``"halo:sources"`` from the driver that passes that tag explicitly over
``exchange_halos``'s default).  The extracted schedule is then verified:

======   =================================================================
COMM006  unresolvable tag (a warning): an ``exchange`` site whose tag the
         engine cannot fold to a string — the schedule is unverifiable
         there, which is reported rather than guessed at.
COMM007  cross-phase tag collision: two distinct ``exchange`` sites
         declare the same tag (e.g. a migration reusing a halo tag) —
         their in-flight messages would be indistinguishable.
COMM010  send-buffer mutation: an array inside the ``{pair: message}``
         dict handed to ``exchange`` — sent bare or as a buffer of a
         ``Message(...)`` — is mutated (directly or through an alias)
         before the ``with`` body the call heads ends: loopback hands the
         receiver the sender's very arrays, the process transport a copy
         made at ``send``, so the two transports diverge.
======   =================================================================

Unmatched tags and recv-before-send orderings cannot be written with
``exchange`` (one call is both ends of its tag, sends first).

Approximations (documented, deliberate): a parameter resolves to its
default *and* to whatever call sites pass for it explicitly, unless the
function rebinds it; module constants follow ``from module import
NAME`` inside the scanned tree; the in-flight window of COMM010 is
lexical.

The collectives outside ``exchange`` (``allreduce_sum``, ``barrier``)
are out of this verifier's scope: the COMM004 / COMM005 replay of
:mod:`repro.analysis.commcheck` covers them, next to its COMM007 /
COMM009 / COMM010 replay of a *recorded* event log.
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
from repro.analysis.linter import iter_python_files, receiver_is_comm

#: in-place array mutators recognized by the buffer-mutation check
_MUTATING_METHODS = frozenset({"fill", "sort", "resize", "put", "partition"})

#: rule id, one-line description (for ``--list-rules``)
STATIC_RULES = (
    ("COMM006", "exchange site whose tag cannot be statically resolved "
                "(a warning: the schedule is unverifiable there)"),
    ("COMM007", "two exchange phases declare the same tag (cross-phase "
                "namespace collision)"),
    ("COMM010", "exchange send buffer mutated (directly or via an alias) "
                "while the message is in flight"),
)


@dataclass(frozen=True)
class PhaseInfo:
    """One exchange phase: an ``exchange`` site under one tag value."""

    tag: str
    path: str
    line: int
    func: str


@dataclass
class Schedule:
    """The statically extracted communication schedule of a source tree."""

    phases: List[PhaseInfo] = field(default_factory=list)
    n_files: int = 0
    n_sites: int = 0

    def tags(self) -> List[str]:
        return sorted({p.tag for p in self.phases})


@dataclass
class _Site:
    """One ``comm.exchange`` call site, pre-resolution."""

    call: ast.Call
    line: int
    module: "_Module"
    fn: Optional[ast.FunctionDef]
    tags: FrozenSet[str] = frozenset()

    @property
    def func_name(self) -> str:
        return self.fn.name if self.fn is not None else "<module>"


class _Module:
    """One parsed source file plus its dataflow analysis and call index."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.analysis = ModuleAnalysis(tree)
        #: every Name-call in the module: callee name -> [(call, encl fn)]
        self.calls: Dict[str, List[Tuple[ast.Call, Optional[ast.FunctionDef]]]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                self.calls.setdefault(node.func.id, []).append(
                    (node, self.analysis.enclosing_function(node))
                )


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
    params = _positional_params(fn)
    return _call_arg(call, name, params.index(name) if name in params else None)


def _call_arg(
    call: ast.Call, keyword: str, index: Optional[int]
) -> Optional[ast.expr]:
    """Argument ``keyword``/positional ``index`` of a call (None if absent)."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if index is not None and index < len(call.args) and not any(
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
                    and node.func.attr == "exchange"
                    and receiver_is_comm(node.func)
                ):
                    self.sites.append(
                        _Site(
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
        expr = _call_arg(site.call, "tag", 0)
        if expr is None:
            return set()
        values = self.resolve_values(site.module, site.fn, expr)
        return {v for v in values if isinstance(v, str)}


# -- checks ------------------------------------------------------------------

def _check_resolved_tags(ws: _Workspace) -> List[Finding]:
    """COMM006 (warning): an ``exchange`` site whose tag never resolves."""
    return [
        Finding(
            rule="COMM006",
            message=(
                f"cannot statically resolve the tag of this exchange in "
                f"{site.func_name!r}; the schedule is unverifiable at this "
                "site"
            ),
            path=site.module.path,
            line=site.line,
            severity=Severity.WARNING,
        )
        for site in ws.sites
        if not site.tags
    ]


def _check_tag_disjointness(ws: _Workspace) -> List[Finding]:
    """COMM007: no two phase declarations may claim the same tag."""
    findings: List[Finding] = []
    claims: Dict[str, List[_Site]] = {}
    for site in ws.sites:
        for tag in site.tags:
            claims.setdefault(tag, []).append(site)
    for tag, sites in sorted(claims.items()):
        distinct = sorted({(s.module.path, s.line) for s in sites})
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


def _check_buffer_mutation(ws: _Workspace) -> List[Finding]:
    """COMM010 (static): payload arrays mutated while the message flies."""
    findings: List[Finding] = []
    for site in ws.sites:
        if site.fn is None:
            continue
        payload = _call_arg(site.call, "outgoing", 2)
        if payload is None:
            continue
        analysis = site.module.analysis.function_analysis(site.fn)
        label = payload.id if isinstance(payload, ast.Name) else "Message(...)"
        in_flight_until = _phase_close_line(site)
        for value in _buffers_in_flight(analysis.value_of(payload)):
            mutation = _find_mutation(
                site.fn, analysis, value, site.line, in_flight_until
            )
            if mutation is None:
                continue
            line, name = mutation
            via = f"via alias {name!r}" if name != label else f"through {name!r}"
            findings.append(
                Finding(
                    rule="COMM010",
                    message=(
                        f"send buffer {label!r} (sent at line {site.line} in "
                        f"{site.func_name!r}) is mutated {via} while the "
                        "message is in flight — the payload is corrupted "
                        "before it is received"
                    ),
                    path=site.module.path,
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
    schedule = Schedule(n_files=len(ws.modules), n_sites=len(ws.sites))
    for site in ws.sites:
        for tag in sorted(site.tags):
            schedule.phases.append(
                PhaseInfo(
                    tag=tag,
                    path=site.module.path,
                    line=site.line,
                    func=site.func_name,
                )
            )
    schedule.phases.sort(key=lambda p: (p.path, p.line, p.tag))
    return schedule


def check_schedule(paths: Sequence[str]) -> List[Finding]:
    """Extract and verify the schedule; findings sorted deterministically."""
    ws = _Workspace(paths)
    findings: List[Finding] = []
    findings += _check_resolved_tags(ws)
    findings += _check_tag_disjointness(ws)
    findings += _check_buffer_mutation(ws)
    return sort_findings(findings)
