"""PIC006: kernel-phase work in the step drivers must be timed.

Every performance claim rests on the per-phase instrumentation: a kernel
call that runs outside a ``timers.timer(...)``/``stopwatch()``/
``tracer.span(...)``/``_phase(...)`` context is invisible to the Fig. 6
breakdown, the load balancer's measured-cost mode *and* the trace — an
untimed hot path.  This rule walks the step-driver methods of the
simulation modules (``_single_step``/``_step_body``/``_advance_levels``/
``_advance_subcycled_patches``) and flags any call
to a known kernel-phase entry point that is not lexically inside a timed
``with`` block.

Kernel *hook* methods themselves (``_deposit``, ...) are exempt: the
contract is that their call sites in the drivers are timed, which is
exactly what this rule checks.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.linter import LintContext, LintRule, register

#: modules holding a step driver (the PIC cycle orchestrators)
DRIVER_MODULE_BASENAMES = ("simulation.py", "distributed.py")

#: the step-driver methods whose bodies are checked
DRIVER_METHODS = frozenset(
    {
        "_single_step", "_step_body", "_advance_levels",
        "_advance_subcycled_patches",
    }
)

#: kernel-phase entry points (free functions and simulation hooks) whose
#: call sites inside a driver must be timed
KERNEL_CALLS = frozenset(
    {
        # simulation hooks
        "_deposit", "_smooth_sources", "_run_sanitizers",
        # particle kernels
        "advance_particles",
        "gather_fields", "push_boris", "push_vay", "push_positions",
        "deposit_current_esirkepov", "deposit_current_direct",
        "sort_species_by_bin", "smooth_binomial",
        # parallel substrate
        "assemble_global", "fold_sources_pairwise", "exchange_halos",
        "redistribute_particles", "migrate_boxes",
    }
)

#: context-manager call names that count as "timed"
TIMED_CONTEXTS = frozenset(
    {"timer", "stopwatch", "span", "_phase", "phase_span"}
)


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _with_is_timed(node: ast.With) -> bool:
    for item in node.items:
        for sub in ast.walk(item.context_expr):
            if isinstance(sub, ast.Call) and _call_name(sub) in TIMED_CONTEXTS:
                return True
    return False


def _kernel_calls_in_expr(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_name(sub) in KERNEL_CALLS:
            yield sub


def _walk_stmts(stmts, timed: bool) -> Iterator[ast.Call]:
    """Yield untimed kernel calls, tracking the enclosing timed contexts."""
    for stmt in stmts:
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                if not timed:
                    yield from _kernel_calls_in_expr(item.context_expr)
            yield from _walk_stmts(stmt.body, timed or _with_is_timed(stmt))
        elif isinstance(stmt, (ast.For, ast.While)):
            if not timed:
                yield from _kernel_calls_in_expr(stmt.iter if isinstance(stmt, ast.For) else stmt.test)
            yield from _walk_stmts(stmt.body, timed)
            yield from _walk_stmts(stmt.orelse, timed)
        elif isinstance(stmt, ast.If):
            if not timed:
                yield from _kernel_calls_in_expr(stmt.test)
            yield from _walk_stmts(stmt.body, timed)
            yield from _walk_stmts(stmt.orelse, timed)
        elif isinstance(stmt, ast.Try):
            yield from _walk_stmts(stmt.body, timed)
            for handler in stmt.handlers:
                yield from _walk_stmts(handler.body, timed)
            yield from _walk_stmts(stmt.orelse, timed)
            yield from _walk_stmts(stmt.finalbody, timed)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested helper is its own scope; call sites are what count
            continue
        elif not timed:
            yield from _kernel_calls_in_expr(stmt)


@register
class UntimedKernelPhaseRule(LintRule):
    rule_id = "PIC006"
    description = (
        "kernel-phase calls in step drivers must run under a "
        "timers.timer()/stopwatch()/span()/_phase() context"
    )

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        if ctx.basename not in DRIVER_MODULE_BASENAMES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in DRIVER_METHODS:
                continue
            for call in _walk_stmts(node.body, timed=False):
                yield ctx.finding(
                    self,
                    call,
                    f"kernel-phase call {_call_name(call)}() in "
                    f"{node.name}() runs outside a timer/span context; "
                    "wrap it in timers.timer(...), stopwatch() or a span",
                )
