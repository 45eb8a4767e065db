"""PIC002: field allocations must pin their dtype explicitly.

The paper runs WarpX in double and mixed precision; silently inheriting
NumPy's default dtype is how a mixed-precision build ends up doing
double-precision halo exchanges.  Every ``np.zeros``/``np.empty``
allocation must say what it allocates — either a ``dtype=`` keyword or
the positional dtype argument.  ``zeros_like``/``empty_like`` inherit
their prototype's dtype and are exempt by construction.

The rule is value-tracking, not pattern-matching: numpy import aliases
are discovered from the module (``import numpy as xp`` is recognized,
unioned with the conventional ``np``/``numpy`` so snippets without
imports still lint), and a ``dtype=`` argument that
:mod:`repro.analysis.dataflow` proves to be ``None`` — directly or
through a chain of single-binding constants and parameter defaults — is
flagged exactly like a missing one: ``dtype=None`` *is* the numpy
default.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.dataflow import (
    DEFAULT_NUMPY_ALIASES,
    ModuleAnalysis,
    build_module_env,
)
from repro.analysis.findings import Finding
from repro.analysis.linter import LintContext, LintRule, register

ALLOCATORS = ("zeros", "empty")
NUMPY_ALIASES = tuple(sorted(DEFAULT_NUMPY_ALIASES))


@register
class ExplicitDtypeRule(LintRule):
    rule_id = "PIC002"
    description = "np.zeros/np.empty must pass an explicit (non-None) dtype"

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        env = build_module_env(ctx.tree)
        analysis: Optional[ModuleAnalysis] = None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in env.numpy_aliases
            ):
                continue
            dtype_expr: Optional[ast.expr] = None
            if len(node.args) >= 2:
                dtype_expr = node.args[1]
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dtype_expr = kw.value
            if dtype_expr is None:
                yield ctx.finding(
                    self,
                    node,
                    f"np.{func.attr} without explicit dtype "
                    "(pass dtype=... so precision is pinned)",
                )
                continue
            # constants resolve through single assignments and parameter
            # defaults; a provable None is the numpy default in disguise
            if analysis is None:
                analysis = ModuleAnalysis(ctx.tree, env)
            ok, value = analysis.resolve(dtype_expr)
            if ok and value is None:
                yield ctx.finding(
                    self,
                    node,
                    f"np.{func.attr} dtype resolves to None — that is the "
                    "numpy default, not an explicit precision; pin a real "
                    "dtype",
                )
