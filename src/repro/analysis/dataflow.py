"""Constant resolution for the value-tracking rules: one binding, one value.

The AST lint rules started as pure pattern matchers; this module lets
PIC002 read a name as the constant it denotes, so a ``dtype=`` that is
``None`` in disguise is caught:

* **expression folding** (:func:`fold_expr`) — literals, tuples, and
  unary and binary arithmetic on numbers;
* **module constant environment** (:func:`build_module_env`) —
  module-level names assigned exactly once to a foldable expression,
  and the module's numpy import aliases (PIC007 reads those too);
* **function bodies** (:class:`FunctionAnalysis`) — the same rule inside
  a function: a local bound exactly once to a foldable expression is
  that value, and a parameter the body never binds is its folded
  default.

There is no control-flow graph: a name bound twice, by a loop, a
``with``, a walrus, ``del``, ``global`` / ``nonlocal``, an import or a
nested ``def``, is :data:`NONCONST` everywhere in the body.  Every
approximation errs that way, so a less precise answer is a missing
PIC002 finding, never a wrong constant.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple


class _NonConst:
    """The value is not a single compile-time constant."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NONCONST"


#: the unique non-constant sentinel (identity-compared everywhere)
NONCONST = _NonConst()

#: value types folding produces (all immutable)
_CONST_TYPES = (str, bytes, bool, int, float, complex, tuple, type(None))

#: default names recognized as the numpy module when no import is seen
DEFAULT_NUMPY_ALIASES = frozenset({"np", "numpy"})


# -- expression folding ------------------------------------------------------

def fold_expr(
    node: ast.AST, lookup: Callable[[str], Any]
) -> Tuple[bool, Any]:
    """Fold ``node`` to a compile-time value under ``lookup``.

    ``lookup(name)`` returns the value bound to a name (a constant or
    :data:`NONCONST`); it must raise ``KeyError`` for unknown names.
    Returns ``(True, value)`` on success and ``(False, None)`` when the
    expression is not provably constant.
    """
    try:
        value = _fold(node, lookup)
    except _FoldFailure:
        return False, None
    return True, value


class _FoldFailure(Exception):
    """Internal control flow of :func:`fold_expr` (never escapes)."""


def _fold(node: ast.AST, lookup: Callable[[str], Any]) -> Any:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        try:
            value = lookup(node.id)
        except KeyError:
            raise _FoldFailure from None
        if value is NONCONST:
            raise _FoldFailure
        return value
    if isinstance(node, ast.Tuple):
        return tuple(_fold(elt, lookup) for elt in node.elts)
    if isinstance(node, ast.UnaryOp):
        operand = _fold(node.operand, lookup)
        _require_scalar(operand)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return +operand
        if isinstance(node.op, ast.Not):
            return not operand
        raise _FoldFailure
    if isinstance(node, ast.BinOp):
        left = _fold(node.left, lookup)
        right = _fold(node.right, lookup)
        return _fold_binop(node.op, left, right)
    raise _FoldFailure


def _require_scalar(value: Any) -> None:
    if not isinstance(value, _CONST_TYPES):
        raise _FoldFailure


def _fold_binop(op: ast.operator, left: Any, right: Any) -> Any:
    _require_scalar(left)
    _require_scalar(right)
    if isinstance(left, (str, bytes)) or isinstance(right, (str, bytes)):
        raise _FoldFailure
    try:
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right
        if isinstance(op, ast.Mod):
            return left % right
    except (TypeError, ZeroDivisionError):
        raise _FoldFailure from None
    raise _FoldFailure


# -- module environment ------------------------------------------------------

class ModuleEnv:
    """Module-level constants and numpy aliases.

    ``constants`` keeps only names assigned exactly once at module level
    to an expression that folds; a reassignment evicts the name (the
    value is no longer a single constant).
    """

    def __init__(self) -> None:
        self.constants: Dict[str, Any] = {}
        self.numpy_aliases: Set[str] = set(DEFAULT_NUMPY_ALIASES)

    def lookup(self, name: str) -> Any:
        return self.constants[name]


def build_module_env(tree: ast.Module) -> ModuleEnv:
    """Scan a module body for constant bindings and import aliases."""
    env = ModuleEnv()
    assigned: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    env.numpy_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id in assigned:
                env.constants.pop(target.id, None)
                continue
            assigned.add(target.id)
            ok, value = fold_expr(node.value, env.lookup)
            if ok:
                env.constants[target.id] = value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None and node.target.id not in assigned:
                assigned.add(node.target.id)
                ok, value = fold_expr(node.value, env.lookup)
                if ok:
                    env.constants[node.target.id] = value
    return env


# -- function bodies ---------------------------------------------------------

#: statements and patterns whose ``name`` is a binding of their scope
#: (the match patterns exist from Python 3.10 on)
_NAMED_BINDERS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.ExceptHandler,
) + tuple(getattr(ast, n) for n in ("MatchAs", "MatchStar") if hasattr(ast, n))


def _bound_names(node: ast.AST) -> Iterable[str]:
    """The names one node binds: stores and ``del`` of a name, nested
    parameters, ``def`` / ``class`` / ``except ... as`` / match captures,
    imports, ``global`` and ``nonlocal``."""
    if isinstance(node, ast.Name):
        return () if isinstance(node.ctx, ast.Load) else (node.id,)
    if isinstance(node, ast.arg):
        return (node.arg,)
    if isinstance(node, _NAMED_BINDERS):
        return (node.name,) if node.name else ()
    if getattr(node, "rest", None):  # a match mapping's ``**rest``
        return (node.rest,)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return node.names
    return ()


def _target_paths(
    target: ast.expr, path: Tuple[Tuple[int, int], ...] = ()
) -> Iterable[Tuple[str, Tuple[Tuple[int, int], ...]]]:
    """``(name, path)`` per plain name of an assignment target; ``path``
    is the ``(index, arity)`` steps into the assigned tuple."""
    if isinstance(target, ast.Name):
        yield target.id, path
    elif isinstance(target, (ast.Tuple, ast.List)):
        arity = len(target.elts)
        for index, elt in enumerate(target.elts):
            yield from _target_paths(elt, path + ((index, arity),))


class FunctionAnalysis:
    """Constant resolution inside one function body (module docstring).

    A local bound exactly once — a name, or an element of a tuple
    target, of an assignment whose value folds — is that value; a
    parameter the body never binds is its default folded against the
    module.  Every other name the body binds
    is :data:`NONCONST`, and so is every name of ``enclosing`` (those
    an enclosing function binds); the rest resolve in the module.
    """

    def __init__(
        self,
        fn: ast.FunctionDef,
        env: ModuleEnv,
        enclosing: FrozenSet[str] = frozenset(),
    ) -> None:
        self.env = env
        args = fn.args
        named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        defaults = (
            [None] * (len(named) - len(args.kwonlyargs) - len(args.defaults))
            + list(args.defaults) + list(args.kw_defaults)
        )
        counts = Counter(
            a.arg for a in named + [args.vararg, args.kwarg] if a is not None
        )
        assigned: Dict[str, Tuple[ast.expr, Tuple[Tuple[int, int], ...]]] = {}
        for node in (sub for stmt in fn.body for sub in ast.walk(stmt)):
            counts.update(_bound_names(node))
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    for name, path in _target_paths(target):
                        assigned[name] = (node.value, path)
        #: every name this body or an enclosing function binds
        self.bound: FrozenSet[str] = frozenset(counts) | enclosing
        self._assigned = {n: a for n, a in assigned.items() if counts[n] == 1}
        self._values: Dict[str, Any] = {
            name: NONCONST for name in self.bound if name not in self._assigned
        }
        for arg, default in zip(named, defaults):
            if counts[arg.arg] == 1 and default is not None:
                ok, value = fold_expr(default, env.lookup)
                self._values[arg.arg] = value if ok else NONCONST

    def lookup(self, name: str) -> Any:
        """The value of ``name`` in this body (``KeyError``: unknown)."""
        if name not in self._values:
            if name not in self._assigned:
                return self.env.lookup(name)
            self._values[name] = NONCONST  # a binding that reads itself
            expr, path = self._assigned[name]
            ok, value = fold_expr(expr, self.lookup)
            for index, arity in path:
                if not (ok and isinstance(value, tuple) and len(value) == arity):
                    ok = False
                    break
                value = value[index]
            self._values[name] = value if ok else NONCONST
        return self._values[name]

    def resolve(self, expr: ast.expr) -> Tuple[bool, Any]:
        """Fold ``expr`` as read anywhere in this body."""
        return fold_expr(expr, self.lookup)


# -- whole-module façade -----------------------------------------------------

class ModuleAnalysis:
    """Lazy per-function :class:`FunctionAnalysis` over one parsed module."""

    def __init__(self, tree: ast.Module, env: Optional[ModuleEnv] = None) -> None:
        self.tree = tree
        self.env = env if env is not None else build_module_env(tree)
        #: innermost enclosing function def of every AST node (the walk
        #: is breadth-first, so an inner def overwrites its outer one)
        self._fn_of: Dict[int, ast.FunctionDef] = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    if sub is not fn:
                        self._fn_of[id(sub)] = fn
        self._analyses: Dict[int, FunctionAnalysis] = {}

    def function_analysis(self, fn: ast.FunctionDef) -> FunctionAnalysis:
        if id(fn) not in self._analyses:
            outer = self._fn_of.get(id(fn))
            enclosing = (
                self.function_analysis(outer).bound if outer else frozenset()
            )
            self._analyses[id(fn)] = FunctionAnalysis(fn, self.env, enclosing)
        return self._analyses[id(fn)]

    def enclosing_function(self, node: ast.AST) -> Optional[ast.FunctionDef]:
        """The innermost function definition containing ``node`` (or None)."""
        return self._fn_of.get(id(node))

    def resolve(self, expr: ast.expr) -> Tuple[bool, Any]:
        """Fold ``expr`` wherever it sits: function body or module level."""
        fn = self._fn_of.get(id(expr))
        if fn is not None:
            return self.function_analysis(fn).resolve(expr)
        return fold_expr(expr, self.env.lookup)
