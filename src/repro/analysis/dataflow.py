"""Intraprocedural dataflow: a statement-level CFG with constant propagation.

The AST lint rules started as pure pattern matchers; this module gives
them (and the static communication-schedule verifier,
:mod:`repro.analysis.commstatic`) actual *value tracking*:

* **constant propagation** over a per-function control-flow graph — a
  flat lattice (undefined → constant → non-constant) joined at branch
  merges and loop heads, so ``tag = PREFIX + ":fold"`` resolves to the
  string it denotes on every path that reaches a ``comm.exchange``;
* **module constant environment** — module-level ``NAME = <literal>``
  bindings (and numpy import aliases) visible to every function, which
  is how default parameter values like ``tag=HALO_TAG_PREFIX + ":fold"``
  fold to concrete tags;
* **reaching allocations and buffer aliasing** — ``np.zeros``-family
  calls produce an :class:`ArrayValue` carrying the allocation site and
  its dtype expression; plain-name assignment propagates the *same*
  value, so ``alias = buf`` is visible to checks that care whether two
  names denote one buffer (the send-buffer mutation race, COMM010); a
  ``Message(header, [buf, ...])`` construction — or a ``{pair: message}``
  dict literal of them — produces a :class:`MessageValue` naming those
  same values, so the race check sees through the wire-format wrapper.

The engine is deliberately modest: intraprocedural, immutable values
only (strings, numbers, tuples, ``None``), and a conservative join —
anything it cannot prove constant becomes :data:`NONCONST`, never a
wrong constant.  ``try`` blocks are approximated (handlers are assumed
reachable from the block entry and exit), which is sound for the
constant queries the rules make.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import AnalysisError


class _NonConst:
    """Lattice bottom: the value is not a single compile-time constant."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NONCONST"


#: the unique non-constant sentinel (identity-compared everywhere)
NONCONST = _NonConst()

#: value types the constant lattice tracks (all immutable)
_CONST_TYPES = (str, bytes, bool, int, float, complex, tuple, type(None))


@dataclass(frozen=True)
class ArrayValue:
    """An abstract array: one allocation site plus its dtype expression.

    ``dtype`` is the source text of the allocation's dtype argument
    (``None`` when the allocation did not pin one); ``site`` is the line
    of the allocating call.  Aliasing assignments (``b = a``) propagate
    the *same* ``ArrayValue``, so two names comparing equal here denote
    the same underlying buffer.
    """

    site: int
    dtype: Optional[str] = None


@dataclass(frozen=True)
class MessageValue:
    """An abstract wire message: the arrays its ``Message(header,
    [buffers...])`` constructor call names.  The message holds those
    buffers by reference, so sending it puts every one of them in flight.
    """

    buffers: Tuple[ArrayValue, ...]


#: numpy allocator names that produce an :class:`ArrayValue`
_ALLOCATORS = {
    "zeros": 1, "empty": 1, "ones": 1, "full": 2,
    "array": None, "asarray": None, "zeros_like": None,
    "empty_like": None, "ones_like": None, "full_like": None,
}

#: default names recognized as the numpy module when no import is seen
DEFAULT_NUMPY_ALIASES = frozenset({"np", "numpy"})


# -- expression folding ------------------------------------------------------

def fold_expr(
    node: ast.AST, lookup: Callable[[str], Any]
) -> Tuple[bool, Any]:
    """Fold ``node`` to a compile-time value under ``lookup``.

    ``lookup(name)`` returns the value bound to a name (a constant, an
    :class:`ArrayValue`, or :data:`NONCONST`); it must raise ``KeyError``
    for unknown names.  Returns ``(True, value)`` on success and
    ``(False, None)`` when the expression is not provably constant.
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
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            elif isinstance(piece, ast.FormattedValue):
                if piece.format_spec is not None or piece.conversion not in (-1, 115):
                    raise _FoldFailure
                parts.append(str(_fold(piece.value, lookup)))
            else:
                raise _FoldFailure
        return "".join(parts)
    raise _FoldFailure


def _require_scalar(value: Any) -> None:
    if isinstance(value, ArrayValue) or not isinstance(value, _CONST_TYPES):
        raise _FoldFailure


def _fold_binop(op: ast.operator, left: Any, right: Any) -> Any:
    _require_scalar(left)
    _require_scalar(right)
    str_like = isinstance(left, (str, bytes))
    if isinstance(op, ast.Add):
        if str_like != isinstance(right, (str, bytes)):
            raise _FoldFailure
        return left + right
    if isinstance(op, ast.Mod) and str_like:
        try:
            return left % right
        except (TypeError, ValueError, KeyError):
            raise _FoldFailure from None
    if str_like or isinstance(right, (str, bytes)):
        raise _FoldFailure
    try:
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
    """Module-level constants, numpy aliases and ``from``-imports.

    ``constants`` keeps only names assigned exactly once at module level
    to an expression that folds; a reassignment evicts the name (the
    value is no longer a single constant).
    """

    def __init__(self) -> None:
        self.constants: Dict[str, Any] = {}
        self.numpy_aliases: Set[str] = set(DEFAULT_NUMPY_ALIASES)
        #: (module, name, local alias) triples of ``from m import n [as a]``
        self.imports_from: List[Tuple[str, str, str]] = []

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
        elif isinstance(node, ast.ImportFrom):
            if node.module and not node.level:
                for alias in node.names:
                    if alias.name != "*":
                        env.imports_from.append(
                            (node.module, alias.name, alias.asname or alias.name)
                        )
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


# -- the statement-level CFG -------------------------------------------------

class _CFG:
    """Successor edges between the statements of one function body."""

    def __init__(self) -> None:
        self.stmts: List[ast.stmt] = []
        self.succ: Dict[int, List[ast.stmt]] = {}
        self.entries: List[ast.stmt] = []

    def _edge(self, src: Optional[ast.stmt], dst: ast.stmt) -> None:
        if src is None:
            self.entries.append(dst)
        else:
            self.succ.setdefault(id(src), []).append(dst)

    def build(self, body: Sequence[ast.stmt]) -> None:
        self._seq(body, [None], [], [])

    def _seq(
        self,
        stmts: Sequence[ast.stmt],
        frontier: List[Optional[ast.stmt]],
        breaks: List[ast.stmt],
        continues: List[ast.stmt],
    ) -> List[Optional[ast.stmt]]:
        """Link ``stmts`` after ``frontier``; returns the new frontier."""
        for stmt in stmts:
            self.stmts.append(stmt)
            for pred in frontier:
                self._edge(pred, stmt)
            frontier = [stmt]
            if isinstance(stmt, ast.If):
                body_exit = self._seq(stmt.body, [stmt], breaks, continues)
                if stmt.orelse:
                    else_exit = self._seq(stmt.orelse, [stmt], breaks, continues)
                else:
                    else_exit = [stmt]
                frontier = body_exit + else_exit
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                inner_breaks: List[ast.stmt] = []
                inner_continues: List[ast.stmt] = []
                body_exit = self._seq(
                    stmt.body, [stmt], inner_breaks, inner_continues
                )
                for tail in body_exit + inner_continues:
                    self._edge(tail, stmt)  # back edge to the loop head
                if stmt.orelse:
                    else_exit = self._seq(stmt.orelse, [stmt], breaks, continues)
                else:
                    else_exit = [stmt]
                frontier = else_exit + inner_breaks
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                frontier = self._seq(stmt.body, [stmt], breaks, continues)
            elif isinstance(stmt, ast.Try):
                body_exit = self._seq(stmt.body, [stmt], breaks, continues)
                handler_exits: List[Optional[ast.stmt]] = []
                for handler in stmt.handlers:
                    handler_exits += self._seq(
                        handler.body, [stmt] + body_exit, breaks, continues
                    )
                if stmt.orelse:
                    body_exit = self._seq(stmt.orelse, body_exit, breaks, continues)
                frontier = body_exit + handler_exits
                if stmt.finalbody:
                    frontier = self._seq(stmt.finalbody, frontier, breaks, continues)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                frontier = []
            elif isinstance(stmt, ast.Break):
                breaks.append(stmt)
                frontier = []
            elif isinstance(stmt, ast.Continue):
                continues.append(stmt)
                frontier = []
        return frontier


# -- constant propagation over one function ----------------------------------

_State = Dict[str, Any]


def _merge(into: _State, other: _State) -> Tuple[_State, bool]:
    """Variable-wise lattice join; returns (merged, changed vs ``into``)."""
    merged = dict(into)
    changed = False
    for name, value in other.items():
        if name not in merged:
            merged[name] = value
            changed = True
        elif merged[name] is not value and merged[name] != value:
            if merged[name] is not NONCONST:
                merged[name] = NONCONST
                changed = True
    return merged, changed


class FunctionAnalysis:
    """Constant propagation over one function's statement-level CFG.

    Parameter defaults (folded against the module environment) seed the
    entry state — the right reading for schedule extraction, where a
    library-internal helper is almost always invoked with its defaults
    and explicit call-site values are layered on by
    :mod:`repro.analysis.commstatic`'s call-graph propagation.
    """

    def __init__(self, fn: ast.FunctionDef, env: ModuleEnv) -> None:
        self.fn = fn
        self.env = env
        self._cfg = _CFG()
        self._cfg.build(fn.body)
        #: innermost enclosing statement of every AST node in the body
        self._stmt_of: Dict[int, ast.stmt] = {}
        for stmt in self._cfg.stmts:
            for sub in ast.walk(stmt):
                self._stmt_of[id(sub)] = stmt
        self._state_in: Dict[int, _State] = {}
        self._run()

    # -- the worklist --------------------------------------------------------
    def _entry_state(self) -> _State:
        state: _State = {}
        args = self.fn.args
        positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
        defaults: List[Optional[ast.expr]] = (
            [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
        )
        for arg, default in zip(positional, defaults):
            state[arg.arg] = self._fold_default(default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            state[arg.arg] = self._fold_default(default)
        if args.vararg is not None:
            state[args.vararg.arg] = NONCONST
        if args.kwarg is not None:
            state[args.kwarg.arg] = NONCONST
        return state

    def _fold_default(self, default: Optional[ast.expr]) -> Any:
        if default is None:
            return NONCONST
        ok, value = fold_expr(default, self.env.lookup)
        return value if ok else NONCONST

    def _run(self) -> None:
        entry = self._entry_state()
        worklist: List[ast.stmt] = []
        for stmt in self._cfg.entries:
            self._state_in[id(stmt)] = dict(entry)
            worklist.append(stmt)
        iterations = 0
        limit = max(64, 16 * len(self._cfg.stmts) * (len(entry) + 8))
        while worklist:
            iterations += 1
            if iterations > limit:
                raise AnalysisError(
                    f"constant propagation did not converge in function "
                    f"{self.fn.name!r} (statement CFG of {len(self._cfg.stmts)})"
                )
            stmt = worklist.pop()
            out = self._transfer(stmt, self._state_in.get(id(stmt), {}))
            for succ in self._cfg.succ.get(id(stmt), ()):  # noqa: B020
                if id(succ) not in self._state_in:
                    self._state_in[id(succ)] = dict(out)
                    worklist.append(succ)
                else:
                    merged, changed = _merge(self._state_in[id(succ)], out)
                    if changed:
                        self._state_in[id(succ)] = merged
                        worklist.append(succ)

    # -- transfer function ---------------------------------------------------
    def _transfer(self, stmt: ast.stmt, state: _State) -> _State:
        out = dict(state)
        if isinstance(stmt, ast.Assign):
            value = self._rhs_value(stmt.value, out)
            for target in stmt.targets:
                self._bind_target(target, value, out)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(
                    stmt.target, self._rhs_value(stmt.value, out), out
                )
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = out.get(stmt.target.id, NONCONST)
                ok, rhs = fold_expr(stmt.value, _state_lookup(out, self.env))
                if current is not NONCONST and ok:
                    try:
                        out[stmt.target.id] = _fold_binop(stmt.op, current, rhs)
                    except _FoldFailure:
                        out[stmt.target.id] = NONCONST
                else:
                    out[stmt.target.id] = NONCONST
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(stmt.target, NONCONST, out)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, NONCONST, out)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name != "*":
                    out[alias.asname or alias.name.split(".")[0]] = NONCONST
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = NONCONST
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                out[name] = NONCONST
        return out

    def _rhs_value(self, expr: ast.expr, state: _State) -> Any:
        ok, value = fold_expr(expr, _state_lookup(state, self.env))
        if ok:
            return value
        allocation = self._array_allocation(expr)
        if allocation is not None:
            return allocation
        message = self._message_construction(expr, state)
        if message is not None:
            return message
        return NONCONST

    def _message_construction(
        self, expr: ast.expr, state: _State
    ) -> Optional[MessageValue]:
        """A :class:`MessageValue` when ``expr`` is ``Message(header,
        [a, b, ...])`` with the buffer list spelled as a literal, or a
        ``{pair: message, ...}`` dict literal of arrays / messages (what
        ``comm.exchange`` is handed): every buffer in it, flattened."""
        if isinstance(expr, ast.Dict):
            buffers: List[ArrayValue] = []
            for item in expr.values:
                value = self._rhs_value(item, state)
                if isinstance(value, ArrayValue):
                    buffers.append(value)
                elif isinstance(value, MessageValue):
                    buffers.extend(value.buffers)
            return MessageValue(tuple(buffers)) if buffers else None
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "Message"
        ):
            return None
        buffers = expr.args[1] if len(expr.args) > 1 else None
        for kw in expr.keywords:
            if kw.arg == "buffers":
                buffers = kw.value
        if not isinstance(buffers, (ast.List, ast.Tuple)):
            return None
        values = [
            state.get(elt.id) for elt in buffers.elts
            if isinstance(elt, ast.Name)
        ]
        return MessageValue(
            tuple(v for v in values if isinstance(v, ArrayValue))
        )

    def _array_allocation(self, expr: ast.expr) -> Optional[ArrayValue]:
        """An :class:`ArrayValue` when ``expr`` is a numpy allocator call."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _ALLOCATORS
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in self.env.numpy_aliases
        ):
            return None
        dtype_src: Optional[str] = None
        for kw in expr.keywords:
            if kw.arg == "dtype":
                dtype_src = ast.unparse(kw.value)
        if dtype_src is None:
            dtype_pos = _ALLOCATORS[expr.func.attr]
            if dtype_pos is not None and len(expr.args) > dtype_pos:
                dtype_src = ast.unparse(expr.args[dtype_pos])
        return ArrayValue(site=expr.lineno, dtype=dtype_src)

    def _bind_target(self, target: ast.expr, value: Any, state: _State) -> None:
        if isinstance(target, ast.Name):
            state[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: Sequence[Any]
            if isinstance(value, tuple) and len(value) == len(target.elts):
                elements = value
            else:
                elements = [NONCONST] * len(target.elts)
            for elt, sub in zip(target.elts, elements):
                self._bind_target(elt, sub, state)
        # Subscript/Attribute stores mutate an object, not a binding.

    # -- queries -------------------------------------------------------------
    def state_before(self, node: ast.AST) -> _State:
        """The constant state flowing into ``node``'s enclosing statement."""
        stmt = self._stmt_of.get(id(node))
        if stmt is None:
            return {}
        return self._state_in.get(id(stmt), {})

    def resolve(self, expr: ast.expr) -> Tuple[bool, Any]:
        """Fold ``expr`` in the state reaching its enclosing statement."""
        state = self.state_before(expr)
        return fold_expr(expr, _state_lookup(state, self.env))

    def value_of(self, expr: ast.expr) -> Any:
        """The abstract value of ``expr`` where it sits: a constant, an
        :class:`ArrayValue`, a :class:`MessageValue` or :data:`NONCONST`."""
        return self._rhs_value(expr, self.state_before(expr))


def _state_lookup(state: _State, env: ModuleEnv) -> Callable[[str], Any]:
    def lookup(name: str) -> Any:
        if name in state:
            return state[name]
        return env.lookup(name)

    return lookup


# -- whole-module façade -----------------------------------------------------

class ModuleAnalysis:
    """Lazy per-function :class:`FunctionAnalysis` over one parsed module."""

    def __init__(self, tree: ast.Module, env: Optional[ModuleEnv] = None) -> None:
        self.tree = tree
        self.env = env if env is not None else build_module_env(tree)
        #: innermost enclosing function def of every AST node
        self._fn_of: Dict[int, ast.FunctionDef] = {}
        for fn in iter_functions(tree):
            for sub in ast.walk(fn):
                if sub is not fn:
                    self._fn_of[id(sub)] = fn
        self._analyses: Dict[int, FunctionAnalysis] = {}

    def function_analysis(self, fn: ast.FunctionDef) -> FunctionAnalysis:
        if id(fn) not in self._analyses:
            self._analyses[id(fn)] = FunctionAnalysis(fn, self.env)
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


def iter_functions(tree: ast.Module) -> Iterable[ast.FunctionDef]:
    """Every (sync) function definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node
