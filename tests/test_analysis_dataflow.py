"""Constant resolution: folding, module constants, one binding per local."""

import ast

import pytest

from repro.analysis.dataflow import (
    DEFAULT_NUMPY_ALIASES,
    NONCONST,
    ModuleAnalysis,
    build_module_env,
    fold_expr,
)
from repro.analysis.linter import lint_paths


def analyze(source):
    tree = ast.parse(source)
    return ModuleAnalysis(tree)


def resolve_at(source, marker_func="f", var="x"):
    """Resolve ``var`` as read by the call to ``probe(var)`` in the source."""
    analysis = analyze(source)
    for node in ast.walk(analysis.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "probe"
        ):
            return analysis.resolve(node.args[0])
    raise AssertionError("no probe(...) call in source")


# -- expression folding ------------------------------------------------------

def test_fold_constants_and_arithmetic():
    env = {"P": "halo", "N": 4}
    lookup = env.__getitem__
    ok, value = fold_expr(ast.parse("P", mode="eval").body, lookup)
    assert (ok, value) == (True, "halo")
    ok, value = fold_expr(ast.parse("N * 2 + 1", mode="eval").body, lookup)
    assert (ok, value) == (True, 9)
    ok, value = fold_expr(ast.parse("(P, N)", mode="eval").body, lookup)
    assert (ok, value) == (True, ("halo", 4))
    ok, value = fold_expr(ast.parse("-N", mode="eval").body, lookup)
    assert (ok, value) == (True, -4)


def test_fold_fails_on_unknown_names_and_mixed_types():
    """String operators and f-strings do not fold: no rule needs a
    computed string."""
    lookup = {"S": "a"}.__getitem__
    for source in ("unknown + 1", "S + 1", "1 // 0", "S + 'b'", "S % ()",
                   "f'{S}:b'"):
        ok, _ = fold_expr(ast.parse(source, mode="eval").body, lookup)
        assert not ok, source


def test_fold_nonconst_poisons():
    lookup = {"x": NONCONST}.__getitem__
    ok, _ = fold_expr(ast.parse("x + 'a'", mode="eval").body, lookup)
    assert not ok


# -- module environment ------------------------------------------------------

def test_module_env_constants_and_chaining():
    env = build_module_env(ast.parse(
        "PREFIX = 'halo'\n"
        "N = 4 * 2\n"
        "M = N + 1\n"
    ))
    assert env.constants == {"PREFIX": "halo", "N": 8, "M": 9}


def test_module_env_reassignment_evicts():
    env = build_module_env(ast.parse("X = 1\nX = 2\n"))
    assert "X" not in env.constants


def test_module_env_discovers_numpy_aliases():
    env = build_module_env(ast.parse("import numpy as xp\n"))
    assert "xp" in env.numpy_aliases
    assert DEFAULT_NUMPY_ALIASES <= env.numpy_aliases


# -- function-level constant propagation -------------------------------------

def test_straight_line_propagation():
    ok, value = resolve_at(
        "def f():\n"
        "    a = 4\n"
        "    x = a * 2\n"
        "    probe(x)\n"
    )
    assert (ok, value) == (True, 8)


def test_branch_join_different_constants_are_nonconst():
    ok, _ = resolve_at(
        "def f(c):\n"
        "    x = 1\n"
        "    if c:\n"
        "        x = 2\n"
        "    probe(x)\n"
    )
    assert not ok


def test_loop_reassignment_reaches_fixpoint_as_nonconst():
    ok, _ = resolve_at(
        "def f(n):\n"
        "    x = 0\n"
        "    for i in range(n):\n"
        "        x = x + 1\n"
        "    probe(x)\n"
    )
    assert not ok


def test_constant_inside_loop_stays_constant():
    ok, value = resolve_at(
        "def f(n):\n"
        "    tag = 'ring'\n"
        "    for i in range(n):\n"
        "        probe(tag)\n"
    )
    assert (ok, value) == (True, "ring")


def test_param_default_seeds_entry_state():
    ok, value = resolve_at(
        "WIDTH = 2\n"
        "def f(n=WIDTH + 1):\n"
        "    probe(n)\n"
    )
    assert (ok, value) == (True, 3)


def test_param_without_default_is_nonconst():
    ok, _ = resolve_at("def f(tag):\n    probe(tag)\n")
    assert not ok


def test_tuple_unpacking_binds_elementwise():
    ok, value = resolve_at(
        "def f():\n"
        "    a, x = 1, 'two'\n"
        "    probe(x)\n"
    )
    assert (ok, value) == (True, "two")


def test_try_handler_joins_conservatively():
    ok, _ = resolve_at(
        "def f():\n"
        "    x = 1\n"
        "    try:\n"
        "        x = 2\n"
        "    except ValueError:\n"
        "        pass\n"
        "    probe(x)\n"
    )
    assert not ok  # handler may run before or after the reassignment


# -- module façade -----------------------------------------------------------

def test_module_level_expressions_resolve_against_env():
    analysis = analyze("P = 3\nQ = P * 2\n")
    assign = analysis.tree.body[1]
    ok, value = analysis.resolve(assign.value)
    assert (ok, value) == (True, 6)


def test_enclosing_function_mapping():
    analysis = analyze(
        "def outer():\n"
        "    def inner():\n"
        "        x = 1\n"
        "    y = 2\n"
    )
    outer = analysis.tree.body[0]
    inner = outer.body[0]
    assert analysis.enclosing_function(inner.body[0]) is inner
    assert analysis.enclosing_function(outer.body[1]) is outer
    assert analysis.enclosing_function(outer) is None


def test_analysis_is_deterministic_and_cached():
    source = (
        "def f(c):\n"
        "    x = 'a'\n"
        "    if c:\n"
        "        x = x + 'b'\n"
        "    probe(x)\n"
    )
    analysis = analyze(source)
    fn = analysis.tree.body[0]
    assert analysis.function_analysis(fn) is analysis.function_analysis(fn)


# -- soundness net: every other binding of a local is NONCONST ---------------

#: (extra parameters, body lines) of ``f`` per binding form of ``x``; ``V``
#: is the value a naive reading would give ``x`` (also bound at module
#: level, so a form the analysis missed would resolve to it)
BINDING_FORMS = {
    "second-assignment": ("", ["x = V", "x = V"]),
    "augmented-assignment": ("", ["x = V", "x += V"]),
    "for-target": ("", ["for x in (V,):", "    pass"]),
    "with-target": ("", ["with ctx(V) as x:", "    pass"]),
    "walrus-target": ("", ["if (x := V):", "    pass"]),
    "del": ("", ["x = V", "del x"]),
    "global": ("", ["global x", "x = V"]),
    "nonlocal": ("", ["nonlocal x", "x = V"]),
    "import": ("", ["from consts import x"]),
    "nested-def": ("", ["def x():", "    return V"]),
    "rebound-parameter": (", x=V", ["x = V"]),
    "tuple-unpacking-of-a-non-tuple": ("", ["a, x = [V, V]"]),
    "self-reference": ("", ["x = x + V"]),
}


def binding_source(form, value, use):
    params, body = BINDING_FORMS[form] if form else ("", ["x = V"])
    lines = ["import numpy as np", "x = V", f"def f(comm, pairs, out{params}):"]
    lines += ["    " + line for line in body] + ["    " + use]
    return "\n".join(lines).replace("V", value) + "\n"


@pytest.mark.parametrize("form", sorted(BINDING_FORMS))
def test_every_other_binding_of_a_local_is_nonconst(tmp_path, form):
    """Only a local bound exactly once to a foldable value is that value:
    anything else is NONCONST — no PIC002 finding for a ``dtype=x`` whose
    every binding is ``None`` — never the module's constant."""
    assert not resolve_at(binding_source(form, "'t'", "probe(x)"))[0]
    assert not resolve_at(binding_source(form, "None", "probe(x)"))[0]
    src = tmp_path / "mod.py"
    src.write_text(binding_source(form, "None", "return np.zeros(3, dtype=x)"))
    assert lint_paths([str(src)], select=["PIC002"]) == []


def test_a_single_binding_resolves_where_the_net_does_not(tmp_path):
    """The control of the net above: ``x = V`` once is ``V``."""
    assert resolve_at(binding_source(None, "'t'", "probe(x)")) == (True, "t")
    assert resolve_at(binding_source(None, "None", "probe(x)")) == (True, None)
    src = tmp_path / "mod.py"
    src.write_text(binding_source(None, "None", "return np.zeros(3, dtype=x)"))
    (finding,) = lint_paths([str(src)], select=["PIC002"])
    assert "resolves to None" in finding.message
