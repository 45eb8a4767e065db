"""AST lint driver: rule registry, pragma suppression, tree walking.

Rules live in :mod:`repro.analysis.rules`; each is a :class:`LintRule`
subclass registered with :func:`register`.  The driver parses every
Python file under the given paths once, hands the module AST to each
rule, and filters the findings through ``# repro: allow(RULE-ID)``
pragmas (a pragma on a ``def`` line suppresses the rule in the whole
function body — the escape hatch for deliberately-scalar reference
kernels).
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding, sort_findings
from repro.exceptions import AnalysisError

PRAGMA_PREFIX = "repro: allow("


class LintContext:
    """Everything a rule needs about one parsed module."""

    def __init__(self, path: str, rel_path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        #: path relative to the scan root, with forward slashes
        self.rel_path = rel_path
        self.source = source
        self.tree = tree

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    def finding(
        self, rule: "LintRule", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule.rule_id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 0),
            severity=rule.severity,
        )


class LintRule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``description`` and implement
    :meth:`check_module`, yielding :class:`Finding` values.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise AnalysisError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules(select: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Instantiate the registered rules (optionally a subset by id)."""
    import repro.analysis.rules  # noqa: F401 - triggers rule registration

    if select is None:
        ids = sorted(_REGISTRY)
    else:
        unknown = [r for r in select if r not in _REGISTRY]
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s) {unknown}; known: {sorted(_REGISTRY)}"
            )
        ids = list(select)
    return [_REGISTRY[i]() for i in ids]


def receiver_is_comm(func: ast.expr) -> bool:
    """``X.meth`` where the terminal name of ``X`` contains "comm"."""
    if not isinstance(func, ast.Attribute):
        return False
    base = func.value
    if isinstance(base, ast.Name):
        return "comm" in base.id.lower()
    if isinstance(base, ast.Attribute):
        return "comm" in base.attr.lower()
    return False


# -- pragma handling -------------------------------------------------------

def collect_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids allowed by ``# repro: allow(...)``."""
    pragmas: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(PRAGMA_PREFIX) or not text.endswith(")"):
                continue
            inner = text[len(PRAGMA_PREFIX):-1]
            ids = {r.strip() for r in inner.split(",") if r.strip()}
            if ids:
                pragmas.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass
    return pragmas


def _suppressed_ranges(
    tree: ast.Module, pragmas: Dict[int, Set[str]]
) -> List[Tuple[int, int, Set[str]]]:
    """(start, end, rule ids) ranges for pragmas sitting on ``def`` lines."""
    ranges: List[Tuple[int, int, Set[str]]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ids = pragmas.get(node.lineno)
            if ids:
                ranges.append((node.lineno, node.end_lineno or node.lineno, ids))
    return ranges


def _is_suppressed(
    finding: Finding,
    pragmas: Dict[int, Set[str]],
    ranges: List[Tuple[int, int, Set[str]]],
) -> bool:
    line_ids = pragmas.get(finding.line, set())
    if finding.rule in line_ids:
        return True
    for start, end, ids in ranges:
        if start <= finding.line <= end and finding.rule in ids:
            return True
    return False


# -- driving ---------------------------------------------------------------

def iter_python_files(paths: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Yield (file path, path relative to its scan root) pairs."""
    for path in paths:
        if os.path.isfile(path):
            yield path, os.path.basename(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        rel = os.path.relpath(full, path).replace(os.sep, "/")
                        yield full, rel
        else:
            raise AnalysisError(f"no such file or directory: {path!r}")


def lint_file(
    path: str, rel_path: str, rules: Sequence[LintRule]
) -> List[Finding]:
    """Lint one file with the given rules, applying pragma suppression."""
    with open(path, "r", encoding="utf8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PIC000",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
            )
        ]
    ctx = LintContext(path, rel_path, source, tree)
    pragmas = collect_pragmas(source)
    ranges = _suppressed_ranges(tree, pragmas)
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check_module(ctx):
            if not _is_suppressed(finding, pragmas, ranges):
                findings.append(finding)
    return findings


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every Python file under ``paths`` with the registered rules."""
    rules = registered_rules(select)
    findings: List[Finding] = []
    for path, rel in iter_python_files(paths):
        findings.extend(lint_file(path, rel, rules))
    return sort_findings(findings)
