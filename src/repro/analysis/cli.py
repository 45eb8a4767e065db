"""Command-line driver: ``python -m repro.analysis [paths...]``.

Runs the registered lint rules *and* the static ``comm.exchange``
verifier (:mod:`repro.analysis.commstatic`) over the given
files/directories (default: ``src/repro``, falling back to the
installed package location) and reports findings as
``path:line: [severity] RULE-ID message`` — or as one JSON object with
``--format json`` so CI can annotate PRs.  Recorded SimComm event logs
(see :mod:`repro.observability.commlog`) can be replayed through the
protocol and happens-before checkers with ``--comm-log``.

A ``--baseline`` file (JSON: ``{"findings": [{"rule": ..., "path":
...}]}``) suppresses known findings by (rule id, path suffix), which is
how the CI gate fails only on *new* findings.  Exits 1 when any
error-severity finding survives, 2 on an analysis failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.commstatic import STATIC_RULES, check_schedule
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.linter import lint_paths, registered_rules
from repro.exceptions import AnalysisError


def _default_paths() -> List[str]:
    """``src/repro`` under the current directory, else the package itself."""
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="PIC-aware static analysis over the repro source tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable or comma-separated, "
             "e.g. --select PIC002,COMM007)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of known findings to suppress (CI gates on "
             "new findings only)",
    )
    parser.add_argument(
        "--comm-log",
        action="append",
        metavar="FILE",
        help="replay a recorded SimComm event log (JSONL) through the "
             "protocol and happens-before checkers (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-finding lines, print only the summary",
    )
    return parser


#: runtime/replay rules that live outside the static passes: the
#: commcheck protocol + happens-before replay (COMM/RES) and the step
#: sanitizers (SAN)
RUNTIME_RULES = (
    ("COMM001", "unreceived messages (send without a matching recv)"),
    ("COMM002", "tag mismatch on a failed recv"),
    ("COMM003", "self-send (src == dst)"),
    ("COMM004", "collective-count divergence across ranks"),
    ("COMM005", "barrier-count divergence across ranks"),
    ("COMM007", "exchange phase begins while same-tag messages are in "
                "flight (phase overlap)"),
    ("COMM009", "ordered fold applied out of canonical order"),
    ("COMM010", "apply raced in-flight messages of its own phase"),
    ("RES001", "injected message fault without a matching recovery"),
    ("RES002", "rank failure without a checkpoint restore"),
    ("SAN001", "non-finite field values after the solve"),
    ("SAN002", "particles outside the domain after boundaries"),
    ("SAN003", "guard cells diverge from their periodic image"),
    ("SAN004", "communicator not quiescent between steps"),
    ("SAN005", "gather/deposit stencil outside the padded field array"),
)


def _print_rules(stream) -> None:
    for rule in registered_rules():
        print(f"{rule.rule_id}  [{rule.severity}]  {rule.description}",
              file=stream)
    for rule_id, description in STATIC_RULES:
        print(f"{rule_id}  [static]  {description}", file=stream)
    for rule_id, description in RUNTIME_RULES:
        kind = "replay" if rule_id[:3] in ("COM", "RES") else "runtime"
        print(f"{rule_id}  [{kind}]  {description}", file=stream)


def _partition_select(
    select: Optional[Sequence[str]],
) -> Tuple[Optional[List[str]], Optional[Set[str]]]:
    """Split ``--select`` into lint-registry ids and a global id filter.

    Returns ``(lint_select, keep_ids)``: ``lint_select`` is passed to
    the lint registry (None = all; empty list = skip linting); the
    ``keep_ids`` set filters commstatic/replay findings (None = keep
    all).  Unknown ids raise :class:`AnalysisError`.
    """
    if not select:
        return None, None
    select = [
        rule_id.strip()
        for entry in select
        for rule_id in entry.split(",")
        if rule_id.strip()
    ]
    lint_ids = {rule.rule_id for rule in registered_rules()}
    known = (
        lint_ids
        | {rule_id for rule_id, _ in STATIC_RULES}
        | {rule_id for rule_id, _ in RUNTIME_RULES}
    )
    unknown = sorted(set(select) - known)
    if unknown:
        raise AnalysisError(f"unknown rule id(s) in --select: {unknown}")
    return [s for s in select if s in lint_ids], set(select)


def _load_baseline(path: str) -> List[Tuple[str, str]]:
    """(rule id, path suffix) pairs of findings the baseline accepts."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read baseline {path!r}: {exc}")
    entries = data.get("findings") if isinstance(data, dict) else None
    if entries is None:
        raise AnalysisError(
            f"baseline {path!r} must be a JSON object with a 'findings' list"
        )
    pairs: List[Tuple[str, str]] = []
    for entry in entries:
        try:
            pairs.append((str(entry["rule"]), str(entry["path"])))
        except (TypeError, KeyError):
            raise AnalysisError(
                f"baseline {path!r}: each finding needs 'rule' and 'path'"
            )
    return pairs


def _apply_baseline(
    findings: Sequence[Finding], baseline: Sequence[Tuple[str, str]]
) -> List[Finding]:
    """Drop findings the baseline accepts (matched by rule + path suffix).

    Line numbers are deliberately ignored: a baseline must keep
    suppressing a known finding when unrelated edits shift it.
    """
    kept = []
    for finding in findings:
        suppressed = any(
            finding.rule == rule
            and (finding.path == path or finding.path.endswith(path))
            for rule, path in baseline
        )
        if not suppressed:
            kept.append(finding)
    return kept


def _replay_logs(paths: Sequence[str]) -> List[Finding]:
    from repro.analysis.commcheck import check_all
    from repro.observability.commlog import read_comm_log

    findings: List[Finding] = []
    for path in paths:
        replay = read_comm_log(path)
        report = check_all(replay)
        for finding in report.findings:
            # re-anchor provenance to the log file (line = event index)
            findings.append(
                Finding(
                    rule=finding.rule,
                    message=finding.message,
                    path=path,
                    line=finding.line,
                    severity=finding.severity,
                )
            )
    return findings


def render_report(findings: Sequence[Finding], quiet: bool, stream) -> None:
    if not quiet:
        for finding in findings:
            print(finding.format(), file=stream)
    n_err = sum(1 for f in findings if f.severity == Severity.ERROR)
    n_warn = len(findings) - n_err
    if findings:
        print(
            f"repro.analysis: {n_err} error(s), {n_warn} warning(s)",
            file=stream,
        )
    else:
        print("repro.analysis: clean", file=stream)


def render_json(findings: Sequence[Finding], stream) -> None:
    n_err = sum(1 for f in findings if f.severity == Severity.ERROR)
    payload = {
        "tool": "repro.analysis",
        "errors": n_err,
        "warnings": len(findings) - n_err,
        "findings": [
            {
                "rule": f.rule,
                "severity": str(f.severity),
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in findings
        ],
    }
    print(json.dumps(payload, indent=2, sort_keys=True), file=stream)


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules(stream)
        return 0
    paths = args.paths or _default_paths()
    try:
        lint_select, keep_ids = _partition_select(args.select)
        findings: List[Finding] = []
        if lint_select is None or lint_select:
            findings += lint_paths(paths, select=lint_select)
        findings += check_schedule(paths)
        if args.comm_log:
            findings += _replay_logs(args.comm_log)
        if keep_ids is not None:
            findings = [f for f in findings if f.rule in keep_ids]
        if args.baseline:
            findings = _apply_baseline(findings, _load_baseline(args.baseline))
        findings = sort_findings(findings)
    except AnalysisError as exc:
        print(f"repro.analysis: error: {exc}", file=stream)
        return 2
    if args.format == "json":
        render_json(findings, stream)
    else:
        render_report(findings, args.quiet, stream)
    has_errors = any(f.severity == Severity.ERROR for f in findings)
    return 1 if has_errors else 0
