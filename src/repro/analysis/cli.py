"""Command-line driver: ``python -m repro.analysis [paths...]``.

Runs the registered lint rules over the given files/directories
(default: ``src/repro``, falling back to the installed package
location) and reports findings as
``path:line: [severity] RULE-ID message`` — or as one JSON object with
``--format json`` so CI can annotate PRs.  Recorded SimComm event logs
(see :mod:`repro.observability.commlog`) can be replayed through the
fault/recovery checker (RES001/RES002) with ``--comm-log``.

Exits 1 when any error-severity finding is reported, 2 on an analysis
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Set, Tuple

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
             "e.g. --select PIC002,RES001); the replay rules are RES001 "
             "and RES002, the only protocol rules left to a recorded log",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--comm-log",
        action="append",
        metavar="FILE",
        help="replay a recorded SimComm event log (JSONL) through the "
             "fault/recovery checker (repeatable)",
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


#: runtime/replay rules that live outside the lint registry: the
#: commcheck fault/recovery replay (RES) and the step sanitizers (SAN);
#: every other protocol bug is refused at run time by SimComm.exchange
RUNTIME_RULES = (
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
    for rule_id, description in RUNTIME_RULES:
        kind = "replay" if rule_id.startswith("RES") else "runtime"
        print(f"{rule_id}  [{kind}]  {description}", file=stream)


def _partition_select(
    select: Optional[Sequence[str]],
) -> Tuple[Optional[List[str]], Optional[Set[str]]]:
    """Split ``--select`` into lint-registry ids and a global id filter.

    Returns ``(lint_select, keep_ids)``: ``lint_select`` is passed to
    the lint registry (None = all; empty list = skip linting); the
    ``keep_ids`` set filters replay findings (None = keep all).  Unknown
    ids raise :class:`AnalysisError`.
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
    known = lint_ids | {rule_id for rule_id, _ in RUNTIME_RULES}
    unknown = sorted(set(select) - known)
    if unknown:
        raise AnalysisError(f"unknown rule id(s) in --select: {unknown}")
    return [s for s in select if s in lint_ids], set(select)


def _replay_logs(paths: Sequence[str]) -> List[Finding]:
    from repro.analysis.commcheck import check_comm
    from repro.observability.commlog import read_comm_log

    findings: List[Finding] = []
    for path in paths:
        replay = read_comm_log(path)
        report = check_comm(replay)
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
        if args.comm_log:
            findings += _replay_logs(args.comm_log)
        if keep_ids is not None:
            findings = [f for f in findings if f.rule in keep_ids]
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
