"""``python -m repro.analysis.lint`` -- lint models from the command line.

Lints the built-in case-study models and/or example files and writes one
:class:`~repro.core.validation.ValidationReport` per subject::

    python -m repro.analysis.lint --all
    python -m repro.analysis.lint engine-ccd momentum --json out.json
    python -m repro.analysis.lint --all --sarif lint.sarif
    python -m repro.analysis.lint --example examples/quickstart.py
    python -m repro.analysis.lint --list-rules

An example file is any python module defining zero-argument ``build_*``
functions returning components; every such builder is linted.  The exit
code is 1 when any finding of severity ERROR was produced (warnings and
infos do not fail the run), which is what the CI ``lint-models`` job
gates on.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import sys
from typing import Any, Callable, Dict, List, Tuple

from ...core.components import Component
from ...core.validation import FINDING_SCHEMA_VERSION, ValidationReport
from ...notations.ccd import ClusterCommunicationDiagram
from ..well_definedness import check_well_definedness
from .engine import lint_model
from .findings import to_sarif
from .registry import all_rules


def _builtin_targets() -> Dict[str, Callable[[], Component]]:
    from ...casestudy.door_lock import (build_comfort_closing,
                                        build_door_lock_control,
                                        build_door_lock_faa)
    from ...casestudy.engine_control import (build_crank_sequencer_std,
                                             build_engine_ccd,
                                             build_engine_modes_mtd)
    from ...casestudy.momentum import (build_closed_loop,
                                       build_momentum_controller)
    from ...casestudy.reengineered import build_reengineered_fda
    return {
        "door-lock-control": build_door_lock_control,
        "comfort-closing": build_comfort_closing,
        "door-lock-faa": build_door_lock_faa,
        "engine-modes": build_engine_modes_mtd,
        "crank-sequencer": build_crank_sequencer_std,
        "engine-ccd": build_engine_ccd,
        "momentum": build_momentum_controller,
        "closed-loop": build_closed_loop,
        "reengineered-fda": build_reengineered_fda,
    }


def _example_builders(path: str) -> List[Tuple[str, Callable[[], Any]]]:
    """Zero-argument ``build_*`` functions defined by an example file."""
    name = "repro_lint_example_" + path.replace("/", "_").replace(".", "_")
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load example module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    builders: List[Tuple[str, Callable[[], Any]]] = []
    for attr_name, attr in sorted(vars(module).items()):
        if not attr_name.startswith("build_") or not callable(attr):
            continue
        try:
            signature = inspect.signature(attr)
        except (TypeError, ValueError):
            continue
        if all(p.default is not inspect.Parameter.empty
               or p.kind in (inspect.Parameter.VAR_POSITIONAL,
                             inspect.Parameter.VAR_KEYWORD)
               for p in signature.parameters.values()):
            builders.append((f"{path}:{attr_name}", attr))
    return builders


def _lint_target(label: str, builder: Callable[[], Any],
                 well_definedness: bool = False) -> ValidationReport:
    model = builder()
    if not isinstance(model, Component):
        return ValidationReport(label)
    findings = lint_model(model).findings
    if well_definedness and isinstance(model, ClusterCommunicationDiagram):
        # opt-in: case-study CCDs deliberately ship repairable rate
        # transitions, so target-profile conditions are not part of the
        # default gate
        findings += check_well_definedness(model).findings
    for finding in findings:
        finding.subject = label
    return ValidationReport(label, findings)


def _makedirs_for(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="statically verify models: IR dataflow, expression "
                    "abstract interpretation, machine-level checks")
    parser.add_argument("targets", nargs="*",
                        help="built-in model names (see --list-targets)")
    parser.add_argument("--all", action="store_true",
                        help="lint every built-in case-study model")
    parser.add_argument("--example", action="append", default=[],
                        metavar="FILE",
                        help="lint the build_* functions of an example "
                             "file (repeatable)")
    parser.add_argument("--json", metavar="FILE",
                        help="write all reports as JSON")
    parser.add_argument("--sarif", metavar="FILE",
                        help="write all reports as a SARIF 2.1.0 log")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule id and exit")
    parser.add_argument("--list-targets", action="store_true",
                        help="list the built-in model names and exit")
    parser.add_argument("--well-definedness", action="store_true",
                        help="also check CCD targets against the OSEK "
                             "well-definedness profile (off by default: "
                             "case-study CCDs deliberately ship repairable "
                             "rate transitions)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="print only the per-subject summaries")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:26s} {rule.layer:8s} "
                  f"{rule.default_severity!s:8s} {rule.summary}")
        return 0

    builtins = _builtin_targets()
    if args.list_targets:
        for name in sorted(builtins):
            print(name)
        return 0

    selected: List[Tuple[str, Callable[[], Any]]] = []
    if args.all or (not args.targets and not args.example):
        selected.extend(sorted(builtins.items()))
    for target in args.targets:
        if target not in builtins:
            parser.error(f"unknown target {target!r} "
                         f"(known: {', '.join(sorted(builtins))})")
        selected.append((target, builtins[target]))
    for example in args.example:
        selected.extend(_example_builders(example))

    reports = [_lint_target(label, builder,
                            well_definedness=args.well_definedness)
               for label, builder in selected]

    for report in reports:
        if args.quiet:
            print(report.summary())
        else:
            print(report.describe())

    if args.json:
        payload = {"schema_version": FINDING_SCHEMA_VERSION,
                   "reports": [report.to_json_dict() for report in reports]}
        _makedirs_for(args.json)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=repr)
            handle.write("\n")
    if args.sarif:
        _makedirs_for(args.sarif)
        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(to_sarif(reports), handle, indent=2, default=repr)
            handle.write("\n")

    error_count = sum(len(report.errors()) for report in reports)
    if error_count:
        print(f"FAILED: {error_count} error finding(s) across "
              f"{len(reports)} subject(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(reports)} subject(s), 0 errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
