"""Command-line front end.

Subcommands: ``solve`` (abstract analyses, JSON or text reports),
``oracle`` (finite-universe reference semantics), ``trees``
(derivation-tree checks), ``qa`` (print the query-answer transform) and
``check`` (verify a model file against a system).

Exit codes: 0 success/SAFE, 1 failed check (for ``solve``: a false
certificate), 2 bad input or an unwritable output path, 3 resource cap
exceeded, 10 UNKNOWN verdict (for ``trees --check-props``: no check
failed, but one was skipped).  Input files are UTF-8, with or without a
leading byte order mark.

A ``chclab solve`` run is :func:`solve`, the analysis of one of
:data:`MODES`, then :func:`certify`, its certificates and those that
fail it; the gate scripts and tests run a mode through both as well.
The oracles, the tree semantics and the query-answer analyses are
imported by the subcommands and modes that use them, so ``chclab solve``
starts without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from .linlogic import ResourceLimitError
from .parser import ParseError, parse_model, parse_system
from .solver import AnalysisConfig, alternate, check_model, goal_disjoint
from .syntax import format_formula, format_model, format_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_UNKNOWN = 10


def _print(*args, **kwargs) -> None:
    """``print`` to stdout; once its reader has closed it, send stdout to
    ``os.devnull``, so the run still ends with its own exit status."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"{path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc.strerror or exc}")


def _read_system(path: str):
    text = _read_text(path)
    try:
        return parse_system(text)
    except ParseError as exc:
        raise SystemExit2(f"{path}:{exc}")


class SystemExit2(Exception):
    """Input-level failure; maps to exit code 2."""


def _config_from_args(args) -> AnalysisConfig:
    return AnalysisConfig(
        max_rounds=args.max_rounds,
        widening_delay=args.widen_delay,
        descending_passes=args.descending_passes,
        start={"fwd": "forward", "bwd": "backward", "coarse": "coarse"}[args.start],
    )


def _element_digest(elem) -> dict:
    return {name: str(box) for name, box in elem.items()}


MODES = ("fwd", "alt", "qa2", "qa-iter")


def solve(system, mode: str, config: AnalysisConfig):
    """``mode``'s analysis of ``system``: ``(trace, verdict)``, no trace in
    qa2.  fwd is alt's first forward pass; only alt reads ``config.start``."""
    if mode == "qa2":
        from .qa import qa_two_step
        return None, qa_two_step(system, config)[1]
    if mode == "qa-iter":
        from .qa import qa_iterated
        return qa_iterated(system, config)
    if mode == "fwd":
        config = config._replace(start="forward", max_rounds=1)
    return alternate(system, config)


def certify(system, trace, verdict, model) -> tuple[dict, list[str]]:
    """A run's certificates, ``step_laws`` (``None`` without a trace),
    ``model_check`` and ``goal_disjoint``, and the names of those that
    fail the run: each false one, ``goal_disjoint`` only for SAFE."""
    certs = {
        "step_laws": None if trace is None else trace.certified,
        "model_check": check_model(system, model).ok,
        "goal_disjoint": goal_disjoint(system, model),
    }
    needed = certs if verdict.safe else {**certs, "goal_disjoint": None}
    return certs, [name for name, ok in needed.items() if ok is False]


def cmd_solve(args) -> int:
    system = _read_system(args.file)
    config = _config_from_args(args)
    started = time.monotonic()
    trace, verdict = solve(system, args.mode, config)
    wall_ms = int((time.monotonic() - started) * 1000)

    model = verdict.witness.as_dict()
    certs, failed = certify(system, trace, verdict, model)
    report = {
        "schema": 1,
        "file": args.file,
        "mode": args.mode,
        "verdict": verdict.status,
        "rounds": verdict.rounds_used,
        "model": {name: format_formula(f) for name, f in model.items()},
        "certs": certs,
        "stats": {
            "preds": len(system.decls),
            "clauses": len(system.clauses),
            "wall_ms": wall_ms,
        },
    }
    if trace is not None:
        report["trace"] = [
            {"d": _element_digest(d)} if b is None else {"d": _element_digest(d), "b": _element_digest(b)}
            for d, b in trace.rounds
        ]

    if args.json is not None:
        payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
        if args.json == "-":
            _print(payload)
        else:
            _write_text(args.json, payload + "\n")
    else:
        reason = verdict.stop_reason.replace("_", " ")
        _print(f"{verdict.status} after {verdict.rounds_used} round(s): {reason}")
        _print(
            "certs: step_laws={step_laws} model_check={model_check} "
            "goal_disjoint={goal_disjoint}".format(**certs)
        )
        _print(format_model(model, system), end="")
    if args.model_out:
        _write_text(args.model_out, format_model(model, system))
    if failed:
        print(f"error: certificate failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK if verdict.safe else EXIT_UNKNOWN


def cmd_oracle(args) -> int:
    from .concrete import (
        check_combined_closure,
        goal_atoms,
        ground_relation,
        lfp_backward_rel,
        lfp_combined_rel,
        lfp_forward_rel,
    )

    system = _read_system(args.file)
    if system.universe is None:
        raise SystemExit2(f"{args.file}: oracle needs a universe declaration")
    rel = ground_relation(system)
    goal = goal_atoms(system)
    if args.semantics == "fwd":
        atoms = lfp_forward_rel(rel)
    elif args.semantics == "bwd":
        atoms = lfp_backward_rel(rel, goal)
    else:
        atoms = lfp_combined_rel(rel, goal)
    for atom in sorted(atoms, key=lambda a: a.key()):
        _print(atom)
    if args.check_closure:
        ok = check_combined_closure(rel, goal)
        _print("closure", "PASS" if ok else "FAIL")
        if not ok:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_trees(args) -> int:
    from .trees import check_tree_props

    system = _read_system(args.file)
    if system.universe is None:
        raise SystemExit2(f"{args.file}: tree enumeration needs a universe declaration")
    report = check_tree_props(system, depth_cap=args.depth)
    if args.check_props:
        for name, verdict in report.verdicts.items():
            _print(name, verdict)
    _print(f"forward trees: {report.forward_count} (stable depth {report.forward_depth})")
    _print(f"backward trees: {report.backward_count} (stable depth {report.backward_depth})")
    if args.check_props and not report.all_ok:
        return EXIT_CHECK_FAILED
    if args.check_props and not report.all_pass:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_qa(args) -> int:
    from .qa import qa_transform

    system = _read_system(args.file)
    _print(format_system(qa_transform(system).system), end="")
    return EXIT_OK


def cmd_check(args) -> int:
    system = _read_system(args.file)
    text = _read_text(args.model)
    try:
        model = parse_model(text, system)
    except ParseError as exc:
        raise SystemExit2(f"{args.model}:{exc}")
    result = check_model(system, model)
    if result.ok:
        _print("PASS: model satisfies every clause")
        return EXIT_OK
    _print(f"FAIL: {len(result.violations)} clause(s) violated")
    for idx, clause, witness in result.violations:
        _print(f"  clause {idx}: {clause}")
        _print(f"    witness: {witness}")
    return EXIT_CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a build leaves
    reference cycles (argparse's parsers, actions and help formatters)
    to the cyclic garbage collector, and parsing changes no parser."""
    parser = argparse.ArgumentParser(
        prog="chclab",
        description="Analyze constrained Horn clause systems over linear rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an abstract analysis")
    solve.add_argument("file")
    solve.add_argument(
        "--mode",
        choices=MODES,
        default="alt",
        help="fwd: single forward pass; alt: forward/backward alternation; "
        "qa2: two-phase query-answer analysis; qa-iter: alt from a forward start, "
        "without --start",
    )
    solve.add_argument("--max-rounds", type=int, default=5)
    solve.add_argument("--widen-delay", type=int, default=2, help="joins before widening kicks in")
    solve.add_argument("--descending-passes", type=int, default=1)
    solve.add_argument(
        "--start",
        choices=["fwd", "bwd", "coarse"],
        default="fwd",
        help="alt's first round: a forward pass, a backward pass from top, or the "
        "predicate-level reachability skeleton in place of that backward pass",
    )
    solve.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable report to PATH ('-' for stdout)",
    )
    solve.add_argument("--model-out", metavar="PATH", help="write the model to a file")
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="finite-universe reference semantics")
    oracle.add_argument("file")
    oracle.add_argument("--semantics", choices=["fwd", "bwd", "combined"], default="combined")
    oracle.add_argument(
        "--check-closure",
        action="store_true",
        help="verify the combined semantics is closed under one more alternation",
    )
    oracle.set_defaults(func=cmd_oracle)

    trees = sub.add_parser("trees", help="derivation-tree semantics checks")
    trees.add_argument("file")
    trees.add_argument("--depth", type=int, default=10, help="stabilization depth cap")
    trees.add_argument(
        "--check-props",
        action="store_true",
        help="compare tree abstractions against the ground-relation fixpoints",
    )
    trees.set_defaults(func=cmd_trees)

    qa = sub.add_parser("qa", help="print the query-answer transformed system")
    qa.add_argument("file")
    qa.set_defaults(func=cmd_qa)

    check = sub.add_parser("check", help="verify a model file against a system")
    check.add_argument("file")
    check.add_argument("model")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    # Exact bounds can have any number of digits: lift the cap on
    # converting between ``int`` and ``str`` (Python 3.11 and later).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        status = EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_INPUT
    # Output still buffered meets a closed stdout here at the latest.
    _print(end="", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
