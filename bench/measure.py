"""Run one workload in this process and print its raw measurements.

Started by ``run.py`` as a child process, one per workload, so that the
peak resident memory it reports belongs to that workload alone.  It prints
one JSON object on its last stdout line.

An instance runs the sequence ``chclab solve`` runs: ``parse_system``, the
mode's solver, ``as_dict``, ``check_model`` and ``goal_disjoint``.  It fails
when it passes its CPU-time limit, raises ``ResourceLimitError`` or any
other exception, or when a certificate is false (``step_laws`` or
``model_check``, or ``goal_disjoint`` on a SAFE verdict).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.json"
MAX_TIMEOUTS = 4  # per pass; later instances are charged as timeouts unrun
BUDGET_S = 120  # after this, every later instance is charged as a timeout unrun

import reference  # noqa: E402  (bench/ is this script's directory)
import workloads  # noqa: E402


class InstanceTimeout(BaseException):
    """Raised by the CPU-time alarm.  A BaseException, so that no handler
    inside the program under test can swallow it."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def setup(name: str, seed: int):
    """Import chclab and build the workload's texts; returns the seconds
    taken, the instances and the modules the instances call into."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import chclab
    import chclab.cli

    instances = workloads.build(name, seed, ROOT)
    return time.perf_counter() - start, instances, chclab


def _solve(chclab, system, inst):
    """The solver step of ``cli.cmd_solve``: (verdict, step_laws)."""
    solver = chclab.solver
    config = solver.AnalysisConfig(max_rounds=inst.max_rounds)
    if inst.mode == "fwd":
        trace, verdict = solver.alternate(
            system,
            config=solver.AnalysisConfig(
                max_rounds=1,
                widening_delay=config.widening_delay,
                descending_passes=config.descending_passes,
            ),
        )
        return verdict, trace.certified
    if inst.mode == "alt":
        trace, verdict = solver.alternate(system, config=config)
        return verdict, trace.certified
    if inst.mode == "qa2":
        _, verdict = chclab.qa.qa_two_step(system, config=config)
        return verdict, None
    trace, verdict = chclab.qa.qa_iterated(system, config=config)
    return verdict, trace.certified


def certified_verdict(chclab, inst) -> str:
    """SAFE or UNKNOWN, or "cert" when a certificate is false."""
    system = chclab.parser.parse_system(inst.text)
    verdict, step_laws = _solve(chclab, system, inst)
    model = verdict.witness.as_dict()
    model_ok = chclab.solver.check_model(system, model).ok
    disjoint = chclab.solver.goal_disjoint(system, model)
    if step_laws is False or not model_ok or (verdict.safe and not disjoint):
        return "cert"
    return verdict.status


def run_instance(chclab, inst, limit_s: float) -> tuple[str, float, str]:
    """(outcome, wall seconds, detail) of one instance."""
    detail = ""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_PROF, limit_s)
            outcome = certified_verdict(chclab, inst)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except InstanceTimeout:
        outcome = "timeout"
    except chclab.ResourceLimitError as exc:
        outcome, detail = "resource_limit", str(exc)
    except Exception as exc:  # any crash of the program is a failed instance
        outcome, detail = "error", f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start, detail


def run_pass(chclab, instances, limit_s, deadline, tracer=None):
    """One pass over every instance: a list of (outcome, seconds, detail,
    kernel seconds), where the last is the mean time of the reference
    kernel run right before and right after the instance.

    After MAX_TIMEOUTS timeouts, or past the run's deadline, the remaining
    instances are charged as timeouts at their limit without running.
    """
    out = []
    before = reference.time_kernel()
    timeouts = 0
    for inst in instances:
        if timeouts >= MAX_TIMEOUTS or time.perf_counter() > deadline:
            out.append(("timeout", limit_s, "not run", None))
            continue
        if tracer is not None:
            tracer.stack.clear()
        outcome, seconds, detail = run_instance(chclab, inst, limit_s)
        after = reference.time_kernel()
        timeouts += outcome == "timeout"
        out.append((outcome, seconds, detail, (before + after) / 2))
        before = after
    return out


def golden_compare(chclab, instances) -> dict[str, list[str]]:
    """Run ``cli.main`` in process on every corpus file and mode and compare
    the ``--json`` report, timings removed, with the recorded golden copy.
    Returns the mismatching instance names per mode."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches: dict[str, list[str]] = {mode: [] for mode in workloads.MODES}
    for inst in sorted(instances, key=lambda i: i.name):
        if cli_report(chclab, inst) != golden.get(f"{inst.path}|{inst.mode}"):
            mismatches[inst.mode].append(inst.name)
    return mismatches


def record_golden(chclab, instances) -> None:
    reports = {f"{i.path}|{i.mode}": cli_report(chclab, i) for i in instances}
    text = json.dumps(reports, sort_keys=True, indent=1)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")


def cli_report(chclab, inst) -> dict:
    """The ``--json`` report of one corpus instance plus its exit code,
    with the timing ``stats.wall_ms`` removed."""
    buf = io.StringIO()
    argv = ["solve", inst.path, "--mode", inst.mode, "--json", "-"]
    with contextlib.redirect_stdout(buf):
        code = chclab.cli.main(argv)
    report = json.loads(buf.getvalue())
    report["stats"].pop("wall_ms")
    report["exit"] = code
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=0, help="timed passes; 0 = set-up only")
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--record-golden", action="store_true", help="rewrite the corpus golden reports")
    args = ap.parse_args()

    setup_s, instances, chclab = setup(args.workload, args.seed)
    if args.record_golden:
        record_golden(chclab, workloads.build("corpus", 0, ROOT))
        return 0
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": statistics.mean(reference.time_kernel() for _ in range(2)),
        "inputs": [[inst.name, workloads.digest(inst.text)] for inst in instances],
    }
    if args.passes:
        w = workloads.WORKLOADS[args.workload]
        deadline = time.perf_counter() + BUDGET_S
        signal.signal(signal.SIGPROF, _alarm)
        # Untimed warm-up, so that bytecode compilation and lazy set-up are
        # not charged to the first instance.  On the corpus it is the golden
        # compare through the CLI entry point.
        if args.workload == "corpus":
            result["golden"] = golden_compare(chclab, instances)
        else:
            run_instance(chclab, instances[0], w.limit_s)
        result["passes"] = [run_pass(chclab, instances, w.limit_s, deadline) for _ in range(args.passes)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.traced_passes:
            result["trace"] = traced(chclab, instances, w.limit_s, deadline, args.traced_passes)
    print(json.dumps(result))
    return 0


def traced(chclab, instances, limit_s, deadline, count):
    """``count`` traced passes, each with its results and its per-layer
    metrics, including the share of instance time the layers' self times
    cover."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    per_pass = []
    for _ in range(count):
        tracer.reset()
        results = run_pass(chclab, instances, limit_s, deadline, tracer)
        tracer.fold()
        metrics = tracer.metrics()
        spent = sum(seconds for _, seconds, detail, _ in results if detail != "not run")
        metrics["trace.coverage"] = tracer.self_ns() * 1e-9 / spent if spent else 0.0
        per_pass.append({"metrics": metrics, "results": results})
    return per_pass


if __name__ == "__main__":
    sys.exit(main())
