"""Certified time-to-verdict benchmark for chclab.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  ``--workload`` is ``corpus``, ``chain``,
``rounds``, ``wide`` or ``all``.  For each workload it

1. times set-up (``import chclab`` plus building the input texts) in fresh
   processes and takes the median;
2. runs the workload in a child process (``measure.py``): one untimed
   warm-up, then timed passes over every instance, each instance checked
   through its certificates;
3. runs ``python -m chclab.cli solve FILE --json -`` (see ``cli_targets``)
   and checks that the CLI reaches the same outcome as the in-process run.

``--seconds`` sets the number of timed passes: seconds divided by the
workload's nominal pass time, but at least 3 and at least enough for 21
instance samples, so that the tail percentile is not below the median.
The pass count, and with it the sample count, depends on nothing else,
so two commits are measured on equal terms.  With ``--trace 1`` the same passes run again with the
layer tracer installed, and the per-layer metrics are printed instead of
the end-to-end ones.

Every time is scaled to reference speed (see ``reference.py``): the host
this was written on drifted by up to 50 % over minutes, and the scaling
takes that drift out.  The report prints the scale factor, so raw times
can be recovered.

Metrics (end to end, per workload):

* ``setup_s``: median set-up time over SETUP_RUNS fresh processes.
* ``par2_s``: sum over instances of the median time to a certified
  verdict; a failed instance counts twice its limit (PAR-2).
* ``verdict_p50_ms``: the median over instances of each instance's median
  time.  A failed sample counts as its limit plus the time it took to
  fail, so it ranks above every success.
* ``verdict_tail_ms``: over the same instance medians, the highest
  percentile that still has ten values beyond it, or the maximum when
  there are fewer than 21 instances.
* ``verdict_share``: instances that reached a certified verdict divided by
  instances attempted (one minus the failed share).
* ``verdict_score``: SAFE counts 1, a certified UNKNOWN 1/2, a failure 0,
  averaged over the instances attempted; it drops when precision drops.
* ``peak_rss_mb``: peak resident memory of the workload's child process.
* ``cli_p50_ms``: median wall time of one ``chclab solve`` process.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when a certificate
fails, when the CLI and the in-process run disagree, when two set-up
processes built different inputs, or, when tracing, when the layers'
self times cover less than 90 % of the traced instance time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 3
MIN_SAMPLES = 21
CHILD_TIMEOUT_S = 170
VERDICTS = ("SAFE", "UNKNOWN")
FAILURES = ("timeout", "resource_limit", "error", "cert")
COVERAGE_MIN = 0.9


def child_env() -> dict[str, str]:
    # A fixed hash seed keeps set iteration order, and with it the work a
    # run does, the same in every process.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def measure(name: str, seed: int, passes: int = 0, traced: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", name, "--seed", str(seed)]
    if passes:
        cmd += ["--passes", str(passes), "--traced-passes", str(traced)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(path: str, inst, limit_s: float) -> tuple[str, float]:
    """(outcome, wall seconds) of one ``chclab solve`` process."""
    cmd = [sys.executable, "-m", "chclab.cli", "solve", path, "--mode", inst.mode,
           "--max-rounds", str(inst.max_rounds), "--json", "-"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=limit_s + 2
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 3:
        return "resource_limit", seconds
    if proc.returncode not in (0, 10):
        return "error", seconds
    report = json.loads(proc.stdout)
    certs = report["certs"]
    if certs["step_laws"] is False or not certs["model_check"] or (
        report["verdict"] == "SAFE" and not certs["goal_disjoint"]
    ):
        return "cert", seconds
    return report["verdict"], seconds


def cli_targets(instances, medians: dict[str, float]) -> list:
    """The instances the CLI runs: every committed file in alt mode, twice;
    for a generated workload, its fastest instance fifteen times (its larger
    instances run the same solver the in-process passes already time)."""
    files = [i for i in instances if i.path is not None and i.mode == "alt"]
    if files:
        return files * 2
    return [min(instances, key=lambda i: medians[i.name])] * 15


def cli_pass(w, targets, outcomes: dict[str, str]):
    """CLI samples as (outcome, seconds, detail, kernel seconds), and the
    instances whose CLI outcome differs from the in-process one.  An
    instance that timed out in process is charged at its limit unrun."""
    samples: list[tuple[str, float, str, float | None]] = []
    mismatches: list[str] = []
    def kernel() -> float:
        # A process spans more of the host's speed changes than one kernel
        # run sees, so take three.
        return statistics.mean(reference.time_kernel() for _ in range(3))

    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as tmp:
        before = kernel()
        for inst in targets:
            if outcomes[inst.name] == "timeout":
                samples.append(("timeout", w.limit_s, "not run", None))
                continue
            path = inst.path
            if path is None:
                path = os.path.join(tmp, inst.name + ".chc")
                Path(path).write_text(inst.text, encoding="utf-8")
            outcome, seconds = run_cli(path, inst, w.limit_s)
            after = kernel()
            samples.append((outcome, seconds, "", (before + after) / 2))
            before = after
            if outcome != outcomes[inst.name]:
                mismatches.append(f"{inst.name}: cli {outcome}, in process {outcomes[inst.name]}")
    return samples, mismatches


def scaled(samples):
    """(outcome, seconds, detail) with each measured time scaled to
    reference speed by the kernel time taken around it.  Unrun charges and
    timeouts stay as they are: the limit, not the program, set their time."""
    return [
        (o, s if k is None or o == "timeout" else s * reference.REFERENCE_S / k, d)
        for o, s, d, k in samples
    ]


def speed(passes) -> float:
    """Median reference-speed factor of a set of passes."""
    return statistics.median(reference.REFERENCE_S / k for p in passes for *_, k in p if k)


def charged(outcome: str, seconds: float, limit_s: float) -> float:
    """A sample as the percentiles see it: a failure ranks past the limit."""
    return seconds if outcome in VERDICTS else limit_s + seconds


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    values beyond it; the maximum when that percentile would fall below
    the median, i.e. with fewer than 21 values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


def par2(passes, limit_s) -> float:
    """Sum over instances of the median over passes; a failure counts
    twice its limit."""
    return sum(
        statistics.median(s if o in VERDICTS else 2 * limit_s for o, s, _ in column)
        for column in zip(*passes)
    )


def run_workload(name: str, seed: int, seconds: int, trace: bool, say) -> dict:
    w = workloads.WORKLOADS[name]
    instances = workloads.build(name, seed, ROOT)
    passes = max(MIN_PASSES, -(-MIN_SAMPLES // len(instances)), round(seconds / w.pass_s))
    notes: list[str] = []

    probes = [measure(name, seed) for _ in range(SETUP_RUNS - 1)]
    raw = measure(name, seed, passes, passes if trace else 0)
    probes.append(raw)
    if any(p["inputs"] != raw["inputs"] for p in probes):
        notes.append("set-up processes built different inputs")
    if [[i.name, workloads.digest(i.text)] for i in instances] != raw["inputs"]:
        notes.append("the child built different inputs from the parent")

    factor = speed(raw["passes"])
    timed = [scaled(p) for p in raw["passes"]]
    outcomes = {inst.name: timed[0][i][0] for i, inst in enumerate(instances)}
    flaky = sorted(
        inst.name for i, inst in enumerate(instances) if len({p[i][0] for p in timed}) > 1
    )
    # Per instance, the median of its charged samples over the passes.
    medians = {
        inst.name: statistics.median(charged(o, s, w.limit_s) for o, s, _ in column)
        for inst, column in zip(instances, zip(*timed))
    }
    targets = cli_targets(instances, medians)
    cli_raw, cli_mismatch = cli_pass(w, targets, outcomes)
    notes.extend(cli_mismatch)
    cli_samples = scaled(cli_raw)

    samples = [s for p in timed for s in p]
    attempted = len(samples)
    failed = {k: sorted({inst.name for p in timed for inst, s in zip(instances, p) if s[0] == k}) for k in FAILURES}
    n_failed = sum(1 for o, _, _ in samples if o not in VERDICTS)
    n_safe = sum(1 for o, _, _ in samples if o == "SAFE")
    n_unknown = sum(1 for o, _, _ in samples if o == "UNKNOWN")
    if failed["cert"]:
        notes.append("certificate failures: " + ", ".join(failed["cert"]))
    tail_value, tail_q = tail(medians.values())
    cli_pooled = [charged(o, s, w.limit_s) for o, s, _ in cli_samples]
    setup = [p["setup_s"] * reference.REFERENCE_S / p["setup_kernel_s"] for p in probes]

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "par2_s": (par2(timed, w.limit_s), "s"),
        "verdict_p50_ms": (statistics.median(medians.values()) * 1000, "ms"),
        "verdict_tail_ms": (tail_value * 1000, "ms"),
        "verdict_share": (1 - n_failed / attempted, "ratio"),
        "verdict_score": ((n_safe + 0.5 * n_unknown) / attempted, "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "cli_p50_ms": (statistics.median(cli_pooled) * 1000, "ms"),
    }

    say(f"== {name} (seed {seed}): {len(instances)} instances x {passes} passes, "
        f"limit {w.limit_s:g} s CPU")
    texts = sorted({digest for _, digest in raw["inputs"]})
    say(f"inputs {workloads.digest(''.join(texts))} over {len(texts)} distinct texts")
    seen = set()
    for inst_name, digest in raw["inputs"]:
        if digest not in seen:
            seen.add(digest)
            say(f"  input {inst_name} sha256:{digest}")
    say(f"times are scaled to reference speed by a median factor of {factor:.3f} "
        f"(reference kernel {reference.REFERENCE_S * 1000:g} ms)")
    for metric, (value, unit) in end_to_end.items():
        say(f"{metric:16} {value:12.4f} {unit}")
    say(f"  verdict_tail_ms is p{tail_q:.1f} of {len(instances)} instance medians, "
        f"{passes} samples each; cli_p50_ms over {len(cli_pooled)} processes")
    cli_unscaled = statistics.median(charged(o, s, w.limit_s) for o, s, *_ in cli_raw)
    say(f"  unscaled: par2_s {par2([[s[:3] for s in p] for p in raw['passes']], w.limit_s):.4f} s, "
        f"cli_p50_ms {cli_unscaled * 1000:.4f} ms")
    say(f"  failed_share {n_failed / attempted:.4f}  safe_share {n_safe / attempted:.4f}  "
        f"({n_failed} failed, {n_safe} SAFE of {attempted})")
    for kind in FAILURES:
        say(f"  failed.{kind:15} {len(failed[kind]):3} {' '.join(failed[kind])}")
    if name == "corpus":
        per_mode = {m: sum(1 for i in instances if i.mode == m and outcomes[i.name] == "SAFE") for m in workloads.MODES}
        say("  SAFE per mode: " + "  ".join(f"{m} {n}" for m, n in per_mode.items()))
        say("  golden mismatches per mode: " + "  ".join(f"{m} {len(v)}" for m, v in raw["golden"].items()))
        for names in raw["golden"].values():
            for n in names:
                say(f"    golden mismatch {n}")
    else:
        for inst in instances:
            say(f"  {inst.name:16} {outcomes[inst.name]:14} {medians[inst.name] * 1000:10.1f} ms median")
    if flaky:
        say("  outcome changed between passes: " + " ".join(flaky))

    result = {
        "correct": not notes,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in end_to_end.items()},
    }
    if trace:
        inproc = statistics.median(medians[i.name] for i in targets)
        result["metrics"] = layer_metrics(instances, raw, timed, cli_pooled, inproc, notes, say)
        result["correct"] = not notes
    for note in notes:
        say(f"  CHECK FAILED: {note}")
    return result


def layer_metrics(instances, raw, timed, cli_pooled, inproc, notes, say) -> dict:
    traced = raw["trace"]
    factor = speed([p["results"] for p in traced])
    out = {}
    for m in traced[0]["metrics"]:
        value = statistics.median(p["metrics"][m] for p in traced)
        out[m] = value * factor if m.endswith("_ms") else value
    coverage = min(p["metrics"]["trace.coverage"] for p in traced)
    if coverage < COVERAGE_MIN:
        notes.append(f"layer self time covers only {coverage:.1%} of traced instance time")

    # Overhead over the instances that reached a verdict in every pass.
    traced_passes = [scaled(p["results"]) for p in traced]
    both = [i for i, _ in enumerate(instances)
            if all(p[i][0] in VERDICTS for p in timed + traced_passes)]
    plain = sum(statistics.median(p[i][1] for p in timed) for i in both)
    with_trace = sum(statistics.median(p[i][1] for p in traced_passes) for i in both)
    out["trace.overhead_ratio"] = with_trace / plain if plain else 0.0

    out["cli.overhead_ms"] = (statistics.median(cli_pooled) - inproc) * 1000
    for kind in FAILURES:
        out[f"failed.{kind}"] = statistics.median(sum(1 for o, _, _ in p if o == kind) for p in timed)
    out["golden.mismatches"] = sum(len(v) for v in raw.get("golden", {}).values())

    metrics = {}
    for m, value in out.items():
        stat = m.rsplit(".", 1)[1]
        if stat.endswith("_ms"):
            unit = "ms"
        elif stat.endswith("ratio") or stat == "coverage":
            unit = "ratio"
        else:
            unit = "count"
        metrics[m] = {"value": value, "unit": unit}
        say(f"{m:42} {value:14.4f} {unit}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="Certified time-to-verdict benchmark for chclab.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "chclab" / "__init__.py").is_file():
        print(f"error: no chclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One core for this process and every process it starts, so that the
    # reference kernel times the same core as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     lambda line: print(line, flush=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
