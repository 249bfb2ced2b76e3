"""Paired benchmark runs of two revisions, in alternating order.

    python tests/paired_bench.py PARENT --workload corpus --pairs 10 --seed 4601
    python tests/paired_bench.py PARENT --workload corpus --pairs 10 --seed 4601 --out 46

Each side is the committed tree of one revision (``PARENT``, and
``--change``, ``HEAD`` by default), exported with ``git archive`` into a
temporary directory, so the runs never touch the checkout and ``bench/``
stays as it is.  Pair ``k`` runs ``python3 bench/run.py --workload W
--seed SEED+k`` on both sides, so the benchmark's own default sets the
run length, the parent first when ``k`` is even and the change first when
it is odd, with ``PYTHONDONTWRITEBYTECODE`` set so that every process
compiles its sources as a fresh checkout does.  Each run's result is the
last line of its stdout.

For each end-to-end metric the script prints the parent's and the
change's median and quartiles, the change of the median in per cent, the
pairs the change wins (better by the direction ``BENCHMARK.json`` gives)
and whether the gap between the medians exceeds the spread between the
parent's quartiles.  ``--out N`` writes the first pair's results to
``BENCH_N_parent.json`` and ``BENCH_N.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> Path:
    """The committed tree of ``revision``, written under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    tree = into / revision.replace("/", "_")
    tree.mkdir()
    with tempfile.TemporaryFile() as handle:
        handle.write(archive)
        handle.seek(0)
        with tarfile.open(fileobj=handle) as tar:
            tar.extractall(tree, filter="data")
    return tree


def run(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(argv, cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def directions() -> dict[str, str]:
    """``lower`` or ``higher`` for each end-to-end metric of
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric of the result lines ``parent`` and ``change``,
    paired by index: the quartiles of each side, the change of the
    median in per cent, the pairs the change wins, and whether the gap
    between the medians exceeds the parent's quartile spread.  A
    metric's direction is that of the last part of its name in
    ``better``; a metric that ``better`` does not name is left out."""
    rows = []
    for name in parent[0]["metrics"]:
        direction = better.get(name.rsplit(".", 1)[-1])
        if direction is None:
            continue
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        sign = 1 if direction == "lower" else -1
        p, c = quartiles(before), quartiles(after)
        rows.append(
            {
                "metric": name,
                "parent": p,
                "change": c,
                "delta_pct": 100 * (c[1] - p[1]) / p[1] if p[1] else 0.0,
                "wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
                "pairs": len(before),
                "beyond_iqr": sign * (p[1] - c[1]) > p[2] - p[0],
            }
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the revision to compare against")
    ap.add_argument("--change", default="HEAD", help="the revision measured (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--out", metavar="N", help="write BENCH_N_parent.json and BENCH_N.json")
    args = ap.parse_args(argv)
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": export(args.change, Path(tmp))}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run(trees[side], args.workload, args.seed + k))
            print(f"pair {k + 1}/{args.pairs} (seed {args.seed + k}, {order[0]} first) done", flush=True)
    failed = {side: [r["failed"] for r in runs] for side, runs in results.items()}
    print(f"failed per run: parent {failed['parent']}, change {failed['change']}")
    for row in summarize(results["parent"], results["change"], directions()):
        p, c = row["parent"], row["change"]
        print(
            f"{row['metric']:24} {p[1]:.4g} [{p[0]:.4g}-{p[2]:.4g}] -> {c[1]:.4g} [{c[0]:.4g}-{c[2]:.4g}]"
            f"  {row['delta_pct']:+.1f} %  {row['wins']}/{row['pairs']} wins"
            + ("  beyond the parent's IQR" if row["beyond_iqr"] else "")
        )
    if args.out:
        for side, suffix in (("parent", "_parent"), ("change", "")):
            path = ROOT / f"BENCH_{args.out}{suffix}.json"
            path.write_text(json.dumps(results[side][0]) + "\n", encoding="utf-8")
            print(f"wrote {path.name}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
