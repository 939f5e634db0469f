"""Compare two source trees on one benchmark workload, in alternating pairs.

    python tests/bench_pairs.py --parent ../before --change . --workload longseq --pairs 10 --seconds 50 --seed 1

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once in each tree, each run in its own process with the tree as working
directory. The parent goes first in even-numbered pairs and the change in
odd-numbered ones, so drift on the machine falls on both sides alike. Next
to the run's own metrics it records the child's ``minor_faults`` (minor page
faults) and ``system_s`` (kernel CPU seconds), read from
``getrusage(RUSAGE_CHILDREN)`` before and after the run, so that a claim
about faults shows the kernel time that goes with them.

For every metric it prints the median and the quartiles of each side, in
how many pairs the change beat the parent, in the direction the change
tree's ``BENCHMARK.json`` gives (lower, for metrics it does not list),
whether the gap between the medians exceeds the parent's interquartile
range, and a verdict (see ``verdict``) against that metric's ``bound``
there. Each run's metrics go to stderr as it ends, so every run can be
reported. The exit status is 1 if any run failed or reported
``correct: false``, whatever the verdicts.

Not a test module: pytest does not collect it.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

import numpy as np


def _children() -> tuple[int, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_minflt, usage.ru_stime


def run_child(cmd: list[str], cwd: str):
    """Run cmd in cwd to completion: (the finished process, {"minor_faults":
    its minor page faults, "system_s": its kernel CPU seconds})."""
    faults, stime = _children()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    faults_after, stime_after = _children()
    return proc, {"minor_faults": faults_after - faults, "system_s": stime_after - stime}


def run_once(tree: str, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in tree: whether it was correct, and its metric
    values plus minor_faults and system_s."""
    proc, usage = run_child(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        tree,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    record = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    metrics.update(usage)
    return {"correct": record["correct"], "metrics": metrics}


def end_to_end(tree: str) -> dict:
    """metric name -> (better: 'lower' or 'higher', bound), from the tree's
    BENCHMARK.json end-to-end metrics."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except FileNotFoundError:
        return {}
    return {m["name"]: (m["better"], m.get("bound")) for m in spec.get("end_to_end", [])}


def verdict(before, after, better: str = "lower", bound: float | None = None) -> str:
    """One metric's verdict over pairs (before[k], after[k]) of parent and
    change runs:

    - ``gain``: the change wins at least 9 of 10 pairs and its median
      beats the parent's by more than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's interquartile range is wider than that
      bound, so a move within it cannot be told from noise;
    - ``same`` otherwise, and ``unbounded`` for a metric without a bound
      that is not a gain.
    """
    before, after = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.sum(sign * (after - before) > 0))
    q1, median, q3 = np.percentile(before, [25, 50, 75])
    gap = sign * (np.median(after) - median)  # > 0: the change is better
    if wins >= 0.9 * len(before) and gap > q3 - q1:
        return "gain"
    if bound is None:
        return "unbounded"
    if gap < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    ok = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], args.workload, args.seconds, args.seed)
            ok &= record["correct"] is True
            runs[side].append(record["metrics"])
            print(f"pair {k} {side}: correct={record['correct']} {json.dumps(record['metrics'])}", file=sys.stderr, flush=True)

    spec = end_to_end(args.change)
    names = sorted(set().union(*(m.keys() for side in runs.values() for m in side)))
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s: "
          "median [q1, q3] parent -> change, change wins, verdict")
    for name in names:
        pairs = [(a[name], b[name]) for a, b in zip(runs["parent"], runs["change"]) if name in a and name in b]
        if not pairs:
            continue
        before, after = np.array(pairs, dtype=float).T
        better, bound = spec.get(name, ("lower", None))
        sign = 1.0 if better == "higher" else -1.0
        wins = int(np.sum(sign * (after - before) > 0))
        q_b, q_a = np.percentile(before, [25, 50, 75]), np.percentile(after, [25, 50, 75])
        change = 100.0 * (q_a[1] - q_b[1]) / q_b[1] if q_b[1] else float("nan")
        beyond_iqr = abs(q_a[1] - q_b[1]) > q_b[2] - q_b[0]
        print(f"{name:24s} {q_b[1]:12.4g} [{q_b[0]:.4g}, {q_b[2]:.4g}] -> "
              f"{q_a[1]:12.4g} [{q_a[0]:.4g}, {q_a[2]:.4g}] {change:+6.1f}%  wins {wins}/{len(pairs)}"
              f"  gap {'>' if beyond_iqr else '<='} parent IQR  {verdict(before, after, better, bound)}")
    if not ok:
        print("a run failed or reported correct: false", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
