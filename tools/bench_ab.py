"""Alternating A/B runs of the benchmark on two revisions of this repository.

    python3 tools/bench_ab.py PARENT CHANGE --workload lattice --pairs 10 \
        --seconds 25 --seed 41 [--labels baseline change] [--out-dir .]

Each revision is checked out with ``git worktree add`` under a temporary
directory, which is removed afterwards.  Each pair runs
``benchmarks/run.py --workload W --seconds S --seed K`` once in each
checkout; the side that runs first alternates from pair to pair, so a slow
spell of the machine falls on both sides alike.  Every run's last output
line (the JSON object with the end-to-end metrics) and its "speed factor"
note are read.

Two files are written to ``--out-dir``: ``BENCH_<label>.json`` for each
side, with every run's metrics and speed factors, the median and IQR of
each metric, the git revision, workload, seed, seconds, Python version and
CPU count.  The table printed last gives, for each metric, the median and
IQR of each side and the number of pairs the change won, where better is
the direction ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEED_NOTE = re.compile(r"speed factor ([0-9.]+) .*set-up ([0-9.]+)")


def iqr(values: list[float]) -> float:
    """The distance between the quartiles (inclusive method, so that it is
    read off the values themselves); 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is strictly better than the parent,
    ``better`` being ``"higher"`` or ``"lower"``."""
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower', got %r" % (better,))
    sign = 1 if better == "higher" else -1
    return sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout: str, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in ``checkout``: its metric values, speed factors
    and failure counts, from the last output line and the speed note."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"),
         "--workload", workload, "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("benchmark run failed in %s:\n%s%s"
                         % (checkout, proc.stdout, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    note = next((SPEED_NOTE.search(line) for line in lines
                 if SPEED_NOTE.search(line)), None)
    if note is None:
        raise SystemExit("no speed factor note in the output of %s" % checkout)
    return {"metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "speed_factor": float(note.group(1)),
            "setup_speed_factor": float(note.group(2)),
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"]}


def summary(runs: list[dict]) -> dict:
    """The median and IQR of each metric over the runs of one side."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        out[name] = {"median": statistics.median(values), "iqr": iqr(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--labels", nargs=2, default=["baseline", "change"],
                    metavar=("PARENT_LABEL", "CHANGE_LABEL"))
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    revisions = [git("rev-parse", "--verify", rev + "^{commit}")
                 for rev in (args.parent, args.change)]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    checkouts = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
    runs: list[list[dict]] = [[], []]
    try:
        for path, rev in zip(checkouts, revisions):
            git("worktree", "add", "--detach", path, rev)
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                run = run_once(checkouts[side], args.workload, args.seconds,
                               args.seed)
                run["pair"], run["ran_first"] = pair, side == order[0]
                runs[side].append(run)
                print("pair %d %-10s ops_per_s %s" % (
                    pair, args.labels[side],
                    run["metrics"].get("ops_per_s")), flush=True)
    finally:
        for path in checkouts:
            if os.path.isdir(path):
                git("worktree", "remove", "--force", path)
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")
    sums = [summary(runs[0]), summary(runs[1])]
    os.makedirs(args.out_dir, exist_ok=True)
    for side in (0, 1):
        doc = {"label": args.labels[side], "revision": revisions[side],
               "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "pairs": args.pairs,
               "python": platform.python_version(), "cpus": os.cpu_count(),
               "summary": sums[side], "runs": runs[side]}
        path = os.path.join(args.out_dir, "BENCH_%s.json" % args.labels[side])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("\n%-14s %24s %24s %8s" % ("metric", args.labels[0] + " median (IQR)",
                                      args.labels[1] + " median (IQR)", "wins"))
    for name in sums[0]:
        a = [r["metrics"][name] for r in runs[0]]
        b = [r["metrics"][name] for r in runs[1]]
        won = "%d/%d" % (wins(a, b, better[name]), args.pairs) \
            if name in better else "-"
        print("%-14s %24s %24s %8s" % (name, *(
            "%.4g (%.3g)" % (m[name]["median"], m[name]["iqr"]) for m in sums),
            won))
    return 0


if __name__ == "__main__":
    sys.exit(main())
