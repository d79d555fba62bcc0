"""Closed-loop benchmark of procover, one workload per process.

    python3 benchmarks/run.py --workload covers --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1

One client, no threads: the next request goes out only after the previous
one returned and was checked.  The request list of a workload is fixed by
the seed; the timed phase runs it in passes, each pass in its own seeded
order, until ``--seconds`` have gone by (at least three passes).

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics.  With ``--trace 1`` passes alternate between
untraced and traced, and the JSON carries the per-layer metrics, taken
from spans the benchmark records around each call it makes into a layer.
Spans are written to ``.bench_build/trace-<workload>-<seed>.jsonl``.
``--workload all`` runs every workload in its own process and prints a
table.  See ``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from layers import per_layer_metrics
from spans import NO_SPAN, Tracer
from speed import NOMINAL_S, Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"covers": "wl_covers", "lattice": "wl_lattice",
             "towers": "wl_towers", "cli-io": "wl_cli_io"}
SETUP_REPEATS = 5
MIN_PASSES = 3
WORK_DIR = ".bench_build"


def fail(message: str) -> None:
    print("benchmark error: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_procover(speed: Speed) -> float:
    """Import the library from this checkout's ``src`` SETUP_REPEATS times,
    each time afresh; returns the median import time in seconds."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "procover", "__init__.py")):
        fail("no procover sources under %s" % src)
    sys.path.insert(0, src)
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        for name in [m for m in sys.modules if m.split(".")[0] == "procover"]:
            del sys.modules[name]
        start = time.perf_counter()
        procover = importlib.import_module("procover")
        times.append(time.perf_counter() - start)
    if os.path.dirname(os.path.abspath(procover.__file__)) != os.path.join(src, "procover"):
        fail("procover was imported from %s" % procover.__file__)
    return statistics.median(times)


def setup(module, seed: int, workload: str, speed: Speed):
    """Build the request list SETUP_REPEATS times from the same seed and
    return the last list with the median build time."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = os.path.join(WORK_DIR, workload)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        speed.sample()
        start = time.perf_counter()
        requests = module.build(random.Random(seed), workdir)
        times.append(time.perf_counter() - start)
    return requests, statistics.median(times)


class Run:
    """Timed passes over a request list, with checks and counters."""

    def __init__(self, requests, seed, trace, speed):
        self.requests = requests
        self.speed = speed
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.samples = {False: {}, True: {}}     # times per request, by tracing
        self.passes = {False: 0, True: 0}        # passes run, by tracing
        self.attempted = 0
        self.failed = 0
        self.counts: dict = {}
        self.errors: list[str] = []

    def one_pass(self, index: int, traced: bool) -> None:
        order = list(range(len(self.requests)))
        random.Random(self.seed * 1000003 + index).shuffle(order)
        tracer = self.tracer if traced else None
        span = tracer if tracer else NO_SPAN
        for i in order:
            req = self.requests[i]
            self.attempted += 1
            self.speed.sample()
            try:
                with tracer.request(i) if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    out = req.run(span)
                    elapsed = time.perf_counter() - start
            except Exception:  # a failed request is counted, not fatal
                self.failed += 1
                self.errors.append("%s raised:\n%s" % (req.name, traceback.format_exc()))
                continue
            self.samples[traced].setdefault(i, []).append(elapsed)
            try:
                error = req.check(out)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
            if error:
                self.failed += 1
                self.errors.append("%s: %s" % (req.name, error))
            if index == 0:
                for key, value in req.counts(out).items():
                    self.counts[key] = self.counts.get(key, 0) + value
        self.passes[traced] += 1

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            self.one_pass(index, traced)
            index += 1
            enough = index >= (2 * MIN_PASSES if self.tracer else MIN_PASSES)
            if enough and time.perf_counter() - start >= seconds:
                break

    def latencies(self, traced: bool) -> list[float]:
        """Each request's least time over the passes, sorted.  The passes
        repeat one request list, so contention from other tenants only
        ever adds to that figure."""
        return sorted(min(times) for times in self.samples[traced].values())

    def ops_per_s(self, traced: bool) -> float:
        lat = self.latencies(traced)
        return len(lat) / sum(lat)


def tail_index(n: int) -> int:
    """Index in n sorted values of the highest percentile with at least ten
    values beyond it (the median when there are fewer than 21)."""
    return max(n - 11, (n - 1) // 2)


def end_to_end(run: Run, setup_s: float, setup_speed: Speed
               ) -> tuple[dict, list[str]]:
    """Times are scaled by speed factors (see speed.py), so they read as at
    the nominal machine speed; the raw figures are printed."""
    lat = run.latencies(False)
    n = len(lat)
    k = tail_index(n)
    f = run.speed.factor(0.1)
    fs = setup_speed.factor(0.5)
    raw = {
        "ops_per_s": (run.ops_per_s(False), "requests/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * lat[k], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    scale = {"ops_per_s": 1 / f, "op_p50_ms": f, "op_tail_ms": f, "setup_s": fs}
    metrics = {name: (value * scale.get(name, 1), unit)
               for name, (value, unit) in raw.items()}
    notes = ["op_tail_ms is p%.1f over %d requests, each the least of %d passes"
             % (100.0 * (k + 1) / n, n, run.passes[False]),
             "speed factor %.4f (reference kernel p10 %.4f ms), set-up %.4f;"
             " unscaled: %s" % (f, 1000 * NOMINAL_S / f, fs, ", ".join(
                 "%s %.4g" % (name, value) for name, (value, _) in raw.items()
                 if name in scale)),
             "failed_ratio %.6f fraction (%d of %d requests)"
             % (run.failed / run.attempted, run.failed, run.attempted)]
    return metrics, notes


def run_one(args) -> int:
    os.chdir(ROOT)
    setup_speed = Speed()
    import_s = import_procover(setup_speed)
    module = importlib.import_module(WORKLOADS[args.workload])
    requests, build_s = setup(module, args.seed, args.workload, setup_speed)
    run = Run(requests, args.seed, args.trace, Speed())
    run.measure(args.seconds)
    for error in run.errors[:5]:
        print(error, file=sys.stderr)
    if not run.samples[False] or (args.trace and not run.samples[True]):
        fail("no request completed")
    if args.trace:
        metrics, notes = per_layer_metrics(run)
        run.tracer.write(os.path.join(WORK_DIR, "trace-%s-%d.jsonl"
                                      % (args.workload, args.seed)))
    else:
        metrics, notes = end_to_end(run, import_s + build_s, setup_speed)
    shutil.rmtree(os.path.join(WORK_DIR, args.workload), ignore_errors=True)
    print("workload %s, seed %d, %d requests per pass"
          % (args.workload, args.seed, len(requests)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("workload %s exited %d" % (workload, proc.returncode))
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    first = next(iter(results.values()))["metrics"]
    print("\n%-44s %s" % ("metric", "".join("%14s" % w for w in results)))
    for name, metric in first.items():
        unit = metric["unit"]
        print("%-44s %s  %s" % (name, "".join(
            "%14.6g" % r["metrics"][name]["value"] for r in results.values()), unit))
    print("%-44s %s" % ("failed_ratio", "".join(
        "%14.6g" % (r["failed"] / r["attempted"]) for r in results.values())))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
