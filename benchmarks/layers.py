"""Per-layer metrics from the traced passes and the exact work counters.

Times are seconds of self time per pass over the request list (the mean
over the traced passes), so runs of different length compare.  Counters
are read off the outputs of the first pass and repeat exactly for a seed.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import LAYERS

SPAN_METRICS = (
    "graphs.kernel_congruence", "graphs.quotient", "graphs.compose",
    "freegroup.low_index_reps", "freegroup.low_index_reps_normal",
    "freegroup.queries",
    "covering.cover_from_subgroup", "covering.deck_group", "covering.is_regular",
    "covering.image_subgroup", "covering.lift",
    "covering.quotient_by_deck_subgroup",
    "towers.universal_tower", "towers.validate_tower", "towers.kernel_good_pairs",
    "towers.deck_tower", "towers.pi1_triviality_check",
    "towers.limit_fiber_report",
    "formats.load", "formats.save",
    "cli.validate", "cli.pi1", "cli.check-cover", "cli.quotient", "cli.lift",
    "cli.tower-universal", "cli.tower-validate", "cli.tower-fibers",
)

COUNTERS = (
    ("freegroup.subgroups_emitted", "count"),
    ("freegroup.normal_searched", "count"),
    ("covering.deck_elements", "count"),
    ("covering.fiber_points_tried", "count"),
    ("towers.pi1_rows", "count"),
    ("towers.pi1_level0_rows", "count"),
    ("formats.bytes_read", "bytes"),
    ("formats.bytes_written", "bytes"),
    ("cli.report_bytes", "bytes"),
)

# (ratio, numerator counter, denominator counter)
RATIOS = (
    ("freegroup.normal_share", "freegroup.normal_kept", "freegroup.normal_searched"),
    ("covering.lift_yield", "covering.deck_elements", "covering.fiber_points_tried"),
    ("towers.pi1_level0_share", "towers.pi1_level0_rows", "towers.pi1_rows"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".busy_s"] = "s"
        units[layer + ".busy_share"] = "fraction"
        units[layer + ".calls"] = "count"
        units[layer + ".failed"] = "count"
    for name in SPAN_METRICS:
        units[name + ".busy_s"] = "s"
    for name, unit in COUNTERS:
        units[name] = unit
    for name, _num, _den in RATIOS:
        units[name] = "fraction"
    units["covering.deck_group.degree_exp"] = "slope"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _degree_exponent(requests, spans) -> float:
    """Log-log slope of deck_group time against degree over the regular
    covers (median per degree); 0 when fewer than two degrees were seen."""
    by_request = defaultdict(list)
    for name, start, end, _parent, rid, _failed in spans:
        if name == "covering.deck_group" and requests[rid].tags.get("regular"):
            by_request[rid].append(end - start)
    by_degree = defaultdict(list)
    for rid, times in by_request.items():
        by_degree[requests[rid].tags["degree"]].append(statistics.median(times))
    points = [(math.log(d), math.log(statistics.median(t)))
              for d, t in by_degree.items()]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def per_layer_metrics(run) -> tuple[dict, list[str]]:
    tracer = run.tracer
    passes = run.passes[True]
    busy = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    request_time = 0.0
    for name, self_time, did_fail in tracer.self_times():
        if name == "request":
            continue
        layer = name.split(".", 1)[0]
        busy[name] += self_time
        busy[layer] += self_time
        calls[layer] += 1
        failed[layer] += did_fail
    for name, start, end, _p, _r, _f in tracer.spans:
        if name == "request":
            request_time += end - start
    values = {}
    for layer in LAYERS:
        values[layer + ".busy_s"] = busy[layer] / passes
        values[layer + ".busy_share"] = busy[layer] / request_time
        values[layer + ".calls"] = calls[layer] / passes
        values[layer + ".failed"] = failed[layer]
    for name in SPAN_METRICS:
        values[name + ".busy_s"] = busy[name] / passes
    for name, _unit in COUNTERS:
        values[name] = run.counts.get(name, 0)
    for name, num, den in RATIOS:
        base = run.counts.get(den, 0)
        values[name] = run.counts.get(num, 0) / base if base else 0.0
    values["covering.deck_group.degree_exp"] = _degree_exponent(run.requests,
                                                                tracer.spans)
    values["trace.overhead_ratio"] = run.ops_per_s(True) / run.ops_per_s(False)
    units = metric_units()
    notes = ["per-layer times are self seconds per pass, mean of %d traced passes"
             % passes,
             "untraced %.4g requests/s, traced %.4g requests/s"
             % (run.ops_per_s(False), run.ops_per_s(True))]
    return {name: (values[name], units[name]) for name in units}, notes
