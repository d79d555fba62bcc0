"""Scaling sweep behind the baseline table in ROADMAP.md (several minutes).

    python3 benchmarks/sweep.py

Times, once each: ``deck_group`` and ``is_normal`` on B2 covers from
``translation_kernel_rep(2, m)`` at degree 16, 64 and 144;
``kernel_good_pairs(pro2_tower(k))`` for k = 6 and 8; the triviality check
of the 3-level homology tower 1 -> Z/2 -> Z/4 over B2 at max index 2; and
``low_index_reps(2, 6)``, all subgroups and normal only.  Prints the raw
times and, for each family with more than one size, the fitted log-log
exponent of time against size.  Not part of the gated workloads.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import procover as pc  # noqa: E402

import inputs  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def exponent(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    rows = []
    b2 = pc.bouquet_graph(2)
    deck, normal = [], []
    for m in (4, 8, 12):
        rep = pc.translation_kernel_rep(2, m)
        _, _, cov = pc.cover_from_subgroup(b2, "v0", rep)
        deck.append((rep.degree, timed(lambda: pc.deck_group(cov))))
        fresh = pc.PermRep(2, rep.degree, rep.perms)
        normal.append((rep.degree, timed(lambda: pc.is_normal(fresh))))
    rows.append(("deck_group", "degree", deck))
    rows.append(("is_normal", "degree", normal))
    pairs = []
    for k in (6, 8):
        tower = inputs.pro2_tower(k)
        pairs.append((3 * 2 ** k, timed(lambda: pc.kernel_good_pairs(tower))))
    rows.append(("kernel_good_pairs(pro2_tower(k))", "top vertices", pairs))
    tower = pc.universal_tower(inputs.b2_homology_spec((1, 2, 4)))
    rows.append(("pi1_triviality_check(max_index=2)", "levels",
                 [(3, timed(lambda: pc.pi1_triviality_check(tower, 2)))]))
    rows.append(("low_index_reps(2, 6)", "max degree",
                 [(6, timed(lambda: pc.low_index_reps(2, 6)))]))
    rows.append(("low_index_reps(2, 6, normal_only=True)", "max degree",
                 [(6, timed(lambda: pc.low_index_reps(2, 6, normal_only=True)))]))
    for name, size_name, points in rows:
        sizes = " / ".join(str(x) for x, _ in points)
        times = " / ".join("%.3f" % t for _, t in points)
        line = "%-40s %s %s: %s s" % (name, size_name, sizes, times)
        if len(points) > 1:
            line += "  (exponent %.2f)" % exponent(points)
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
