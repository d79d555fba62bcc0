"""Workload ``lattice``: the free-group layer alone, no graphs or covers.

Why: the normal-only low-index search enumerates every subgroup and keeps
the few normal ones, so ``freegroup.low_index_reps_normal`` costs several
times the plain search while keeping about 1% of what it visits.  This is
the mechanism of pruned low-index search.  Deck-group work is absent here.
Membership queries read the same layer instead of generating, so a gain
in enumeration that costs the queries shows in the median.

Requests are a seeded interleaving of two kinds: ``low_index_reps`` over
a rank/degree grid, all subgroups and normal only; and membership queries
(``subgroup_leq``, ``rep_equivalent``, ``is_normal``, ``pushforward_leq``)
on seeded pairs drawn from the subgroups of small index.  Each query builds
its two actions afresh, so no answer cached on a ``PermRep`` carries over.
"""

from __future__ import annotations

import procover as pc

import inputs
import oracles
from common import Request

GRID = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3))
QUERY_POOLS = ((2, 4), (3, 3), (4, 2))
QUERIES = 120


def _enumeration(rank, max_degree, normal, expected_normal) -> Request:
    name = "freegroup.low_index_reps" + ("_normal" if normal else "")
    searched = sum(pc.subgroup_count(rank, n) for n in range(1, max_degree + 1))

    def run(span):
        with span(name):
            return pc.low_index_reps(rank, max_degree, normal_only=normal)

    def check(reps):
        if normal:
            want = expected_normal(rank, max_degree)
            if [r.perms for r in reps] != want:
                return "normal-only list differs from the filtered full list"
            return None
        for n in range(1, max_degree + 1):
            got = sum(1 for r in reps if r.degree == n)
            if got != pc.subgroup_count(rank, n):
                return "%d subgroups of index %d, expected %d" % (
                    got, n, pc.subgroup_count(rank, n))
        return None

    def counts(reps):
        out = {"freegroup.subgroups_emitted": len(reps)}
        if normal:
            out["freegroup.normal_kept"] = len(reps)
            out["freegroup.normal_searched"] = searched
        return out

    return Request("%s-%d-%d" % ("normal" if normal else "all", rank, max_degree),
                   run, check, counts)


def _query(h: pc.PermRep, k: pc.PermRep, images: pc.GeneratorImages) -> Request:
    rank = h.rank
    hd, hp, kd, kp = h.degree, h.perms, k.degree, k.perms
    expected = (oracles.leq(h, k), oracles.equivalent(h, k),
                oracles.is_normal(h), oracles.pushforward_leq(h, images, k))

    def run(span):
        with span("freegroup.queries"):
            a, b = pc.PermRep(rank, hd, hp), pc.PermRep(rank, kd, kp)
            return (pc.subgroup_leq(a, b), pc.rep_equivalent(a, b),
                    pc.is_normal(a), pc.pushforward_leq(a, images, b))

    def check(out):
        if out != expected:
            return "query answers %r, oracle %r" % (out, expected)
        return None

    return Request("query-%d" % rank, run, check)


def _random_word(rank, rng) -> pc.FreeWord:
    letters = [(rng.randrange(rank), rng.choice((1, -1)))
               for _ in range(rng.randint(1, 3))]
    return pc.FreeWord(letters)


def build(rng, workdir) -> list[Request]:
    normal_lists: dict = {}

    def expected_normal(rank, max_degree):
        # computed on first use, outside the timed region
        key = (rank, max_degree)
        if key not in normal_lists:
            normal_lists[key] = [r.perms for r in pc.low_index_reps(rank, max_degree)
                                 if oracles.is_normal(r)]
        return normal_lists[key]

    requests = [_enumeration(rank, d, normal, expected_normal)
                for rank, d in GRID for normal in (False, True)]
    pools = {rank: pc.low_index_reps(rank, d) for rank, d in QUERY_POOLS}
    for q in range(QUERIES):
        rank = rng.choice(sorted(pools))
        pool = pools[rank]
        h = rng.choice(pool)
        if q % 3 == 0:
            k = rng.choice(pool)
        elif q % 3 == 1:
            k = rng.choice([x for x in pool if oracles.leq(h, x)])
        else:
            k = inputs.relabel(rank, h.perms, rng)
        images = pc.GeneratorImages(rank, rank, tuple(_random_word(rank, rng)
                                                      for _ in range(rank)))
        requests.append(_query(h, k, images))
    return requests
