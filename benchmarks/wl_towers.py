"""Workload ``towers``: one request per tower of coverings.

Why: this is the only workload where the ``towers`` layer is the caller.
It mixes deck work (``deck_tower`` and ``kernel_good_pairs`` compute deck
groups level by level) with low-index work and level-0 scoping
(``pi1_triviality_check`` enumerates normal subgroups at every level
although its verdict reads level 0 only), so both kinds of change show.

Towers come from ``universal_tower`` on compatible normal chains (homology
chains over B2, cyclic chains over C3, seeded point labels) and from the
pro-2 tower of cycles over C3, built directly.  Each request then calls
``validate_tower``, ``kernel_good_pairs``, ``deck_tower``,
``limit_fiber_report`` at a seeded base vertex and ``pi1_triviality_check``
at index 2 where every level has rank <= 10 (so 1 -> Z/3 over B2 gives 1,028
rows, 4 of them at level 0), index 4 on the rank-1 towers, else index 1.
"""

from __future__ import annotations

import procover as pc

import inputs
import oracles
from common import Request

# Moduli of homology kernels over B2 and indices of cyclic subgroups over
# C3, each dividing the next; enough towers that the tail percentile has
# ten requests beyond it.
B2_CHAINS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (1, 2, 4), (1, 3, 6))
C3_CHAINS = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
             (1, 10), (1, 2, 4), (1, 2, 6), (1, 2, 8), (1, 2, 10), (1, 3, 6),
             (1, 3, 9), (1, 3, 12), (1, 4, 8), (1, 4, 16), (1, 6, 12),
             (1, 2, 4, 8), (1, 2, 6, 12), (1, 2, 6, 24), (1, 2, 4, 8, 16))
PRO2_DEPTHS = (1, 2, 3, 4, 5)


def _spec(base, reps, rng) -> pc.UniversalSpec:
    normals = [inputs.relabel(r.rank, r.perms, rng) for r in reps]
    return inputs.chain_spec(base, normals)


def _max_index(ranks) -> int:
    if max(ranks) == 1:
        return 4
    return 2 if max(ranks) <= 10 else 1


def _request(name, make_tower, degrees, ranks, vertex) -> Request:
    max_index = _max_index(ranks)
    absorbed: dict = {}

    def run(span):
        t = make_tower(span)
        with span("towers.validate_tower"):
            valid = pc.validate_tower(t)
        with span("towers.kernel_good_pairs"):
            pairs = pc.kernel_good_pairs(t)
        with span("towers.deck_tower"):
            decks = pc.deck_tower(t)
        with span("towers.limit_fiber_report"):
            fibers = pc.limit_fiber_report(t, vertex)
        with span("towers.pi1_triviality_check"):
            pi1 = pc.pi1_triviality_check(t, max_index)
        return t, valid, pairs, decks.orders, fibers, pi1

    def check(out):
        t, valid, pairs, orders, fibers, pi1 = out
        if not valid.ok:
            return "tower does not validate: %r" % (valid.violations[:1],)
        if [r.verdict for r in pairs] != ["regular_good"] * len(degrees):
            return "kernel pairs %r" % ([r.verdict for r in pairs],)
        if orders != list(degrees):
            return "deck orders %r, level degrees %r" % (orders, list(degrees))
        if fibers.sizes != list(degrees) or fibers.dead_end_at is not None:
            return "fiber sizes %r" % (fibers.sizes,)
        rows = [row for row in pi1.rows if row.level == 0]
        want = oracles.normal_count_at_most(ranks[0], max_index)
        if want is not None and len(rows) != want:
            return "%d level-0 rows, expected %d" % (len(rows), want)
        if len({row.rep.canonical_key() for row in rows}) != len(rows) \
                or not all(oracles.is_normal(row.rep) for row in rows):
            return "level-0 rows are not distinct normal subgroups"
        for row in rows:
            key = row.rep.canonical_key()
            if key not in absorbed:
                absorbed[key] = oracles.first_absorbing_level(t, row.rep)
            if row.satisfied_at != absorbed[key]:
                return "row %r satisfied at %r, oracle %r" % (
                    row.rep.perms, row.satisfied_at, absorbed[key])
        if pi1.trivial != all(absorbed[r.rep.canonical_key()] is not None
                              for r in rows):
            return "triviality verdict disagrees with its level-0 rows"
        return None

    def counts(out):
        pi1 = out[5]
        return {"towers.pi1_rows": len(pi1.rows),
                "towers.pi1_level0_rows": sum(1 for r in pi1.rows if r.level == 0)}

    return Request(name, run, check, counts)


def _universal(name, spec, degrees, ranks, rng) -> Request:
    def make(span):
        with span("towers.universal_tower"):
            return pc.universal_tower(spec)
    vertex = rng.choice(spec.base.vertices)
    return _request(name, make, degrees, ranks, vertex)


def _pro2(k, rng) -> Request:
    tower = inputs.pro2_tower(k)
    vertex = rng.choice(tower.base_graph(0).vertices)
    return _request("pro2-%d" % k, lambda span: tower, [2 ** i for i in range(k + 1)],
                    [1] * (k + 1), vertex)


def build(rng, workdir) -> list[Request]:
    requests = []
    b2 = pc.bouquet_graph(2)
    for moduli in B2_CHAINS:
        reps = [pc.translation_kernel_rep(2, m) for m in moduli]
        requests.append(_universal(
            "b2-" + "-".join(map(str, moduli)), _spec(b2, reps, rng),
            [r.degree for r in reps], [r.degree + 1 for r in reps], rng))
    c3 = pc.cycle_graph(3)
    for indices in C3_CHAINS:
        reps = [inputs.cyclic_rep(n) for n in indices]
        requests.append(_universal(
            "c3-" + "-".join(map(str, indices)), _spec(c3, reps, rng),
            list(indices), [1] * len(indices), rng))
    for k in PRO2_DEPTHS:
        requests.append(_pro2(k, rng))
    return requests
