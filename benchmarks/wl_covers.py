"""Workload ``covers``: one request per cover of a rank-2 base.

Why: deck groups are found today by composing full graph morphisms, and
``is_regular`` recomputes the deck group, so this workload puts most of
its time in ``covering.deck_group`` and ``covering.is_regular``.  The mix
holds full, order-2 and trivial deck groups, so a change that helps only
regular covers shows up in the tail alone.

Each request builds the cover with ``cover_from_subgroup``, calls
``deck_group``, ``is_regular`` and ``image_subgroup``, lifts one loop and
composes the lift back down, factors through a seeded cyclic deck subgroup
of prime order when the deck group is nontrivial, and quotients the cover
by the kernel congruence of its projection.
"""

from __future__ import annotations

import procover as pc

import inputs
import oracles
from common import Request

# (family, base, size): the same list for every seed; the seed draws the
# point labels, the random actions, the lifted loop and the deck subgroup.
FAMILIES = (
    [("abelian", "B2", m) for m in range(3, 7)]
    + [("abelian", "theta", m) for m in range(3, 6)]
    + [("dihedral-regular", "B2" if k % 2 == 0 else "theta", k)
       for k in range(4, 15)]
    + [("dihedral-natural", "B2" if (m // 2) % 2 == 0 else "theta", m)
       for m in range(8, 49, 2)]
    + [("random", base, n) for n in range(8, 49, 4) for base in ("B2", "theta")]
)


def _rep(family, size, rng):
    if family == "abelian":
        return inputs.abelian_rep(size, rng)
    if family == "dihedral-regular":
        return inputs.dihedral_regular_rep(size, rng)
    if family == "dihedral-natural":
        return inputs.dihedral_natural_rep(size, rng)
    return inputs.random_transitive_rep(size, rng)


def _prime_subgroup(deck: pc.DeckGroup, pick: int) -> list[int]:
    """The cyclic deck subgroup of a seeded element whose order is the
    least prime dividing the group order, so its size does not depend on
    the seed.  Orders are read off the composition table."""
    p = next(q for q in range(2, deck.order + 1) if deck.order % q == 0)
    candidates = []
    for g in range(1, deck.order):
        power, powers = g, [0, g]
        while len(powers) <= p and power != 0:
            power = deck.table[g][power]
            powers.append(power)
        if len(powers) == p + 1 and powers[-1] == 0:
            candidates.append(powers[:-1])
    return candidates[pick % len(candidates)]


def _request(family, base_name, size, rng) -> Request:
    base = pc.bouquet_graph(2) if base_name == "B2" else inputs.theta_graph()
    rep = _rep(family, size, rng)
    loop = inputs.loop_map(base, "v0", rng.choice(rep.schreier_generators()))
    pick = rng.randrange(1 << 30)
    expected_deck = oracles.deck_order(rep)
    degree = rep.degree

    def run(span):
        with span("covering.cover_from_subgroup"):
            cover, a, cov = pc.cover_from_subgroup(base, "v0", rep)
        with span("covering.deck_group"):
            deck = pc.deck_group(cov)
        with span("covering.is_regular"):
            verdict = pc.is_regular(cov)
        with span("covering.image_subgroup"):
            image = pc.image_subgroup(cov, a, pc.pi1_data(base, "v0"))
        with span("covering.lift"):
            h = pc.lift(loop, cov, "v0", a)
        with span("graphs.compose"):
            back = pc.compose(cov.map, h)
        factored = None
        if deck.order > 1:
            sub = _prime_subgroup(deck, pick)
            with span("covering.quotient_by_deck_subgroup"):
                _, upper, lower = pc.quotient_by_deck_subgroup(deck, sub)
            factored = (len(sub), upper.degree, lower.degree)
        with span("graphs.kernel_congruence"):
            kernel = pc.kernel_congruence(cov.map)
        with span("graphs.quotient"):
            qg, _ = pc.quotient(cover, kernel)
        return (deck.order, verdict, image, back, factored,
                len(qg.vertices), qg.edge_count())

    def check(out):
        order, verdict, image, back, factored, qv, qe = out
        if order != expected_deck:
            return "deck order %d, oracle %d" % (order, expected_deck)
        if verdict.regular != (expected_deck == degree) \
                or verdict.deck_order != expected_deck:
            return "regularity verdict disagrees with normality of the action"
        if not pc.rep_equivalent(image, rep):
            return "image subgroup is not the input subgroup"
        if back != loop:
            return "lift does not compose back to the lifted map"
        if factored is not None:
            sub_order, upper, lower = factored
            if order % sub_order or upper != sub_order or upper * lower != degree:
                return "deck quotient degrees %r do not factor %d" % (factored, degree)
        if (qv, qe) != (len(base.vertices), base.edge_count()):
            return "kernel quotient is not the base"
        return None

    def counts(out):
        return {"covering.deck_elements": out[0],
                "covering.fiber_points_tried": degree}

    regular = expected_deck == degree
    return Request("%s-%s-%d" % (family, base_name, size), run, check, counts,
                   tags={"degree": degree, "regular": regular})


def build(rng, workdir) -> list[Request]:
    return [_request(family, base, size, rng) for family, base, size in FAMILIES]
